//! Sets of runs and their comparison: the tool the benchmark's own
//! acceptance (two sets of one commit agree within the bounds) and any
//! later parent-vs-change claim are judged with.
//!
//! A set is a JSON-lines file, one record per run:
//! `{"workload": NAME, "seed": N, "result": <the run's last stdout line>}`.

use crate::report::{Better, END_TO_END};
use crate::workloads::WORKLOADS;
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

/// Runs every workload `runs` times, each run a child process invoked
/// exactly as BENCHMARK.json's command invokes it, run `r` of every
/// workload on seed `1000 + r`. Runs are interleaved round-robin across
/// workloads, so each workload samples the whole period the set took —
/// a slow host phase lands on all of them, not on one.
pub fn run_set(out: &str, runs: usize, seconds: f64) -> ExitCode {
    match record_set(out, runs, seconds).and_then(|()| load(out)) {
        Ok(set) => {
            print_spreads(&set);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

fn record_set(out: &str, runs: usize, seconds: f64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut file = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    for r in 0..runs {
        for w in WORKLOADS {
            let seed = 1000 + r as u64;
            eprintln!("e2e: run {}/{runs} of {} (seed {seed})", r + 1, w.name);
            // `output()` waits for the child and collects its stdout.
            let output = Command::new(&exe)
                .args(["--workload", w.name, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", w.name))?;
            if !output.status.success() {
                return Err(format!("{} failed with {}", w.name, output.status));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            // `write_all` on a `File` is unbuffered; nothing to flush.
            file.write_all(
                format!(
                    "{{\"workload\": \"{}\", \"seed\": {seed}, \"result\": {last}}}\n",
                    w.name
                )
                .as_bytes(),
            )
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        }
    }
    Ok(())
}

/// `workload -> metric -> values`, plus failed-operation shares.
#[derive(Default)]
struct Set {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    incorrect: usize,
}

pub fn field<'a>(map: &'a Value, key: &str) -> Option<&'a Value> {
    match map {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| matches!(k, Value::Str(s) if s == key))
            .map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut set = Set::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let record: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let (Some(Value::Str(workload)), Some(result)) =
            (field(&record, "workload"), field(&record, "result"))
        else {
            return Err(bad("no workload/result"));
        };
        if field(result, "correct") != Some(&Value::Bool(true)) {
            set.incorrect += 1;
        }
        let (Some(attempted), Some(failed), Some(Value::Map(metrics))) = (
            field(result, "attempted").and_then(number),
            field(result, "failed").and_then(number),
            field(result, "metrics"),
        ) else {
            return Err(bad("no attempted/failed/metrics"));
        };
        let by_metric = set.values.entry(workload.clone()).or_default();
        by_metric
            .entry("failed_share".to_string())
            .or_default()
            .push(failed / attempted.max(1.0));
        for (name, m) in metrics {
            let (Value::Str(name), Some(value)) = (name, field(m, "value").and_then(number)) else {
                return Err(bad("malformed metric"));
            };
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// The `i`-th quartile of sorted values as Python's
/// `statistics.quantiles(values, n=4)` gives it (the exclusive method),
/// so spreads here read like the driver's.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let m = sorted.len();
    if m < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let j = (i * (m + 1) / 4).clamp(1, m - 1);
    let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    [1, 2, 3].map(|i| quartile(&v, i))
}

/// `(median, interquartile distance as a share of the median)`.
fn median_and_spread(values: &[f64]) -> (f64, f64) {
    let [q1, q2, q3] = quartiles(values);
    let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
    (q2, spread)
}

fn print_spreads(set: &Set) {
    println!(
        "{:<14} {:<18} {:>6} {:>14} {:>9} {:>7}",
        "workload", "metric", "runs", "median", "spread %", "bound %"
    );
    for (workload, metrics) in &set.values {
        for m in END_TO_END {
            let Some(values) = metrics.get(m.name) else {
                continue;
            };
            let (median, spread) = median_and_spread(values);
            println!(
                "{workload:<14} {:<18} {:>6} {median:>14.4} {:>9.2} {:>7.1}{}",
                m.name,
                values.len(),
                100.0 * spread,
                100.0 * m.bound,
                if spread > m.bound / 3.0 && m.name != "setup_s" {
                    "  <- above a third of the bound"
                } else {
                    ""
                }
            );
        }
    }
    if set.incorrect > 0 {
        println!("{} runs reported incorrect outputs", set.incorrect);
    }
}

/// Prints a workload x metric table of two sets with each bound and a
/// verdict. `pass`: B's median is no worse than A's by more than the
/// bound. `regress`: it is. `unresolved`: either set's own spread is
/// wider than the bound, so the sets cannot tell.
pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse %", "spread %", "bound %"
    );
    let mut regressions = 0;
    for (workload, a_metrics) in &a.values {
        let Some(b_metrics) = b.values.get(workload) else {
            println!("{workload:<14} missing from {b_path}");
            regressions += 1;
            continue;
        };
        for m in END_TO_END {
            let (Some(av), Some(bv)) = (a_metrics.get(m.name), b_metrics.get(m.name)) else {
                continue;
            };
            let ((a_med, a_spread), (b_med, b_spread)) =
                (median_and_spread(av), median_and_spread(bv));
            let change = if a_med == 0.0 {
                0.0
            } else {
                (b_med - a_med) / a_med.abs()
            };
            let worse = match m.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let spread = a_spread.max(b_spread);
            // The driver does not hold setup_s to its spread, only to
            // its medians; neither does this.
            let verdict = if spread > m.bound && m.name != "setup_s" {
                "unresolved"
            } else if worse > m.bound {
                regressions += 1;
                "REGRESS"
            } else {
                "pass"
            };
            println!(
                "{workload:<14} {:<18} {a_med:>14.4} {b_med:>14.4} {:>9.2} {:>9.2} {:>7.1}  {verdict}",
                m.name,
                100.0 * worse,
                100.0 * spread,
                100.0 * m.bound,
            );
        }
        // More failed operations is worse whatever the metrics say.
        if let (Some(av), Some(bv)) = (a_metrics.get("failed_share"), b_metrics.get("failed_share"))
        {
            let (a_med, b_med) = (median_and_spread(av).0, median_and_spread(bv).0);
            let verdict = if b_med > a_med {
                regressions += 1;
                "REGRESS"
            } else {
                "pass"
            };
            println!(
                "{workload:<14} {:<18} {a_med:>14.6} {b_med:>14.6} {:>9} {:>9} {:>7}  {verdict}",
                "failed_share", "", "", ""
            );
        }
    }
    if a.incorrect + b.incorrect > 0 {
        println!(
            "{} runs of A and {} of B reported incorrect outputs",
            a.incorrect, b.incorrect
        );
        regressions += 1;
    }
    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
