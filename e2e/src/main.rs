//! `e2e` — the repo's end-to-end benchmark.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one run (BENCHMARK.json's command)
//!     [--trace-out FILE]                                 with --trace 1: dump histograms and longest spans
//! e2e --set OUT.jsonl [--runs R] [--seconds S]           R runs of every workload, interleaved
//! e2e --compare A.jsonl B.jsonl                          judge two sets against the bounds
//! ```
//!
//! One run builds its workload's campus through the real
//! `CampusBuilder`/`CampusScenario`, repeats `build -> converge ->
//! measured window` until `--seconds` of measured wall time have
//! accumulated, checks the outputs, prints every metric by name with
//! its unit and, as the last line of stdout, one JSON object. One
//! process, one thread. See README.md beside this crate.

mod alloc;
mod apps;
mod clock;
mod compare;
mod kernels;
mod outcome;
mod report;
mod run;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use livesec_sim::SimDuration;
use report::Metric;
use run::Rep;
use std::process::ExitCode;
use workloads::Spec;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The result of one run: what the last stdout line carries.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// What a reader needs beside the numbers, one line each.
    pub notes: Vec<String>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// `--seconds` when the flag is absent; BENCHMARK.json's `run_seconds`.
const RUN_SECONDS: f64 = 6.0;

/// A run has to exit within 180 s whatever `--seconds` says; set-up,
/// drain and scoring ride on top of the measured time, so no new rep
/// starts after this much wall time.
const RUN_CAP_NS: u64 = 100_000_000_000;

/// Untraced reps until `seconds` of measured window time accumulate
/// (two at least: the determinism check needs a pair).
fn untraced_reps(spec: &Spec, seed: u64, seconds: f64, window: SimDuration) -> Vec<Rep> {
    let started = clock::now_ns();
    let mut reps = Vec::new();
    let mut measured_ns = 0u64;
    while reps.len() < 2
        || (measured_ns as f64) < seconds * 1e9 && clock::now_ns() - started < RUN_CAP_NS
    {
        let (rep, _campus) = run::rep(spec, seed, window, None, reps.is_empty());
        measured_ns += rep.window_ns;
        reps.push(rep);
    }
    reps
}

/// How far two reps' allocation figures may differ. Everything the
/// simulator outputs repeats to the bit, but `std`'s `HashMap` seeds
/// every instance differently, so which removals leave tombstones —
/// and with that whether a full table rehashes in place or grows —
/// varies: a few allocations in a million, and up to 1e-3 of the peak
/// when a large table doubles a little earlier or later.
const ALLOC_TOLERANCE: f64 = 1e-2;

/// Any two reps of one workload and seed must agree in everything the
/// simulator produced — exactly — and in what they allocated, to
/// `ALLOC_TOLERANCE`; a mismatch is a determinism bug in the program,
/// and a finding.
fn check_agreement(reps: &[&Rep], allocs_too: bool, problems: &mut Vec<String>) {
    let first = reps[0];
    let close = |a: u64, b: u64| (a as f64 - b as f64).abs() <= ALLOC_TOLERANCE * b as f64;
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if rep.outcome != first.outcome {
            problems.push(format!(
                "rep {i} disagrees with rep 0: {:?} vs {:?}",
                rep.outcome, first.outcome
            ));
        }
        if allocs_too
            && !(close(rep.allocs, first.allocs)
                && close(rep.alloc_bytes, first.alloc_bytes)
                && close(rep.peak_bytes, first.peak_bytes))
        {
            problems.push(format!(
                "rep {i} allocated differently from rep 0: {:?} vs {:?}",
                (rep.allocs, rep.alloc_bytes, rep.peak_bytes),
                (first.allocs, first.alloc_bytes, first.peak_bytes)
            ));
        }
    }
}

fn check_outputs(rep: &Rep, problems: &mut Vec<String>) {
    let o = &rep.outcome;
    match rep.violations {
        Some(0) => {}
        Some(n) => problems.push(format!("{n} dataplane invariant violations")),
        None => problems.push("the first rep did not audit".to_string()),
    }
    if o.ses_offline > 0 {
        problems.push(format!(
            "{} service elements offline at the end",
            o.ses_offline
        ));
    }
    if !o.attacker_blocked {
        problems.push("the attacker has no standing block".to_string());
    }
    if o.ops.attempted == 0 {
        problems.push("no operation was attempted".to_string());
    }
}

/// One run of one workload, as BENCHMARK.json's command asks for it.
/// `window` is the workload's own except in the in-tree tests.
pub fn run_workload(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    window: SimDuration,
    traced: bool,
    trace_out: Option<&str>,
) -> RunResult {
    let mut problems = Vec::new();
    let (reps, metrics) = if traced {
        // Two untraced reps (the pair the determinism check and the
        // overhead figure need), then the traced one.
        let reps = untraced_reps(spec, seed, 0.0, window);
        let tracer = trace::Tracer::new();
        let (traced_rep, mut built) = run::rep(spec, seed, window, Some(&tracer), false);
        // The traced rep must have dispatched exactly the events and
        // produced exactly the history of the untraced ones.
        check_agreement(&[&reps[0], &traced_rep], false, &mut problems);
        let sink = tracer.sink();
        if sink.children_ns() > traced_rep.window_ns {
            problems.push("child spans exceed the root span".to_string());
        }
        let cache_entries = traced_rep.outcome.counters["core.cache.entries"];
        let kernels = kernels::run(&mut built, &sink.frames, cache_entries);
        let metrics = report::per_layer(
            &reps,
            &report::Traced {
                rep: &traced_rep,
                sink: &sink,
                kernels: &kernels,
            },
        );
        if let Some(path) = trace_out {
            if let Err(e) = std::fs::write(path, trace::dump(spec.name, &sink)) {
                problems.push(format!("cannot write {path}: {e}"));
            }
        }
        (reps, metrics)
    } else {
        let reps = untraced_reps(spec, seed, seconds, window);
        let metrics = report::end_to_end(&reps);
        (reps, metrics)
    };
    check_agreement(&reps.iter().collect::<Vec<_>>(), true, &mut problems);
    check_outputs(&reps[0], &mut problems);
    let o = &reps[0].outcome;
    let (raw_speed, raw_setup_s) = report::raw_host_metrics(&reps);
    let notes = vec![
        format!(
            "{} untraced reps of {} simulated s each; before scaling to the reference host: {raw_speed:.4} sim_s/s, set-up {raw_setup_s:.4} s, host slowdown {:.3}",
            reps.len(),
            window.as_secs_f64(),
            report::host_slowdown(&reps)
        ),
        format!(
            "txn_p99_us is the p{:.2} of {} transactions (p99 from 1000 samples up, else the highest percentile with ten samples beyond it)",
            o.txn.high_pct, o.txn.count
        ),
        format!(
            "{} operations failed inside the fault phase and are not counted against the program",
            o.counters["workloads.fault_casualties"]
        ),
    ];
    RunResult {
        correct: problems.is_empty(),
        attempted: o.ops.attempted,
        failed: o.ops.failed,
        metrics,
        notes,
        problems,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]\n       \
         e2e --set OUT.jsonl [--runs R] [--seconds S]\n       \
         e2e --compare A.jsonl B.jsonl\nworkloads: {}",
        workloads::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return usage();
        };
        return compare::compare(a, b);
    }
    let seconds: f64 = match value("--seconds").map(str::parse) {
        Some(Ok(s)) if s > 0.0 => s,
        None => RUN_SECONDS,
        _ => return usage(),
    };
    if let Some(out) = value("--set") {
        let runs = match value("--runs").map(str::parse) {
            Some(Ok(r)) if r > 0 => r,
            None => 10,
            _ => return usage(),
        };
        return compare::run_set(out, runs, seconds);
    }
    let (Some(spec), Some(Ok(seed)), Some(trace)) = (
        value("--workload").and_then(workloads::find),
        // Any integer is a seed; a negative one wraps.
        value("--seed").map(|s| s.parse::<i128>().map(|n| n as u64)),
        value("--trace"),
    ) else {
        return usage();
    };
    let traced = match trace {
        "0" => false,
        "1" => true,
        _ => return usage(),
    };
    let result = run_workload(
        spec,
        seed,
        seconds,
        spec.window,
        traced,
        value("--trace-out"),
    );
    for m in &result.metrics {
        println!("{:<44} {:>18.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}: {} of {} operations failed",
        spec.name, result.failed, result.attempted
    );
    for n in &result.notes {
        println!("{}: {n}", spec.name);
    }
    for p in &result.problems {
        eprintln!("e2e: {}: INCORRECT: {p}", spec.name);
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
