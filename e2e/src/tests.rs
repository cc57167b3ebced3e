//! The benchmark's own tests (`cargo test --manifest-path e2e/Cargo.toml`).

use crate::report::{Better, END_TO_END};
use crate::trace::Tracer;
use crate::workloads::{self, WORKLOADS};
use crate::{run_workload, RunResult};
use livesec::monitor::EventKind;
use livesec_sim::SimDuration;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};

/// Reps read the process-wide allocation counters, and cargo runs
/// tests on parallel threads: every test that runs a rep holds this.
static ONE_REP_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that panicked while holding the lock has already failed
    // on its own account; the lock guards no data.
    ONE_REP_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tiny_run(name: &str, traced: bool) -> RunResult {
    let spec = workloads::find(name).expect("workload in the table");
    run_workload(spec, 7, 0.0, spec.test_window, traced, None)
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    crate::compare::field(v, key).unwrap_or_else(|| panic!("no key {key} in {v:?}"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn list(v: &Value) -> &[Value] {
    match v {
        Value::Seq(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&src).expect("BENCHMARK.json parses")
}

/// Every workload, at a tiny simulated window: two untraced reps and
/// the traced one dispatch identical events, count identical counters
/// and record an identical monitor history (`run_workload` compares
/// them and reports any difference as a problem), the outputs check
/// out, and the parts of the traced rep sum to its whole.
#[test]
fn every_workload_agrees_traced_and_untraced() {
    let _guard = serial();
    for spec in WORKLOADS {
        let result = tiny_run(spec.name, true);
        assert!(result.correct, "{}: {:#?}", spec.name, result.problems);
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{}: no metric {name}", spec.name))
                .value
        };
        let parts: f64 = result
            .metrics
            .iter()
            .filter(|m| m.name.ends_with("_ns") && m.unit == "ns")
            .filter(|m| {
                let span = m.name.starts_with("switch.")
                    || m.name.starts_with("services.element.")
                    || m.name.starts_with("core.controller.")
                    || m.name == "trace.other_spans_ns";
                span && !m.name.ends_with("p99_ns")
            })
            .map(|m| m.value)
            .fold(value("sim.world.self_ns"), |sum, ns| sum + ns);
        let whole = value("sim.world.run_ns");
        assert!(
            (parts - whole).abs() <= 0.01 * whole,
            "{}: spans {parts} do not sum to the run {whole}",
            spec.name
        );
        assert_eq!(value("trace.unwrapped_nodes"), 0.0, "{}", spec.name);
        assert!(value("sim.world.events") > 0.0);
    }
}

/// BENCHMARK.json and the binary say the same thing: same workloads
/// with the same reasons, same end-to-end metrics with the same units,
/// directions and bounds, and the names and units a run prints are
/// exactly the declared ones, for `--trace 0` and `--trace 1`.
#[test]
fn printed_names_equal_benchmark_json() {
    let _guard = serial();
    let json = benchmark_json();

    let declared: Vec<(&str, &str)> = list(field(&json, "workloads"))
        .iter()
        .map(|w| (text(field(w, "name")), text(field(w, "why"))))
        .collect();
    let table: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, table);

    let declared: Vec<(String, String, String, f64)> = list(field(&json, "end_to_end"))
        .iter()
        .map(|m| {
            let bound = match field(m, "bound") {
                Value::F64(b) => *b,
                other => panic!("bound {other:?}"),
            };
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
                text(field(m, "better")).to_string(),
                bound,
            )
        })
        .collect();
    let table: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            (
                m.name.to_string(),
                m.unit.to_string(),
                better.to_string(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(declared, table);
    assert!(table.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));
    assert_eq!(
        field(&json, "run_seconds"),
        &Value::U64(crate::RUN_SECONDS as u64)
    );

    let printed = |traced: bool| -> BTreeMap<String, String> {
        tiny_run("ids_payload", traced)
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    };
    let declared = |key: &str| -> BTreeMap<String, String> {
        list(field(&json, key))
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_string(),
                    text(field(m, "unit")).to_string(),
                )
            })
            .collect()
    };
    assert_eq!(printed(false), declared("end_to_end"));
    assert_eq!(printed(true), declared("per_layer"));
}

/// What the Figure-8 narrative needs from a run of the fig7 campus.
fn narrative(traced: bool) -> (BTreeSet<String>, BTreeMap<&'static str, usize>, bool) {
    let spec = workloads::find("campus_fig7").expect("workload in the table");
    let mut built = (spec.build)(42);
    let tracer = Tracer::new();
    if traced {
        tracer.wrap(&mut built.campus);
        tracer.arm(true);
    }
    built.campus.world.run_for(SimDuration::from_secs(10));
    let leaver = built.departing[0];
    let leaver_mac = built
        .campus
        .users
        .iter()
        .find(|u| u.node == leaver)
        .expect("the leaver is a user")
        .mac;
    let monitor = built.campus.controller().monitor();
    let apps = monitor
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::AppIdentified { app, .. } => Some(app.clone()),
            _ => None,
        })
        .collect();
    let left = monitor
        .events()
        .iter()
        .any(|e| matches!(&e.kind, EventKind::UserLeave { mac } if *mac == leaver_mac));
    (apps, monitor.summary(), left)
}

/// A campus whose every node sits inside the timing adaptor tells the
/// same Figure-8 story as the bare one: applications identified, the
/// attack detected and blocked, the leaver evicted — downcasts through
/// the adaptor (`Campus::controller()`) included.
#[test]
fn wrapped_fig7_yields_the_same_narrative() {
    let _guard = serial();
    let (bare, wrapped) = (narrative(false), narrative(true));
    assert_eq!(bare, wrapped);
    let (apps, summary, leaver_left) = wrapped;
    for app in ["http", "ssh", "bittorrent"] {
        assert!(apps.contains(app), "{app} not identified: {apps:?}");
    }
    assert!(summary.get("attack_detected").copied().unwrap_or(0) >= 1);
    assert!(summary.get("flow_blocked").copied().unwrap_or(0) >= 1);
    assert_eq!(summary.get("se_online").copied(), Some(4));
    assert!(leaver_left, "the leaver was not evicted: {summary:?}");
}
