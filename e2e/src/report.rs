//! Turns reps into named metrics: the eight end-to-end metrics from the
//! untraced reps, and the per-layer set (spans, kernels, exact
//! counters, reconstruction) from a traced rep beside them.

use crate::clock::CALIBRATION_REFERENCE_NS;
use crate::outcome::Outcome;
use crate::run::Rep;
use crate::trace::{Callback, Layer, Sink};
use std::collections::BTreeMap;

/// One reported value. The unit strings are the ones BENCHMARK.json
/// declares; `sim_` marks the simulated clock, everything else is host.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric as BENCHMARK.json declares it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, in report order. BENCHMARK.json repeats this
/// table (a test holds the two together); README.md says what each
/// metric is and how its bound was set.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "sim_speed",
        unit: "sim_s/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_sim_s",
        unit: "1/sim_s",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "txn_p99_us",
        unit: "sim_us",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "goodput_mbps",
        unit: "sim_Mbit/s",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "mitigation_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.1,
    },
];

fn sim_speed(rep: &Rep) -> f64 {
    rep.window.as_secs_f64() / (rep.window_ns as f64 / 1e9)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Wall time of a sequence of pieces with the host's disturbances taken
/// out as far as the reps allow: a piece is the same work in every rep,
/// so each counts at its fastest rep — a deterministic single-threaded
/// program only ever loses time to the host.
fn undisturbed_ns<'a>(reps: &'a [Rep], pieces: impl Fn(&'a Rep) -> &'a [u64]) -> u64 {
    (0..pieces(&reps[0]).len())
        .map(|i| reps.iter().map(|r| pieces(r)[i]).min().unwrap_or(0))
        .sum()
}

/// How much slower than the reference the host was during a run, by the
/// fastest calibration beside any of its reps (1 = the reference host
/// in a quiet phase). What cannot be taken out by picking fastest
/// pieces — a slow phase that outlasts the run — is divided out by this.
pub fn host_slowdown(reps: &[Rep]) -> f64 {
    let fastest = reps.iter().flat_map(|r| r.calib_ns).min().unwrap_or(0);
    fastest as f64 / CALIBRATION_REFERENCE_NS as f64
}

/// `(simulated s per wall s, set-up s)` as the host showed them, before
/// scaling to the reference host.
pub fn raw_host_metrics(reps: &[Rep]) -> (f64, f64) {
    let window_s = reps[0].window.as_secs_f64();
    (
        window_s / (undisturbed_ns(reps, |r| &r.slice_ns) as f64 / 1e9),
        undisturbed_ns(reps, |r| &r.setup_slice_ns) as f64 / 1e9,
    )
}

/// The end-to-end metrics. The two host-clock ones take the fastest the
/// reps showed, scaled to the reference host; the others repeat exactly
/// (allocation figures nearly), so any rep will do.
pub fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let o = &reps[0].outcome;
    let window_s = reps[0].window.as_secs_f64();
    let (raw_speed, raw_setup_s) = raw_host_metrics(reps);
    let slowdown = host_slowdown(reps);
    // Allocation figures agree between reps to a few parts in a
    // million (see `ALLOC_TOLERANCE`); the median rep speaks for all.
    let allocs = median(reps.iter().map(|r| r.allocs as f64).collect());
    let peak = median(reps.iter().map(|r| r.peak_bytes as f64).collect());
    let values = [
        raw_speed * slowdown,
        raw_setup_s / slowdown,
        allocs / window_s,
        peak / (1024.0 * 1024.0),
        o.txn.p50_us,
        o.txn.high_us,
        o.goodput_mbps,
        o.mitigation_ms,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| metric(m.name, m.unit, v))
        .collect()
}

/// What the traced rep adds to an untraced one.
pub struct Traced<'a> {
    pub rep: &'a Rep,
    pub sink: &'a Sink,
    pub kernels: &'a BTreeMap<&'static str, f64>,
}

/// Counter-times-kernel reconstruction of one node class's span total.
/// Returns the share of the measured time the model leaves unexplained
/// (negative: the kernels, timed hot in a loop, overshoot the run).
fn residual_pct(measured_ns: u64, modelled_ns: f64) -> f64 {
    if measured_ns == 0 {
        return 0.0;
    }
    100.0 * (measured_ns as f64 - modelled_ns) / measured_ns as f64
}

pub fn per_layer(untraced: &[Rep], traced: &Traced<'_>) -> Vec<Metric> {
    let sink = traced.sink;
    let base = &untraced[0];
    let o: &Outcome = &base.outcome;
    let count = |name: &str| o.counters.get(name).copied().unwrap_or(0) as f64;
    let kernel = |name: &str| traced.kernels.get(name).copied().unwrap_or(0.0);
    let mut out = Vec::new();

    // 1. Spans.
    let run_ns = traced.rep.window_ns;
    let self_ns = run_ns.saturating_sub(sink.children_ns());
    let events = count("sim.world.events");
    out.push(metric("sim.world.run_ns", "ns", run_ns as f64));
    out.push(metric("sim.world.self_ns", "ns", self_ns as f64));
    out.push(metric(
        "sim.world.self_ns_per_event",
        "ns",
        self_ns as f64 / events.max(1.0),
    ));
    out.push(metric("sim.world.events", "count", events));
    for (cb, name) in [
        (Callback::Frame, "frames"),
        (Callback::Timer, "timers"),
        (Callback::Control, "controls"),
    ] {
        out.push(metric(
            format!("sim.world.{name}"),
            "count",
            sink.calls(cb) as f64,
        ));
    }
    let spans: [(Layer, &[Callback]); 4] = [
        (
            Layer::AsSwitch,
            &[Callback::Frame, Callback::Control, Callback::Timer],
        ),
        (Layer::Learning, &[Callback::Frame]),
        (Layer::Element, &[Callback::Frame, Callback::Timer]),
        (Layer::Controller, &[Callback::Control, Callback::Timer]),
    ];
    for (layer, callbacks) in spans {
        for &cb in callbacks {
            let s = sink.of(layer, cb);
            let stem = format!("{}.{}", layer.name(), cb.name());
            out.push(metric(format!("{stem}_ns"), "ns", s.total_ns as f64));
            out.push(metric(format!("{stem}_calls"), "count", s.calls as f64));
        }
        if matches!(layer, Layer::AsSwitch | Layer::Controller) {
            out.push(metric(
                format!("{}.on_control_p99_ns", layer.name()),
                "ns",
                sink.of(layer, Callback::Control).quantile_ns(0.99) as f64,
            ));
        }
    }
    // Host shell and the workload apps on it: one figure for all three
    // callbacks, it is the load generator rather than the system.
    let host: Vec<_> = [Callback::Frame, Callback::Timer, Callback::Control]
        .iter()
        .map(|&cb| sink.of(Layer::Host, cb))
        .collect();
    out.push(metric(
        "switch.host.busy_ns",
        "ns",
        host.iter().map(|s| s.total_ns).sum::<u64>() as f64,
    ));
    out.push(metric(
        "switch.host.calls",
        "count",
        host.iter().map(|s| s.calls).sum::<u64>() as f64,
    ));
    // Whatever the lines above leave out (a learning switch's timers,
    // frames delivered to the controller node): with it, the printed
    // spans plus `sim.world.self_ns` are `sim.world.run_ns` exactly.
    let printed: f64 = out
        .iter()
        .filter(|m| {
            m.unit == "ns" && !m.name.starts_with("sim.world.") && !m.name.ends_with("p99_ns")
        })
        .map(|m| m.value)
        .sum();
    out.push(metric(
        "trace.other_spans_ns",
        "ns",
        sink.children_ns() as f64 - printed,
    ));
    out.push(metric(
        "trace.overhead_pct",
        "%",
        100.0 * (run_ns as f64 - base.window_ns as f64) / base.window_ns as f64,
    ));
    out.push(metric(
        "trace.unwrapped_nodes",
        "count",
        sink.unwrapped as f64,
    ));

    // 2. Kernels. A kernel whose input the workload does not produce
    // (no real payload bytes, no routable flow) reads 0.
    for name in KERNELS {
        out.push(metric(
            *name,
            if name.ends_with("_per_kib") {
                "ns/KiB"
            } else {
                "ns"
            },
            kernel(name),
        ));
    }

    // 3. Exact counters.
    for name in COUNTERS {
        out.push(metric(*name, "count", count(name)));
    }
    let (hits, misses) = (count("core.cache.hits"), count("core.cache.misses"));
    out.push(metric(
        "core.cache.hit_ratio",
        "ratio",
        hits / (hits + misses).max(1.0),
    ));
    out.push(metric(
        "core.controller.flow_mods",
        "count",
        sink.flow_mods as f64,
    ));
    out.push(metric(
        "core.controller.packet_ins",
        "count",
        sink.packet_ins as f64,
    ));
    out.push(metric(
        "workloads.first_pkt_p50_us",
        "sim_us",
        o.first_pkt.p50_us,
    ));
    out.push(metric(
        "workloads.first_pkt_p99_us",
        "sim_us",
        o.first_pkt.high_us,
    ));
    out.push(metric("host.allocs", "count", base.allocs as f64));
    out.push(metric("host.alloc_bytes", "B", base.alloc_bytes as f64));
    let speeds: Vec<f64> = untraced.iter().map(sim_speed).collect();
    let (lo, hi) = speeds
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    out.push(metric("host.rep_spread_pct", "%", 100.0 * (hi - lo) / lo));
    out.push(metric(
        "host.rep_median_sim_speed",
        "sim_s/s",
        median(speeds),
    ));
    out.push(metric(
        "host.calib_ns",
        "ns",
        untraced.iter().flat_map(|r| r.calib_ns).min().unwrap_or(0) as f64,
    ));
    out.push(metric("host.slowdown", "ratio", host_slowdown(untraced)));

    // 4. Reconstruction: counts x kernel costs against span totals.
    let flow_mods = sink.flow_mods as f64;
    let packet_ins = sink.packet_ins as f64;
    let span = |layer, cb| sink.of(layer, cb);
    let as_switch_measured: u64 = [Callback::Frame, Callback::Control, Callback::Timer]
        .iter()
        .map(|&cb| span(Layer::AsSwitch, cb).total_ns)
        .sum();
    let as_frames = span(Layer::AsSwitch, Callback::Frame).calls as f64;
    let as_switch_model = (as_frames - packet_ins).max(0.0)
        * (kernel("openflow.table.lookup_hit_ns") + kernel("openflow.action.apply_ns"))
        + packet_ins * (kernel("openflow.table.lookup_miss_ns") + kernel("net.wire.serialize_ns"))
        + flow_mods
            * (kernel("openflow.codec.decode_flowmod_ns") + kernel("openflow.table.insert_ns"))
        + span(Layer::AsSwitch, Callback::Timer).calls as f64 * kernel("openflow.table.expire_ns");
    let controller_measured: u64 = [Callback::Control, Callback::Timer]
        .iter()
        .map(|&cb| span(Layer::Controller, cb).total_ns)
        .sum();
    let controller_model = packet_ins
        * (kernel("openflow.codec.decode_packetin_ns") + kernel("net.wire.parse_ns"))
        + misses * kernel("core.engine.decide_ns")
        + hits * kernel("core.cache.lookup_hit_ns")
        + misses * kernel("core.cache.insert_ns")
        + flow_mods * kernel("openflow.codec.encode_flowmod_ns")
        + count("core.monitor.events") * kernel("core.monitor.record_ns");
    let element_measured: u64 = [Callback::Frame, Callback::Timer]
        .iter()
        .map(|&cb| span(Layer::Element, cb).total_ns)
        .sum();
    // Every processed packet is inspected once; IDS and proto-id cost
    // is averaged because the counters do not split packets by engine.
    let element_model = count("services.element.pkts")
        * (kernel("services.ids.inspect_ns") + kernel("services.protoid.inspect_ns"))
        / 2.0;
    let total_measured = as_switch_measured + controller_measured + element_measured;
    let total_model = as_switch_model + controller_model + element_model;
    for (name, measured, model) in [
        ("as_switch", as_switch_measured, as_switch_model),
        ("controller", controller_measured, controller_model),
        ("element", element_measured, element_model),
        ("total", total_measured, total_model),
    ] {
        out.push(metric(
            format!("attrib.{name}_residual_pct"),
            "%",
            residual_pct(measured, model),
        ));
    }
    out
}

/// Kernel metric names, in report order (`kernels::run` fills them).
pub const KERNELS: &[&str] = &[
    "net.wire.serialize_ns",
    "net.wire.parse_ns",
    "openflow.codec.encode_flowmod_ns",
    "openflow.codec.decode_flowmod_ns",
    "openflow.codec.decode_packetin_ns",
    "openflow.table.lookup_hit_ns",
    "openflow.table.lookup_miss_ns",
    "openflow.table.insert_ns",
    "openflow.table.expire_ns",
    "openflow.action.apply_ns",
    "core.policy.decide_ns",
    "core.engine.decide_ns",
    "core.routing.compile_ns",
    "core.cache.lookup_hit_ns",
    "core.cache.insert_ns",
    "core.monitor.record_ns",
    "core.monitor.to_json_ns",
    "core.monitor.replay_ns",
    "conntrack.observe_ns",
    "conntrack.expire_ns",
    "services.aho.scan_ns_per_kib",
    "services.ids.inspect_ns",
    "services.protoid.inspect_ns",
    "verify.audit_ns",
    "policy.compile_ns",
];

/// Exact-counter metric names (`outcome::score` fills them).
pub const COUNTERS: &[&str] = &[
    "core.controller.flow_setups",
    "core.controller.batches",
    "core.controller.msgs_out",
    "core.controller.active_flows",
    "core.controller.audits",
    "core.controller.resyncs",
    "core.controller.flows_reinstalled",
    "core.cache.hits",
    "core.cache.misses",
    "core.cache.entries",
    "core.monitor.events",
    "core.plane.handoffs",
    "core.accountability.attestations",
    "openflow.table.entries_max",
    "services.element.pkts",
    "services.element.bytes",
    "services.element.overload_drops",
    "sim.link.drops",
    "workloads.ops_attempted",
    "workloads.ops_failed",
    "workloads.fault_casualties",
];
