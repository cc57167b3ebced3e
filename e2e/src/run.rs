//! One rep: build the campus, converge it, run the measured window,
//! drain, check the outputs, score.

use crate::alloc;
use crate::clock::{calibrate, time};
use crate::outcome::{self, Outcome, Reading, Run};
use crate::trace::Tracer;
use crate::workloads::{Built, Spec};
use livesec_sim::{SimDuration, SimTime};

/// Host-side results of one rep, with the simulated-side [`Outcome`].
pub struct Rep {
    /// Workload start -> start of the measured window, piece by piece:
    /// building the campus, then the warm-up in `SLICES` equal stretches
    /// of simulated time. A piece is the same work in every rep of a run.
    pub setup_slice_ns: Vec<u64>,
    /// Wall time of `World::run_until` over the measured window.
    pub window_ns: u64,
    /// The same, stretch by stretch: `SLICES` equal ones, cut further at
    /// the fault phase's bounds.
    pub slice_ns: Vec<u64>,
    /// Simulated length of the measured window.
    pub window: SimDuration,
    /// Heap allocations inside `World::run_until` over the window.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Peak live heap over set-up + window, above the rep's baseline.
    pub peak_bytes: u64,
    /// The calibration kernel, timed before and after the rep.
    pub calib_ns: [u64; 2],
    pub outcome: Outcome,
    /// Dataplane invariant violations at the end, if this rep audited.
    pub violations: Option<usize>,
}

/// Stretches the warm-up and the measured window are timed in. A
/// disturbance of the host shorter than a stretch spoils one stretch of
/// one rep, not the rep: a run's host-clock metrics are computed from
/// each stretch's fastest rep.
const SLICES: u64 = 16;

/// `SLICES` equally spaced instants, the last one `from + span`.
fn slice_stops(from: SimTime, span: SimDuration) -> impl Iterator<Item = SimTime> {
    (1..SLICES)
        .map(move |k| from + SimDuration::from_nanos(span.as_nanos() / SLICES * k))
        .chain([from + span])
}

/// Simulated time the clients get to resolve what the window left in
/// flight: a stall timer (300 ms) fires at most 600 ms after a loss.
const DRAIN: SimDuration = SimDuration::from_secs(1);

/// Runs one rep. The finished campus comes back beside the results:
/// the kernels take their inputs from it, everyone else drops it.
pub fn rep(
    spec: &Spec,
    seed: u64,
    window: SimDuration,
    tracer: Option<&Tracer>,
    audit: bool,
) -> (Rep, Built) {
    let calib_before = calibrate();
    let baseline = alloc::snapshot().live;
    alloc::reset_peak();

    let (build_ns, mut built) = time(|| {
        let mut built = (spec.build)(seed);
        if let Some(t) = tracer {
            t.wrap(&mut built.campus);
        }
        built
    });
    let mut setup_slice_ns = vec![build_ns];
    let mut warm_events = 0;
    for t in slice_stops(SimTime::ZERO, spec.warmup) {
        let (ns, stats) = time(|| built.campus.world.run_until(t));
        setup_slice_ns.push(ns);
        warm_events = stats.events;
    }

    let start = built.campus.world.kernel().now();
    let end = start + window;
    // The fault phase's bounds cut the window, so failed operations can
    // be told apart by the stretch they resolved in.
    let mut cut_times: Vec<SimTime> = built
        .fault_phase
        .into_iter()
        .flat_map(|(a, b)| [a, b])
        .filter(|t| *t > start && *t < end)
        .collect();
    cut_times.push(end);
    // Slice bounds between the cuts: timed apart, nothing read there.
    let mut stops: Vec<SimTime> = slice_stops(start, window)
        .chain(cut_times.iter().copied())
        .collect();
    stops.sort_unstable();
    stops.dedup();

    let mut cuts = vec![Reading::take(&built.campus)];
    let counters_start = outcome::counters(&built.campus, warm_events);
    let delivered_start = outcome::delivered_bytes(&built.campus);
    let (mut allocs, mut alloc_bytes, mut events) = (0, 0, warm_events);
    let mut slice_ns = Vec::with_capacity(stops.len());
    if let Some(t) = tracer {
        t.arm(true);
    }
    for t in stops {
        let heap = alloc::snapshot();
        let (ns, stats) = time(|| built.campus.world.run_until(t));
        let after = alloc::snapshot();
        slice_ns.push(ns);
        allocs += after.allocs - heap.allocs;
        alloc_bytes += after.bytes - heap.bytes;
        events = stats.events;
        if cut_times.contains(&t) {
            cuts.push(Reading::take(&built.campus));
        }
    }
    let window_ns = slice_ns.iter().sum();
    if let Some(t) = tracer {
        t.arm(false);
    }
    let peak_bytes = alloc::snapshot().peak - baseline;
    let counters_end = outcome::counters(&built.campus, events);
    let gauges_end = outcome::gauges(&built.campus);
    let delivered_end = outcome::delivered_bytes(&built.campus);

    built.campus.world.run_for(DRAIN);
    let drained = Reading::take(&built.campus);
    let outcome = outcome::score(Run {
        built: &built,
        cuts: &cuts,
        drained: &drained,
        delivered_start,
        delivered_end,
        counters_start,
        counters_end,
        gauges_end,
    });
    // The audit may step the world on (it retries while entries idle
    // out), so it runs after everything above was read. Reps of one run
    // end in the same state — the history hash pins that — so one
    // audit per run checks them all.
    let violations = audit.then(|| {
        let found =
            livesec_verify::audit_settled(&mut built.campus, 30, SimDuration::from_millis(100));
        for v in &found {
            eprintln!("e2e: {}: dataplane violation: {v:?}", spec.name);
        }
        found.len()
    });
    let rep = Rep {
        setup_slice_ns,
        window_ns,
        slice_ns,
        window,
        allocs,
        alloc_bytes,
        peak_bytes,
        calib_ns: [calib_before, calibrate()],
        outcome,
        violations,
    };
    (rep, built)
}
