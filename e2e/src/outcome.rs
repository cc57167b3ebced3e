//! Scoring one rep: application operations, the simulated-clock
//! end-to-end results, the exact counters read through the crates'
//! public getters, and the output checks. Everything here is computed
//! from integers the deterministic simulator produced, so two reps of
//! one workload and seed must agree to the bit — [`Outcome`] derives
//! `PartialEq` for exactly that comparison.

use crate::apps::{BlobClient, ProbeSink, Prober};
use crate::workloads::Built;
use livesec::deploy::Campus;
use livesec::monitor::EventKind;
use livesec::Controller;
use livesec_services::{ProtoIdEngine, ServiceElement, SignatureEngine};
use livesec_sim::{NodeId, PortId, SimDuration, SimTime};
use livesec_switch::Host;
use livesec_workloads::{HttpClient, SshSession};
use std::collections::BTreeMap;

/// Progress of one operation source at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    pub issued: u64,
    pub completed: u64,
    pub aborted: u64,
    /// Closed loop: one operation outstanding at a time, each resolved
    /// (completed or aborted by its stall timer) before the next.
    closed_loop: bool,
}

/// Reads every client's progress. Keyed by node id, so two readings
/// subtract source by source.
pub fn progress(campus: &Campus) -> BTreeMap<NodeId, Progress> {
    let world = &campus.world;
    let mut out = BTreeMap::new();
    for u in &campus.users {
        let p = if let Some(h) = world.try_node::<Host<HttpClient>>(u.node) {
            let a = h.app();
            Progress {
                issued: u64::from(a.requests),
                completed: u64::from(a.completed),
                aborted: u64::from(a.aborted),
                closed_loop: true,
            }
        } else if let Some(h) = world.try_node::<Host<BlobClient>>(u.node) {
            let a = h.app();
            Progress {
                issued: a.bursts,
                completed: a.completed,
                aborted: a.aborted,
                closed_loop: true,
            }
        } else if let Some(h) = world.try_node::<Host<SshSession>>(u.node) {
            let a = h.app();
            // The banner is a request like any keystroke.
            Progress {
                issued: u64::from(a.keystrokes) + 1,
                completed: u64::from(a.echoes),
                aborted: 0,
                closed_loop: false,
            }
        } else {
            continue;
        };
        out.insert(u.node, p);
    }
    out
}

/// Operations of one stretch of simulated time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Client operations resolved between two readings.
fn client_ops(from: &BTreeMap<NodeId, Progress>, to: &BTreeMap<NodeId, Progress>) -> Ops {
    let mut ops = Ops::default();
    for (node, b) in to {
        let a = from.get(node).copied().unwrap_or_default();
        if b.closed_loop {
            let failed = b.aborted - a.aborted;
            ops.add(Ops {
                attempted: (b.completed - a.completed) + failed,
                failed,
            });
        } else {
            // Open loop: requests sent against replies received; one
            // request may be in flight across either boundary.
            let attempted = b.issued - a.issued;
            let completed = b.completed - a.completed;
            ops.add(Ops {
                attempted,
                failed: attempted.saturating_sub(completed + 1),
            });
        }
    }
    ops
}

/// Closed-loop operations in flight at `end` that never resolved
/// during the drain — stuck, so failed. Hosts scripted to leave are
/// exempt: their last request was abandoned by the host, not the net.
fn stuck_ops(
    end: &BTreeMap<NodeId, Progress>,
    drained: &BTreeMap<NodeId, Progress>,
    departing: &[NodeId],
) -> u64 {
    end.iter()
        .filter(|(node, p)| {
            let d = drained[*node];
            p.closed_loop
                && !departing.contains(node)
                && p.issued > p.completed + p.aborted
                && d.completed + d.aborted == p.completed + p.aborted
        })
        .count() as u64
}

/// Appends one closed-loop client's latency samples `from..to`, in
/// completion order (an SSH session keeps none).
fn push_samples(campus: &Campus, node: NodeId, from: usize, to: usize, out: &mut Vec<SimDuration>) {
    let world = &campus.world;
    if let Some(h) = world.try_node::<Host<HttpClient>>(node) {
        out.extend_from_slice(&h.app().latencies.samples()[from..to]);
    } else if let Some(h) = world.try_node::<Host<BlobClient>>(node) {
        out.extend_from_slice(&h.app().latencies[from..to]);
    }
}

/// `(p50, high percentile, which percentile that is, sample count)`.
/// The high percentile is p99 from 1 000 samples up; below that, the
/// highest percentile that still has ten samples beyond it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    pub p50_us: f64,
    pub high_us: f64,
    pub high_pct: f64,
    pub count: usize,
}

pub fn percentiles(mut samples: Vec<SimDuration>) -> Percentiles {
    samples.sort_unstable();
    let n = samples.len();
    if n == 0 {
        return Percentiles::default();
    }
    let at = |rank: usize| samples[rank.clamp(1, n) - 1].as_micros_f64();
    let high_rank = if n >= 1_000 {
        (n * 99).div_ceil(100)
    } else {
        n.saturating_sub(10).max(n.div_ceil(2))
    };
    Percentiles {
        p50_us: at(n.div_ceil(2)),
        high_us: at(high_rank),
        high_pct: 100.0 * high_rank as f64 / n as f64,
        count: n,
    }
}

/// The exact counters of group 3, read through public getters only.
/// Monotonic ones are reported as the measured window's increment.
pub fn counters(campus: &Campus, events: u64) -> BTreeMap<&'static str, u64> {
    let c: &Controller = campus.controller();
    let fast = c.fast_path_stats();
    let health = c.health_stats();
    // On a sharded plane the controller's own cache is retired and
    // every shard keeps one; the layer's figures are their sums.
    let caches: Vec<_> = match campus.shard_plane() {
        Some(plane) => plane
            .shard_stats()
            .into_iter()
            .filter_map(|s| s.cache)
            .collect(),
        None => vec![fast],
    };
    let mut out = BTreeMap::new();
    out.insert("sim.world.events", events);
    out.insert("core.controller.flow_setups", fast.flow_setups);
    out.insert("core.controller.batches", fast.batches_flushed);
    out.insert("core.controller.msgs_out", fast.messages_batched);
    out.insert("core.controller.audits", health.audits);
    out.insert("core.controller.resyncs", health.resyncs);
    out.insert(
        "core.controller.flows_reinstalled",
        health.flows_reinstalled,
    );
    out.insert("core.cache.hits", caches.iter().map(|s| s.hits).sum());
    out.insert("core.cache.misses", caches.iter().map(|s| s.misses).sum());
    out.insert("core.monitor.events", c.monitor().len() as u64);
    out.insert(
        "core.plane.handoffs",
        campus.shard_plane().map_or(0, |p| p.handoffs()),
    );
    out.insert(
        "core.accountability.attestations",
        c.accountability_stats().attestations_seen,
    );
    let (mut pkts, mut bytes, mut overload) = (0, 0, 0);
    for se in &campus.ses {
        let world = &campus.world;
        let k = if let Some(h) = world.try_node::<Host<ServiceElement<SignatureEngine>>>(se.node) {
            h.app().counters()
        } else {
            world
                .node::<Host<ServiceElement<ProtoIdEngine>>>(se.node)
                .app()
                .counters()
        };
        pkts += k.processed_packets;
        bytes += k.processed_bytes;
        overload += k.overload_drops;
    }
    out.insert("services.element.pkts", pkts);
    out.insert("services.element.bytes", bytes);
    out.insert("services.element.overload_drops", overload);
    out.insert("sim.link.drops", link_drops(campus));
    out
}

/// Gauges: read once, at the end of the measured window.
pub fn gauges(campus: &Campus) -> BTreeMap<&'static str, u64> {
    let c = campus.controller();
    let entries = match campus.shard_plane() {
        Some(plane) => plane
            .shard_stats()
            .into_iter()
            .filter_map(|s| s.cache)
            .map(|s| s.entries)
            .sum(),
        None => c.fast_path_stats().entries,
    };
    let mut out = BTreeMap::new();
    out.insert("core.controller.active_flows", c.active_flow_count() as u64);
    out.insert("core.cache.entries", entries);
    out.insert(
        "openflow.table.entries_max",
        (0..campus.as_switches.len())
            .map(|i| campus.switch(i).table().len() as u64)
            .max()
            .unwrap_or(0),
    );
    out
}

/// Frames dropped at any egress queue of the campus.
fn link_drops(campus: &Campus) -> u64 {
    let k = campus.world.kernel();
    // A flood also "drops" at every port nothing is plugged into;
    // only ports with a link have a queue to overflow.
    let ports_of = |nodes: &[NodeId], n_ports: u32| -> u64 {
        nodes
            .iter()
            .flat_map(|&n| (1..=n_ports).map(move |p| (n, PortId(p))))
            .filter(|&(n, p)| campus.world.peer_of(n, p).is_some())
            .map(|(n, p)| k.port_counters(n, p).drops)
            .sum()
    };
    let legacy_ports = (campus.as_switches.len() + campus.legacy.len() + 16) as u32;
    let hosts: Vec<NodeId> = campus
        .users
        .iter()
        .map(|u| u.node)
        .chain(campus.ses.iter().map(|s| s.node))
        .chain(campus.gateway.map(|g| g.node))
        .collect();
    let as_ports = campus.switch(0).n_ports();
    ports_of(&campus.as_switches, as_ports)
        + ports_of(&campus.legacy, legacy_ports)
        + ports_of(&hosts, 1)
}

/// Bytes delivered to end-host ports (users, servers, gateway): what
/// the campus's users received, SE hairpin traffic excluded.
pub fn delivered_bytes(campus: &Campus) -> u64 {
    let k = campus.world.kernel();
    campus
        .users
        .iter()
        .map(|u| u.node)
        .chain(campus.gateway.map(|g| g.node))
        .map(|n| k.port_counters(n, PortId(1)).rx_bytes)
        .sum()
}

/// FNV-1a over the monitor history with shard tags zeroed.
pub fn history_hash(campus: &Campus) -> u64 {
    let json = campus.controller().monitor().to_json_untagged();
    json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Readings taken at one cut of the measured window.
pub struct Reading {
    pub at: SimTime,
    pub progress: BTreeMap<NodeId, Progress>,
}

impl Reading {
    pub fn take(campus: &Campus) -> Self {
        Reading {
            at: campus.world.kernel().now(),
            progress: progress(campus),
        }
    }
}

/// What one rep produced, apart from host time.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub txn: Percentiles,
    pub first_pkt: Percentiles,
    pub goodput_mbps: f64,
    pub mitigation_ms: f64,
    /// Operations outside the fault phase: what the program owes
    /// (those that failed inside it are `workloads.fault_casualties`).
    pub ops: Ops,
    pub counters: BTreeMap<&'static str, u64>,
    pub history_hash: u64,
    /// Output checks; both must hold for the run to be correct.
    pub ses_offline: usize,
    pub attacker_blocked: bool,
}

/// Everything [`score`] needs from the run loop.
pub struct Run<'a> {
    pub built: &'a Built,
    /// Readings at every cut of the window, first = start, last = end.
    pub cuts: &'a [Reading],
    /// Reading after the drain.
    pub drained: &'a Reading,
    pub delivered_start: u64,
    pub delivered_end: u64,
    pub counters_start: BTreeMap<&'static str, u64>,
    pub counters_end: BTreeMap<&'static str, u64>,
    pub gauges_end: BTreeMap<&'static str, u64>,
}

pub fn score(run: Run<'_>) -> Outcome {
    let Run { built, cuts, .. } = run;
    let campus = &built.campus;
    let (start, end) = (&cuts[0], &cuts[cuts.len() - 1]);
    let window = end.at.since(start.at);
    let in_fault = |at: SimTime| {
        built
            .fault_phase
            .is_some_and(|(from, to)| at > from && at <= to)
    };

    // Client operations, stretch by stretch; a stretch that ends inside
    // the fault phase lies wholly inside it (the phase bounds are cuts).
    let (mut ops, mut casualties) = (Ops::default(), 0);
    for pair in cuts.windows(2) {
        let stretch = client_ops(&pair[0].progress, &pair[1].progress);
        if in_fault(pair[1].at) {
            casualties += stretch.failed;
            ops.attempted += stretch.attempted - stretch.failed;
        } else {
            ops.add(stretch);
        }
    }
    let stuck = stuck_ops(&end.progress, &run.drained.progress, &built.departing);
    ops.add(Ops {
        attempted: stuck,
        failed: stuck,
    });

    // Transaction latency: every sample completed inside the window.
    let mut txn = Vec::new();
    for (node, p1) in &end.progress {
        let p0 = start.progress.get(node).copied().unwrap_or_default();
        push_samples(
            campus,
            *node,
            p0.completed as usize,
            p1.completed as usize,
            &mut txn,
        );
    }

    // Probes, by send time: delivered (by the end of the drain) or lost.
    let in_window = |t: SimTime| t > start.at && t <= end.at;
    let mut first_pkt = Vec::new();
    // (sent, delivered) outside and inside the fault phase.
    let (mut healthy, mut faulty) = ((0u64, 0u64), (0u64, 0u64));
    for u in &campus.users {
        if let Some(h) = campus.world.try_node::<Host<Prober>>(u.node) {
            for &t in h.app().sent.iter().filter(|&&t| in_window(t)) {
                if in_fault(t) {
                    faulty.0 += 1;
                } else {
                    healthy.0 += 1;
                }
            }
        } else if let Some(h) = campus.world.try_node::<Host<ProbeSink>>(u.node) {
            for &(t, d) in h.app().arrivals.iter().filter(|(t, _)| in_window(*t)) {
                first_pkt.push(d);
                if in_fault(t) {
                    faulty.1 += 1;
                } else {
                    healthy.1 += 1;
                }
            }
        }
    }
    casualties += faulty.0 - faulty.1;
    ops.add(Ops {
        attempted: healthy.0 + faulty.1,
        failed: healthy.0 - healthy.1,
    });

    // The attacker: first malicious request -> first block. After the
    // block every request it sends is an operation, and one fails each
    // time the controller admits the attacker's flow again (a new
    // `FlowStart`) more than 100 ms after blocking it.
    let attack = built.attack;
    let monitor = campus.controller().monitor();
    let of_attacker = |flow: &livesec_net::FlowKey| flow.nw_src == attack.host.ip;
    let blocked_at = monitor.events().iter().find_map(|e| match &e.kind {
        EventKind::FlowBlocked { flow, .. } if of_attacker(flow) => Some(e.at),
        _ => None,
    });
    let mut mitigation_ms = 0.0;
    if let Some(blocked_at) = blocked_at {
        mitigation_ms = blocked_at
            .saturating_since(attack.first_malicious)
            .as_millis_f64();
        let step = attack.interval.as_nanos().max(1);
        let mut sent = attack.first_malicious;
        while sent <= end.at {
            if sent > blocked_at && sent > start.at && !in_fault(sent) {
                ops.attempted += 1;
            }
            sent += SimDuration::from_nanos(step);
        }
        let grace = SimDuration::from_millis(100);
        for e in monitor.events() {
            let readmission = e.at > blocked_at + grace
                && in_window(e.at)
                && matches!(&e.kind, EventKind::FlowStart { flow, .. } if of_attacker(flow));
            if readmission && in_fault(e.at) {
                casualties += 1;
            } else if readmission {
                ops.failed += 1;
            }
        }
    }
    let standing = campus
        .controller()
        .standing_blocks()
        .iter()
        .any(|(_, m)| m.dl_src == Some(attack.host.mac));

    let registry = campus.controller().registry();
    let ses_offline = campus
        .ses
        .iter()
        .filter(|se| !registry.get(se.mac).is_some_and(|v| v.online))
        .count();

    let mut counters: BTreeMap<&'static str, u64> = run
        .counters_end
        .iter()
        .map(|(k, v)| (*k, v - run.counters_start.get(k).copied().unwrap_or(0)))
        .collect();
    counters.extend(run.gauges_end);
    counters.insert("workloads.ops_attempted", ops.attempted);
    counters.insert("workloads.ops_failed", ops.failed);
    counters.insert("workloads.fault_casualties", casualties);

    Outcome {
        txn: percentiles(txn),
        first_pkt: percentiles(first_pkt),
        goodput_mbps: (run.delivered_end - run.delivered_start) as f64 * 8.0
            / 1e6
            / window.as_secs_f64(),
        mitigation_ms,
        ops,
        counters,
        history_hash: history_hash(campus),
        ses_offline,
        attacker_blocked: blocked_at.is_some() && standing,
    }
}
