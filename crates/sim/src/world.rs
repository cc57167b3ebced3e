//! The [`World`]: nodes, links, the event queue, and the run loop.

use crate::fault::{FaultKind, FaultPlan};
use crate::ids::{NodeId, PortId};
use crate::link::{LinkDir, LinkSpec, Offer};
use crate::node::{Ctx, Node};
use crate::time::{SimDuration, SimTime};
use livesec_net::Packet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// What happens when an event fires.
#[derive(Debug)]
enum EventKind {
    /// Deliver a frame to `node` on `port`.
    Frame {
        node: NodeId,
        port: PortId,
        pkt: Packet,
    },
    /// Fire a timer on `node`.
    Timer { node: NodeId, token: u64 },
    /// Deliver a control message to `node` from `peer`.
    Control {
        node: NodeId,
        peer: NodeId,
        bytes: Vec<u8>,
    },
    /// Apply a scheduled fault (see [`crate::fault::FaultPlan`]).
    Fault { kind: FaultKind },
}

struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Per-port traffic counters, readable after (or during) a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Frames transmitted out of this port.
    pub tx_frames: u64,
    /// Bytes transmitted out of this port (wire lengths).
    pub tx_bytes: u64,
    /// Frames received on this port.
    pub rx_frames: u64,
    /// Bytes received on this port.
    pub rx_bytes: u64,
    /// Frames dropped at this port's egress queue (or for lack of a link).
    pub drops: u64,
}

/// Port numbers below this get a dense slot per node. `PortId` is
/// caller-chosen, so anything beyond (a stray `PortId(u32::MAX)`, the
/// id of no node) is kept in an ordered side map instead: no id can
/// size an allocation.
const DENSE_PORTS: usize = 4096;

/// Everything the kernel keeps per `(node, port)`.
#[derive(Debug, Default)]
struct PortSlot {
    /// The outgoing direction of the link plugged into this port.
    link: Option<LinkDir>,
    counters: PortCounters,
    /// Flapped down by a fault; blocks both directions of the link.
    blocked: bool,
}

#[derive(Debug, Default)]
struct PortSlots {
    /// `dense[node][port]`, each node's row grown to the highest port
    /// number it has used.
    dense: Vec<Vec<PortSlot>>,
    sparse: BTreeMap<(NodeId, PortId), PortSlot>,
}

impl PortSlots {
    fn get(&self, node: NodeId, port: PortId) -> Option<&PortSlot> {
        let i = port.0 as usize;
        match self.dense.get(node.index()) {
            Some(row) if i < DENSE_PORTS => row.get(i),
            _ => self.sparse.get(&(node, port)),
        }
    }

    fn slot(&mut self, node: NodeId, port: PortId) -> &mut PortSlot {
        let i = port.0 as usize;
        match self.dense.get_mut(node.index()) {
            Some(row) if i < DENSE_PORTS => {
                if i >= row.len() {
                    row.resize_with(i + 1, PortSlot::default);
                }
                &mut row[i]
            }
            _ => self.sparse.entry((node, port)).or_default(),
        }
    }
}

/// Mutable simulation state shared by all nodes: clock, event queue,
/// links, RNG, counters.
pub struct Kernel {
    pub(crate) now: SimTime,
    queue: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    pub(crate) rng: StdRng,
    control_latency: SimDuration,
    ports: PortSlots,
    pub(crate) metrics: BTreeMap<&'static str, u64>,
    events_processed: u64,
    /// Nodes whose control channel is currently cut: messages to or
    /// from them vanish (counted in the `fault_control_dropped` metric).
    partitioned: BTreeSet<NodeId>,
    /// Per-sender budget of control frames still to corrupt.
    corrupt_budget: BTreeMap<NodeId, u32>,
    /// Dedicated RNG for fault effects — never shared with `rng`, so
    /// fault runs don't perturb unrelated random draws.
    fault_rng: StdRng,
    /// Every fault applied so far, in application order — the hook a
    /// dataplane auditor uses to re-verify invariants after each heal.
    fault_log: Vec<(SimTime, FaultKind)>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("queued_events", &self.queue.len())
            .field("nodes", &self.ports.dense.len())
            .finish_non_exhaustive()
    }
}

impl Kernel {
    fn push(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Event { at, seq, kind }));
    }

    /// Whether a fault has flapped the link at `(node, port)` down. A
    /// flap installed from either end blocks both directions.
    fn flapped(&self, node: NodeId, port: PortId) -> bool {
        let Some(own) = self.ports.get(node, port) else {
            return false;
        };
        let peer = own
            .link
            .as_ref()
            .and_then(|dir| self.ports.get(dir.to_node, dir.to_port));
        own.blocked || peer.is_some_and(|s| s.blocked)
    }

    pub(crate) fn transmit(&mut self, node: NodeId, port: PortId, pkt: Packet) {
        let bytes = pkt.wire_len();
        let flapped = self.flapped(node, port);
        let PortSlot { link, counters, .. } = self.ports.slot(node, port);
        if flapped {
            counters.drops += 1;
            *self.metrics.entry("fault_frames_blocked").or_insert(0) += 1;
            return;
        }
        let Some(dir) = link else {
            counters.drops += 1;
            return;
        };
        match dir.offer(self.now, bytes) {
            Offer::Deliver(at) => {
                let (to_node, to_port) = (dir.to_node, dir.to_port);
                counters.tx_frames += 1;
                counters.tx_bytes += bytes as u64;
                self.push(
                    at,
                    EventKind::Frame {
                        node: to_node,
                        port: to_port,
                        pkt,
                    },
                );
            }
            Offer::Drop => {
                counters.drops += 1;
            }
        }
    }

    pub(crate) fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        self.push(self.now + delay, EventKind::Timer { node, token });
    }

    pub(crate) fn send_control(&mut self, from: NodeId, to: NodeId, mut bytes: Vec<u8>) {
        if self.partitioned.contains(&from) || self.partitioned.contains(&to) {
            *self.metrics.entry("fault_control_dropped").or_insert(0) += 1;
            return;
        }
        if let Some(budget) = self.corrupt_budget.get_mut(&from) {
            if *budget > 0 && !bytes.is_empty() {
                *budget -= 1;
                let pos = self.fault_rng.gen_range(0..bytes.len());
                bytes[pos] ^= self.fault_rng.gen_range(1u8..=255);
                *self.metrics.entry("fault_control_corrupted").or_insert(0) += 1;
            }
        }
        self.push(
            self.now + self.control_latency,
            EventKind::Control {
                node: to,
                peer: from,
                bytes,
            },
        );
    }

    /// Counters for `(node, port)`; zeros if the port never saw traffic.
    pub fn port_counters(&self, node: NodeId, port: PortId) -> PortCounters {
        self.ports
            .get(node, port)
            .map(|s| s.counters)
            .unwrap_or_default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

/// Statistics from a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of events dispatched.
    pub events: u64,
    /// Simulated time at the end of the run.
    pub end: SimTime,
}

/// The simulation world: a set of [`Node`]s wired by links, plus the
/// shared [`Kernel`].
///
/// # Example
///
/// ```rust
/// use livesec_sim::prelude::*;
/// use livesec_net::prelude::*;
///
/// /// A node that echoes every frame back out of the port it came in on.
/// struct Echo;
/// impl Node for Echo {
///     fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
///         ctx.send(port, pkt);
///     }
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut world = World::new(42);
/// let a = world.add_node(Echo);
/// let b = world.add_node(Echo);
/// world.connect(a, PortId(1), b, PortId(1), LinkSpec::gigabit());
/// # let _ = world.run_for(SimDuration::from_millis(1));
/// ```
pub struct World {
    kernel: Kernel,
    nodes: Vec<Option<Box<dyn Node>>>,
    started: bool,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("kernel", &self.kernel)
            .field("nodes", &self.nodes.len())
            .field("started", &self.started)
            .finish()
    }
}

impl World {
    /// Creates an empty world with the given RNG seed and the default
    /// 100 µs control-channel latency.
    pub fn new(seed: u64) -> Self {
        World {
            kernel: Kernel {
                now: SimTime::ZERO,
                queue: BinaryHeap::new(),
                next_seq: 0,
                rng: StdRng::seed_from_u64(seed),
                control_latency: SimDuration::from_micros(100),
                ports: PortSlots::default(),
                metrics: BTreeMap::new(),
                events_processed: 0,
                partitioned: BTreeSet::new(),
                corrupt_budget: BTreeMap::new(),
                fault_rng: StdRng::seed_from_u64(seed ^ 0xfa_417),
                fault_log: Vec::new(),
            },
            nodes: Vec::new(),
            started: false,
        }
    }

    /// Sets the one-way latency of every control channel (the OpenFlow
    /// secure channel between switches and the controller).
    pub fn set_control_latency(&mut self, latency: SimDuration) {
        self.kernel.control_latency = latency;
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: impl Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(Box::new(node)));
        self.kernel.ports.dense.push(Vec::new());
        id
    }

    /// Replaces the node at `id` with another implementation, keeping
    /// the id (and thus all links and queued events) intact. Only
    /// legal before the simulation starts — swapping behaviour under a
    /// running event stream would not be a reproducible experiment.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the world has already started.
    pub fn replace_node(&mut self, id: NodeId, node: impl Node) {
        assert!(
            !self.started,
            "replace_node after the simulation started would fork history"
        );
        assert!(id.index() < self.nodes.len(), "unknown node {id}");
        self.nodes[id.index()] = Some(Box::new(node));
    }

    /// Connects `a.port_a` and `b.port_b` with a bidirectional link.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint already has a link on that port, or if
    /// a node id is unknown.
    pub fn connect(
        &mut self,
        a: NodeId,
        port_a: PortId,
        b: NodeId,
        port_b: PortId,
        spec: LinkSpec,
    ) {
        assert!(a.index() < self.nodes.len(), "unknown node {a}");
        assert!(b.index() < self.nodes.len(), "unknown node {b}");
        let fwd = self.kernel.ports.slot(a, port_a).link.replace(LinkDir {
            to_node: b,
            to_port: port_b,
            spec,
            busy_until: SimTime::ZERO,
        });
        assert!(fwd.is_none(), "port {a}.{port_a} already connected");
        let rev = self.kernel.ports.slot(b, port_b).link.replace(LinkDir {
            to_node: a,
            to_port: port_a,
            spec,
            busy_until: SimTime::ZERO,
        });
        assert!(rev.is_none(), "port {b}.{port_b} already connected");
    }

    /// Tears down the link attached to `(node, port)` (both
    /// directions). Frames already in flight still arrive; later sends
    /// into either endpoint drop. Returns `false` if no link was
    /// attached. This is the "unplug the cable" primitive behind VM
    /// migration and failure injection.
    pub fn disconnect(&mut self, node: NodeId, port: PortId) -> bool {
        let Some(dir) = self.kernel.ports.slot(node, port).link.take() else {
            return false;
        };
        self.kernel.ports.slot(dir.to_node, dir.to_port).link = None;
        true
    }

    /// Returns the `(node, port)` at the far end of the link attached
    /// to `(node, port)`, if any.
    pub fn peer_of(&self, node: NodeId, port: PortId) -> Option<(NodeId, PortId)> {
        let dir = self.kernel.ports.get(node, port)?.link.as_ref()?;
        Some((dir.to_node, dir.to_port))
    }

    /// Schedules an initial timer for `node` at absolute time `at`.
    pub fn schedule_timer_at(&mut self, node: NodeId, at: SimTime, token: u64) {
        self.kernel.push(at, EventKind::Timer { node, token });
    }

    /// Runs until the event queue is empty or simulated time exceeds
    /// `deadline`, whichever comes first. The clock ends at `deadline`
    /// even if the queue drained earlier, so repeated runs compose.
    pub fn run_until(&mut self, deadline: SimTime) -> RunStats {
        let stats = self.run_core(deadline);
        if deadline > self.kernel.now {
            self.kernel.now = deadline;
        }
        RunStats {
            end: self.kernel.now,
            ..stats
        }
    }

    fn run_core(&mut self, deadline: SimTime) -> RunStats {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                let id = NodeId(i as u32);
                self.with_node(id, |node, ctx| node.on_start(ctx));
            }
        }
        while let Some(Reverse(ev)) = self.kernel.queue.peek() {
            if ev.at > deadline {
                break;
            }
            let Reverse(ev) = self.kernel.queue.pop().expect("peeked");
            self.kernel.now = ev.at;
            self.kernel.events_processed += 1;
            match ev.kind {
                EventKind::Frame { node, port, pkt } => {
                    let bytes = pkt.wire_len() as u64;
                    let c = &mut self.kernel.ports.slot(node, port).counters;
                    c.rx_frames += 1;
                    c.rx_bytes += bytes;
                    self.with_node(node, |n, ctx| n.on_frame(ctx, port, pkt));
                }
                EventKind::Timer { node, token } => {
                    self.with_node(node, |n, ctx| n.on_timer(ctx, token));
                }
                EventKind::Control { node, peer, bytes } => {
                    self.with_node(node, |n, ctx| n.on_control(ctx, peer, &bytes));
                }
                EventKind::Fault { kind } => self.apply_fault(kind),
            }
        }
        RunStats {
            events: self.kernel.events_processed,
            end: self.kernel.now,
        }
    }

    /// Installs a [`FaultPlan`]: every scheduled fault becomes an
    /// ordinary event in the queue, and the plan's seed (re)seeds the
    /// dedicated corruption RNG. Faults scheduled in the past are
    /// rejected with a panic in debug builds, like any other event.
    ///
    /// # Panics
    ///
    /// Panics if [`FaultPlan::validate`] rejects the plan (e.g. a
    /// `HealControl` with no matching partition).
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        self.kernel.fault_rng = StdRng::seed_from_u64(plan.seed);
        for ev in &plan.events {
            self.kernel.push(ev.at, EventKind::Fault { kind: ev.kind });
        }
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        self.kernel.fault_log.push((self.kernel.now, kind));
        match kind {
            FaultKind::PartitionControl { node } => {
                self.kernel.partitioned.insert(node);
                *self.kernel.metrics.entry("fault_partitions").or_insert(0) += 1;
            }
            FaultKind::HealControl { node } => {
                self.kernel.partitioned.remove(&node);
            }
            FaultKind::LinkDown { node, port } => {
                self.kernel.ports.slot(node, port).blocked = true;
                *self.kernel.metrics.entry("fault_link_flaps").or_insert(0) += 1;
            }
            FaultKind::LinkUp { node, port } => {
                self.kernel.ports.slot(node, port).blocked = false;
            }
            FaultKind::CrashRestart { node } => {
                *self
                    .kernel
                    .metrics
                    .entry("fault_crash_restarts")
                    .or_insert(0) += 1;
                self.with_node(node, |n, ctx| n.on_crash_restart(ctx));
            }
            FaultKind::CorruptControl { node, count } => {
                *self.kernel.corrupt_budget.entry(node).or_insert(0) += count;
            }
            FaultKind::ShardDown { node, shard } => {
                *self.kernel.metrics.entry("fault_shard_downs").or_insert(0) += 1;
                self.with_node(node, |n, ctx| n.on_shard_down(ctx, shard));
            }
            FaultKind::RuleTamper { node } => {
                let salt: u64 = self.kernel.fault_rng.gen::<u64>();
                *self.kernel.metrics.entry("fault_rule_tampers").or_insert(0) += 1;
                self.with_node(node, |n, ctx| n.on_rule_tamper(ctx, salt));
            }
            FaultKind::SilentMisforward { node } => {
                let salt: u64 = self.kernel.fault_rng.gen::<u64>();
                *self.kernel.metrics.entry("fault_misforwards").or_insert(0) += 1;
                self.with_node(node, |n, ctx| n.on_misforward(ctx, salt));
            }
            FaultKind::PacketInject { node } => {
                let salt: u64 = self.kernel.fault_rng.gen::<u64>();
                *self
                    .kernel
                    .metrics
                    .entry("fault_packet_injects")
                    .or_insert(0) += 1;
                self.with_node(node, |n, ctx| n.on_packet_inject(ctx, salt));
            }
        }
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) -> RunStats {
        let deadline = self.kernel.now + d;
        self.run_until(deadline)
    }

    /// Runs until the event queue drains completely, leaving the clock
    /// at the last event (careful: periodic timers make this never
    /// return).
    pub fn run_to_quiescence(&mut self) -> RunStats {
        self.run_core(SimTime::from_nanos(u64::MAX))
    }

    fn with_node<R>(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>) -> R) -> R {
        let mut node = self.nodes[id.index()]
            .take()
            .unwrap_or_else(|| panic!("node {id} re-entered"));
        let mut ctx = Ctx {
            kernel: &mut self.kernel,
            node: id,
        };
        let r = f(node.as_mut(), &mut ctx);
        self.nodes[id.index()] = Some(node);
        r
    }

    /// Borrows a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the type does not match.
    pub fn node<T: Node>(&self, id: NodeId) -> &T {
        self.nodes[id.index()]
            .as_ref()
            .expect("node busy")
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutably borrows a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the type does not match.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.index()]
            .as_mut()
            .expect("node busy")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Borrows a node downcast to `T`, or `None` if the node is of a
    /// different concrete type (unlike [`World::node`], which panics).
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn try_node<T: Node>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id.index()]
            .as_ref()
            .expect("node busy")
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably borrows a node downcast to `T`, or `None` on a type
    /// mismatch (unlike [`World::node_mut`], which panics).
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn try_node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.index()]
            .as_mut()
            .expect("node busy")
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Read access to kernel state (time, port counters).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Every fault applied so far, in application order. A dataplane
    /// auditor hooks here: each [`FaultKind::HealControl`],
    /// [`FaultKind::LinkUp`], or [`FaultKind::CrashRestart`] entry
    /// marks a moment after which the forwarding state must converge
    /// back to policy, so audits re-run after every logged heal.
    pub fn fault_log(&self) -> &[(SimTime, FaultKind)] {
        &self.kernel.fault_log
    }

    /// The times of faults after which the network is expected to
    /// *recover* (heals, link-ups, crash-restarts) — the audit points
    /// of the chaos suite's post-heal verification hook.
    pub fn heal_times(&self) -> Vec<SimTime> {
        self.kernel
            .fault_log
            .iter()
            .filter(|(_, k)| {
                matches!(
                    k,
                    FaultKind::HealControl { .. }
                        | FaultKind::LinkUp { .. }
                        | FaultKind::CrashRestart { .. }
                )
            })
            .map(|(t, _)| *t)
            .collect()
    }

    /// Value of a named scalar metric recorded via
    /// [`crate::node::Ctx::count`].
    pub fn metric(&self, name: &str) -> u64 {
        self.kernel.metrics.get(name).copied().unwrap_or(0)
    }

    /// Number of nodes in the world.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_net::prelude::*;
    use std::any::Any;

    /// Counts frames and echoes them back.
    struct Echo {
        seen: u64,
    }

    impl Node for Echo {
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
            self.seen += 1;
            if self.seen < 5 {
                ctx.send(port, pkt);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends one frame at start, counts echoes.
    struct Pinger {
        got: u64,
        sent_at: SimTime,
        rtt: Option<SimDuration>,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.sent_at = ctx.now();
            let pkt = PacketBuilder::udp(MacAddr::from_u64(1), MacAddr::from_u64(2))
                .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
                .ports(1, 2)
                .payload_len(100)
                .build();
            ctx.send(PortId(1), pkt);
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {
            self.got += 1;
            self.rtt = Some(ctx.now().since(self.sent_at));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut world = World::new(1);
        let p = world.add_node(Pinger {
            got: 0,
            sent_at: SimTime::ZERO,
            rtt: None,
        });
        let e = world.add_node(Echo { seen: 0 });
        world.connect(p, PortId(1), e, PortId(1), LinkSpec::gigabit());
        world.run_for(SimDuration::from_millis(10));
        let pinger = world.node::<Pinger>(p);
        assert_eq!(pinger.got, 1);
        // RTT = 2 * (tx + prop). 164-byte frame at 1 Gbps = 1.312us tx.
        let rtt = pinger.rtt.unwrap();
        assert!(rtt > SimDuration::from_micros(10), "rtt = {rtt}");
        assert!(rtt < SimDuration::from_micros(20), "rtt = {rtt}");
        assert_eq!(world.node::<Echo>(e).seen, 1);
    }

    #[test]
    fn counters_track_traffic() {
        let mut world = World::new(1);
        let p = world.add_node(Pinger {
            got: 0,
            sent_at: SimTime::ZERO,
            rtt: None,
        });
        let e = world.add_node(Echo { seen: 0 });
        world.connect(p, PortId(1), e, PortId(1), LinkSpec::gigabit());
        world.run_for(SimDuration::from_millis(1));
        let k = world.kernel();
        assert_eq!(k.port_counters(p, PortId(1)).tx_frames, 1);
        assert_eq!(k.port_counters(e, PortId(1)).rx_frames, 1);
        assert_eq!(k.port_counters(e, PortId(1)).tx_frames, 1);
        assert_eq!(k.port_counters(p, PortId(1)).rx_frames, 1);
    }

    #[test]
    fn unconnected_port_drops() {
        let mut world = World::new(1);
        let p = world.add_node(Pinger {
            got: 0,
            sent_at: SimTime::ZERO,
            rtt: None,
        });
        world.run_for(SimDuration::from_millis(1));
        assert_eq!(world.kernel().port_counters(p, PortId(1)).drops, 1);
        assert_eq!(world.node::<Pinger>(p).got, 0);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut world = World::new(1);
        let a = world.add_node(Echo { seen: 0 });
        let b = world.add_node(Echo { seen: 0 });
        world.connect(a, PortId(1), b, PortId(1), LinkSpec::gigabit());
        world.connect(a, PortId(1), b, PortId(2), LinkSpec::gigabit());
    }

    #[test]
    fn peer_of_reports_topology() {
        let mut world = World::new(1);
        let a = world.add_node(Echo { seen: 0 });
        let b = world.add_node(Echo { seen: 0 });
        world.connect(a, PortId(3), b, PortId(7), LinkSpec::gigabit());
        assert_eq!(world.peer_of(a, PortId(3)), Some((b, PortId(7))));
        assert_eq!(world.peer_of(b, PortId(7)), Some((a, PortId(3))));
        assert_eq!(world.peer_of(a, PortId(9)), None);
    }

    /// Sends one 100-byte frame out of `port` every millisecond.
    struct Ticker {
        port: PortId,
    }

    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let pkt = PacketBuilder::udp(MacAddr::from_u64(1), MacAddr::from_u64(2))
                .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
                .ports(1, 2)
                .payload_len(100)
                .build();
            ctx.send(self.port, pkt);
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Tickers send on the millisecond; faults and deadlines sit on
    /// the half millisecond between two sends.
    fn us(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000)
    }

    /// Two tickers facing each other, so both directions carry a frame
    /// a millisecond: `(world, a, b)`.
    fn ticker_pair() -> (World, NodeId, NodeId) {
        let mut world = World::new(1);
        let a = world.add_node(Ticker { port: PortId(1) });
        let b = world.add_node(Ticker { port: PortId(4) });
        world.connect(a, PortId(1), b, PortId(4), LinkSpec::gigabit());
        (world, a, b)
    }

    #[test]
    fn flap_from_either_end_blocks_both_directions() {
        for from_a in [true, false] {
            let (mut world, a, b) = ticker_pair();
            let (node, port) = if from_a {
                (a, PortId(1))
            } else {
                (b, PortId(4))
            };
            let plan = FaultPlan::new(1)
                .at(us(10_500), FaultKind::LinkDown { node, port })
                .at(us(20_500), FaultKind::LinkUp { node, port });
            world.install_fault_plan(&plan);
            world.run_until(us(30_500));
            // 30 sends a side: ten before the flap, ten into it, ten after.
            let k = world.kernel();
            for (tx, tx_port, rx, rx_port) in
                [(a, PortId(1), b, PortId(4)), (b, PortId(4), a, PortId(1))]
            {
                let sent = k.port_counters(tx, tx_port);
                assert_eq!(
                    (sent.tx_frames, sent.drops),
                    (20, 10),
                    "flap from_a={from_a}"
                );
                assert_eq!(k.port_counters(rx, rx_port).rx_frames, 20);
            }
            assert_eq!(world.metric("fault_frames_blocked"), 20);
            assert_eq!(world.metric("fault_link_flaps"), 1);
        }
    }

    #[test]
    fn flaps_from_both_ends_need_both_link_ups() {
        let (mut world, a, b) = ticker_pair();
        let plan = FaultPlan::new(1)
            .at(
                us(5_500),
                FaultKind::LinkDown {
                    node: a,
                    port: PortId(1),
                },
            )
            .at(
                us(5_500),
                FaultKind::LinkDown {
                    node: b,
                    port: PortId(4),
                },
            )
            .at(
                us(10_500),
                FaultKind::LinkUp {
                    node: a,
                    port: PortId(1),
                },
            )
            .at(
                us(15_500),
                FaultKind::LinkUp {
                    node: b,
                    port: PortId(4),
                },
            );
        world.install_fault_plan(&plan);
        world.run_until(us(20_500));
        // Down from 5.5 to 15.5 ms: the first LinkUp leaves b's flap in place.
        let sent = world.kernel().port_counters(a, PortId(1));
        assert_eq!((sent.tx_frames, sent.drops), (10, 10));
    }

    #[test]
    fn blocked_unplugged_port_counts_a_blocked_drop() {
        // A flapped port with no cable: the flap is checked first, so
        // the frame counts as blocked (metric) and as a drop (port).
        let mut world = World::new(1);
        let a = world.add_node(Ticker { port: PortId(2) });
        let plan = FaultPlan::new(1).at(
            SimTime::ZERO,
            FaultKind::LinkDown {
                node: a,
                port: PortId(2),
            },
        );
        world.install_fault_plan(&plan);
        world.run_until(us(3_500));
        assert_eq!(world.kernel().port_counters(a, PortId(2)).drops, 3);
        assert_eq!(world.metric("fault_frames_blocked"), 3);
    }

    #[test]
    fn disconnect_then_reconnect_elsewhere() {
        let (mut world, a, b) = ticker_pair();
        let c = world.add_node(Echo { seen: 0 });
        world.run_until(us(2_500));
        assert!(
            world.disconnect(b, PortId(4)),
            "either end unplugs the cable"
        );
        assert!(!world.disconnect(a, PortId(1)), "already gone");
        assert_eq!(world.peer_of(a, PortId(1)), None);
        assert_eq!(world.peer_of(b, PortId(4)), None);
        world.run_until(us(4_500));
        let unplugged = world.kernel().port_counters(a, PortId(1));
        assert_eq!((unplugged.tx_frames, unplugged.drops), (2, 2));

        // The freed port takes a new cable; its counters carry on.
        world.connect(a, PortId(1), c, PortId(7), LinkSpec::gigabit());
        assert_eq!(world.peer_of(c, PortId(7)), Some((a, PortId(1))));
        world.run_until(us(6_500));
        let replugged = world.kernel().port_counters(a, PortId(1));
        assert_eq!((replugged.tx_frames, replugged.drops), (4, 2));
        assert_eq!(world.kernel().port_counters(c, PortId(7)).rx_frames, 2);
        assert_eq!(world.kernel().port_counters(b, PortId(4)).drops, 4);
    }

    #[test]
    fn stray_port_ids_are_counted_without_sizing_an_allocation() {
        let mut world = World::new(1);
        let far = PortId(u32::MAX);
        let a = world.add_node(Ticker { port: far });
        let b = world.add_node(Ticker {
            port: PortId(DENSE_PORTS as u32),
        });
        world.run_until(us(3_500));
        assert_eq!(world.kernel().port_counters(a, far).drops, 3);
        assert_eq!(
            world
                .kernel()
                .port_counters(b, PortId(DENSE_PORTS as u32))
                .drops,
            3
        );
        // Neither port grew a dense row; each is one side-map entry.
        let slots = &world.kernel().ports;
        assert!(slots.dense.iter().all(Vec::is_empty));
        assert_eq!(slots.sparse.len(), 2);
        // Ids of no node, from a fault plan or a caller, read as zeros
        // and flap without a panic.
        let ghost = NodeId::from_index(99);
        let plan = FaultPlan::new(1).at(
            us(4_000),
            FaultKind::LinkDown {
                node: ghost,
                port: far,
            },
        );
        world.install_fault_plan(&plan);
        world.run_until(us(5_000));
        assert_eq!(
            world.kernel().port_counters(ghost, PortId(1)),
            PortCounters::default()
        );
        assert_eq!(world.peer_of(ghost, far), None);
        // A cable on a stray port still works like any other.
        world.connect(a, far, b, PortId(1), LinkSpec::gigabit());
        world.run_until(us(7_500));
        let cabled = world.kernel().port_counters(a, far);
        assert_eq!((cabled.tx_frames, cabled.drops), (2, 5));
        assert_eq!(world.kernel().port_counters(b, PortId(1)).rx_frames, 2);
    }

    #[test]
    fn time_advances_to_deadline() {
        let mut world = World::new(1);
        world.run_for(SimDuration::from_secs(2));
        assert_eq!(world.kernel().now(), SimTime::from_nanos(2_000_000_000));
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = |seed| {
            let mut world = World::new(seed);
            let p = world.add_node(Pinger {
                got: 0,
                sent_at: SimTime::ZERO,
                rtt: None,
            });
            let e = world.add_node(Echo { seen: 0 });
            world.connect(p, PortId(1), e, PortId(1), LinkSpec::gigabit());
            let stats = world.run_for(SimDuration::from_millis(5));
            (stats.events, world.node::<Pinger>(p).rtt)
        };
        assert_eq!(run(7), run(7));
    }

    /// Timers fire in order even when armed out of order.
    struct TimerOrder {
        fired: Vec<u64>,
    }

    impl Node for TimerOrder {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(3), 3);
            ctx.set_timer(SimDuration::from_millis(1), 1);
            ctx.set_timer(SimDuration::from_millis(2), 2);
            ctx.set_timer(SimDuration::from_millis(1), 11); // tie: FIFO by seq
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
            self.fired.push(token);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timer_ordering_with_fifo_ties() {
        let mut world = World::new(1);
        let n = world.add_node(TimerOrder { fired: vec![] });
        world.run_for(SimDuration::from_millis(10));
        assert_eq!(world.node::<TimerOrder>(n).fired, vec![1, 11, 2, 3]);
    }

    /// Control-channel message exchange.
    struct CtlEcho {
        inbox: Vec<Vec<u8>>,
    }

    impl Node for CtlEcho {
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
        fn on_control(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, bytes: &[u8]) {
            self.inbox.push(bytes.to_vec());
            if bytes != b"ack" {
                ctx.send_control(peer, b"ack".to_vec());
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct CtlSender {
        peer: Option<NodeId>,
        acked: bool,
    }

    impl Node for CtlSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(peer) = self.peer {
                ctx.send_control(peer, b"hello".to_vec());
            }
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
        fn on_control(&mut self, _ctx: &mut Ctx<'_>, _peer: NodeId, bytes: &[u8]) {
            if bytes == b"ack" {
                self.acked = true;
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn control_channel_delivers_with_latency() {
        let mut world = World::new(1);
        let e = world.add_node(CtlEcho { inbox: vec![] });
        let s = world.add_node(CtlSender {
            peer: Some(e),
            acked: false,
        });
        world.set_control_latency(SimDuration::from_micros(250));
        world.run_for(SimDuration::from_millis(1));
        assert_eq!(world.node::<CtlEcho>(e).inbox, vec![b"hello".to_vec()]);
        assert!(world.node::<CtlSender>(s).acked);
    }

    #[test]
    fn metrics_accumulate() {
        struct M;
        impl Node for M {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.count("things", 2);
                ctx.count("things", 3);
            }
            fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut world = World::new(1);
        world.add_node(M);
        world.run_for(SimDuration::from_millis(1));
        assert_eq!(world.metric("things"), 5);
        assert_eq!(world.metric("missing"), 0);
    }

    /// Records tamper-family fault hooks in invocation order.
    struct FaultProbe {
        hooks: Vec<&'static str>,
    }

    impl Node for FaultProbe {
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
        fn on_rule_tamper(&mut self, _ctx: &mut Ctx<'_>, _salt: u64) {
            self.hooks.push("tamper");
        }
        fn on_misforward(&mut self, _ctx: &mut Ctx<'_>, _salt: u64) {
            self.hooks.push("misforward");
        }
        fn on_packet_inject(&mut self, _ctx: &mut Ctx<'_>, _salt: u64) {
            self.hooks.push("inject");
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Two faults scheduled at the *same* SimTime fire in plan order:
    /// the event queue breaks ties FIFO by insertion sequence, so the
    /// order faults were pushed into the plan is the order they apply.
    #[test]
    fn same_time_faults_fire_in_plan_order() {
        let t = SimTime::from_nanos(1_000_000);
        let run = |first: fn(NodeId) -> FaultKind, second: fn(NodeId) -> FaultKind| {
            let mut world = World::new(1);
            let n = world.add_node(FaultProbe { hooks: vec![] });
            let plan = FaultPlan::new(7).at(t, first(n)).at(t, second(n));
            world.install_fault_plan(&plan);
            world.run_for(SimDuration::from_millis(2));
            let log: Vec<FaultKind> = world
                .fault_log()
                .iter()
                .map(|&(at, k)| {
                    assert_eq!(at, t);
                    k
                })
                .collect();
            (world.node::<FaultProbe>(n).hooks.clone(), log)
        };

        let fwd = run(
            |n| FaultKind::RuleTamper { node: n },
            |n| FaultKind::PacketInject { node: n },
        );
        assert_eq!(fwd.0, vec!["tamper", "inject"]);

        // Swapping the plan order swaps the application order — the
        // tiebreak is insertion sequence, not fault kind.
        let rev = run(
            |n| FaultKind::PacketInject { node: n },
            |n| FaultKind::RuleTamper { node: n },
        );
        assert_eq!(rev.0, vec!["inject", "tamper"]);
        assert_ne!(fwd.1, rev.1);
    }

    #[test]
    fn tamper_faults_draw_salt_and_count_metrics() {
        let mut world = World::new(1);
        let n = world.add_node(FaultProbe { hooks: vec![] });
        let plan = FaultPlan::new(3)
            .at(SimTime::from_nanos(10), FaultKind::RuleTamper { node: n })
            .at(
                SimTime::from_nanos(20),
                FaultKind::SilentMisforward { node: n },
            )
            .at(SimTime::from_nanos(30), FaultKind::PacketInject { node: n });
        world.install_fault_plan(&plan);
        world.run_for(SimDuration::from_millis(1));
        assert_eq!(
            world.node::<FaultProbe>(n).hooks,
            vec!["tamper", "misforward", "inject"]
        );
        assert_eq!(world.metric("fault_rule_tampers"), 1);
        assert_eq!(world.metric("fault_misforwards"), 1);
        assert_eq!(world.metric("fault_packet_injects"), 1);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn installing_unmatched_heal_panics() {
        let mut world = World::new(1);
        let n = world.add_node(FaultProbe { hooks: vec![] });
        let plan =
            FaultPlan::new(1).at(SimTime::from_nanos(10), FaultKind::HealControl { node: n });
        world.install_fault_plan(&plan);
    }
}
