//! The [`World`]: nodes, links, the event queue, and the run loop.

use crate::fault::{FaultKind, FaultPlan, FaultPlanError};
use crate::ids::{NodeId, PortId};
use crate::link::{LinkDir, LinkSpec, Offer};
use crate::node::{Ctx, Node};
use crate::time::{SimDuration, SimTime};
use livesec_net::Packet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::mem::ManuallyDrop;

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

/// An event's place in the firing order: time, then push order (ties
/// fire FIFO). `seq` is unique, so the payload's `slot` never decides.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// Payload slots per slab chunk: ~11 KiB, one chunk for a workload whose
/// queue stays near a hundred events.
const CHUNK: usize = 128;

/// Slab slots the queue keeps whatever it holds (16 chunks, ~176 KiB):
/// at or below it the queue never compacts, so the data-plane
/// workloads' one to four chunks, and a burst that drains and comes
/// back, keep their chunks.
const FLOOR: usize = 16 * CHUNK;
// Above the floor a quarter of the slots is less than all but the last
// chunk, so compaction keeps only full chunks.
const _: () = assert!(FLOOR >= CHUNK);

/// One payload slot: a pending event, or a link of the free list. A
/// payload leaves its slot only by [`Queue::pop`], compaction or the
/// queue's drop, so a freed chunk is one deallocation that reads none
/// of its slots.
enum Slot {
    Vacant(Option<u32>),
    Full(ManuallyDrop<EventKind>),
}

/// The pending events: a min-heap of 24-byte [`Key`]s over a slab of
/// payloads in [`CHUNK`]-slot chunks. Vacated slots are reused first,
/// so a chunk is added only when every slot is full. When a `run_until`
/// returns, [`Queue::trim`] compacts the slab and the keys down to what
/// is pending if fewer events than a quarter of the slots (above
/// [`FLOOR`]) remain.
#[derive(Default)]
struct Queue {
    keys: BinaryHeap<Reverse<Key>>,
    chunks: Vec<Vec<Slot>>,
    /// Head of the vacant-slot list.
    free: Option<u32>,
    next_seq: u64,
}

impl Queue {
    fn slot_mut(&mut self, slot: u32) -> &mut Slot {
        let i = slot as usize;
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }

    /// Payload slots the slab holds, vacant or full.
    fn slots(&self) -> usize {
        self.chunks.len() * CHUNK
    }

    /// Whether the slab holds at most four slots per pending event plus
    /// a chunk, or the floor: DESIGN.md §4's memory bound, which holds
    /// after every [`Queue::trim`].
    fn within_bound(&self) -> bool {
        self.slots() <= (4 * self.keys.len() + CHUNK).max(FLOOR)
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        let slot = match self.free {
            Some(slot) => {
                let full = Slot::Full(ManuallyDrop::new(kind));
                let Slot::Vacant(next) = std::mem::replace(self.slot_mut(slot), full) else {
                    unreachable!("the free list holds only vacant slots");
                };
                self.free = next;
                slot
            }
            None => {
                if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
                    // Only when every slot is full: vacated slots are
                    // reused first.
                    self.chunks.push(Vec::with_capacity(CHUNK));
                }
                let n = self.chunks.len() - 1;
                self.chunks[n].push(Slot::Full(ManuallyDrop::new(kind)));
                (n * CHUNK + self.chunks[n].len() - 1) as u32
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.keys.push(Reverse(Key { at, seq, slot }));
    }

    fn peek_at(&self) -> Option<SimTime> {
        self.keys.peek().map(|Reverse(key)| key.at)
    }

    fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let Reverse(Key { at, slot, .. }) = self.keys.pop()?;
        let next = self.free.replace(slot);
        match std::mem::replace(self.slot_mut(slot), Slot::Vacant(next)) {
            Slot::Full(kind) => Some((at, ManuallyDrop::into_inner(kind))),
            Slot::Vacant(_) => unreachable!("a queued key names a vacant slot"),
        }
    }

    /// Compacts once fewer events are pending than a quarter of the
    /// slots, above [`FLOOR`]. Checked once per `run_until`, off the
    /// per-event path, so a burst that drains and refills within one
    /// run keeps its chunks.
    fn trim(&mut self) {
        let slots = self.slots();
        if slots > FLOOR && self.keys.len() < slots / 4 {
            self.compact();
        }
    }

    /// Moves every pending payload into the slab's first
    /// `⌈pending / CHUNK⌉` chunks, frees the rest, and rebuilds the key
    /// heap over the new slots in storage sized for them. Firing order
    /// is `(at, seq)`, which no slot decides, so it cannot change. Costs
    /// O(slots), and runs only once pending events fall below a quarter
    /// of the slots, so compactions shrink geometrically.
    #[cold]
    fn compact(&mut self) {
        let keep = self.keys.len().div_ceil(CHUNK);
        let end = (keep * CHUNK) as u32;
        let mut keys = std::mem::take(&mut self.keys).into_vec();
        // Each payload beyond the kept chunks moves to the next vacant
        // kept slot: there is one for each, and the kept chunks are
        // full-length.
        let mut hole = 0;
        for Reverse(key) in keys.iter_mut().filter(|Reverse(key)| key.slot >= end) {
            while matches!(self.slot_mut(hole), Slot::Full(_)) {
                hole += 1;
            }
            let full = std::mem::replace(self.slot_mut(key.slot), Slot::Vacant(None));
            *self.slot_mut(hole) = full;
            key.slot = hole;
        }
        self.chunks.truncate(keep);
        self.chunks.shrink_to_fit();
        // Holes were filled in slot order, so every vacant slot is at
        // or past the last one filled.
        let mut free = None;
        for slot in (hole..end).rev() {
            if let Slot::Vacant(next) = self.slot_mut(slot) {
                *next = free;
                free = Some(slot);
            }
        }
        self.free = free;
        keys.shrink_to(self.slots());
        self.keys = BinaryHeap::from(keys);
    }
}

impl Drop for Queue {
    /// Drops the payloads still pending: a slot does not drop its own.
    fn drop(&mut self) {
        for Reverse(key) in std::mem::take(&mut self.keys) {
            if let Slot::Full(kind) = std::mem::replace(self.slot_mut(key.slot), Slot::Vacant(None))
            {
                drop(ManuallyDrop::into_inner(kind));
            }
        }
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

/// Most emptied control payloads the kernel keeps for reuse. With
/// [`SPARE_CAP`], chosen by a sweep over the e2e workloads
/// (EXPERIMENTS.md E38): fewer or smaller buffers save fewer
/// allocations, more or larger ones cost peak heap.
const SPARE_BUFS: usize = 256;
/// A delivered payload with more capacity than this is freed, not kept:
/// a kept buffer serves any message, so an outsized batch or stats
/// reply kept would hold its peak for the rest of the run.
const SPARE_CAP: usize = 1024;

/// Mutable simulation state shared by all nodes: clock, event queue,
/// links, RNG, counters.
pub struct Kernel {
    pub(crate) now: SimTime,
    queue: Queue,
    pub(crate) rng: StdRng,
    control_latency: SimDuration,
    ports: PortSlots,
    metrics: BTreeMap<&'static str, u64>,
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
    /// Emptied control payloads, most recently freed last: a sender's
    /// [`Ctx::control_buf`] takes the top one. Sized for [`SPARE_BUFS`]
    /// up front, so keeping a buffer never allocates.
    spare: Vec<Vec<u8>>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("queued_events", &self.queue.keys.len())
            .field("nodes", &self.ports.dense.len())
            .finish_non_exhaustive()
    }
}

impl Kernel {
    fn push(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, kind);
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

    /// Whether `(node, port)` has no cable and no fault holding it
    /// down: a frame sent there would only count a drop.
    pub(crate) fn unplugged(&self, node: NodeId, port: PortId) -> bool {
        self.ports
            .get(node, port)
            .is_none_or(|s| s.link.is_none() && !s.blocked)
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
            self.recycle(bytes);
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

    /// An empty buffer for the next control payload: the most recently
    /// emptied one, or a new one with no capacity if none is kept.
    pub(crate) fn control_buf(&mut self) -> Vec<u8> {
        self.spare.pop().unwrap_or_default()
    }

    /// Keeps an emptied control payload for [`Kernel::control_buf`],
    /// unless it is outsized or the spares are full. Out of line, so
    /// the run loop's frame arm compiles as it would without it.
    #[inline(never)]
    fn recycle(&mut self, mut bytes: Vec<u8>) {
        let cap = bytes.capacity();
        if cap > 0 && cap <= SPARE_CAP && self.spare.len() < SPARE_BUFS {
            bytes.clear();
            self.spare.push(bytes);
        }
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
                queue: Queue::default(),
                rng: StdRng::seed_from_u64(seed),
                control_latency: SimDuration::from_micros(100),
                ports: PortSlots::default(),
                metrics: BTreeMap::new(),
                events_processed: 0,
                partitioned: BTreeSet::new(),
                corrupt_budget: BTreeMap::new(),
                fault_rng: StdRng::seed_from_u64(seed ^ 0xfa_417),
                fault_log: Vec::new(),
                spare: Vec::with_capacity(SPARE_BUFS),
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
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulated time.
    pub fn schedule_timer_at(&mut self, node: NodeId, at: SimTime, token: u64) {
        let now = self.kernel.now;
        assert!(at >= now, "timer at {at} is before the clock ({now})");
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
        while self.kernel.queue.peek_at().is_some_and(|at| at <= deadline) {
            let (at, kind) = self.kernel.queue.pop().expect("peeked");
            self.kernel.now = at;
            self.kernel.events_processed += 1;
            match kind {
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
                    self.kernel.recycle(bytes);
                }
                EventKind::Fault { kind } => self.apply_fault(kind),
            }
        }
        self.kernel.queue.trim();
        RunStats {
            events: self.kernel.events_processed,
            end: self.kernel.now,
        }
    }

    /// Installs a [`FaultPlan`]: every scheduled fault becomes an
    /// ordinary event in the queue, and the plan's seed (re)seeds the
    /// dedicated corruption RNG. A refused plan leaves the world as it
    /// was.
    ///
    /// # Errors
    ///
    /// Whatever [`FaultPlan::validate`] rejects (a `HealControl` with no
    /// matching partition), and [`FaultPlanError::BeforeClock`] for the
    /// first fault scheduled before the current simulated time.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), FaultPlanError> {
        plan.validate()?;
        let now = self.kernel.now;
        if let Some(ev) = plan.events.iter().find(|ev| ev.at < now) {
            return Err(FaultPlanError::BeforeClock { at: ev.at, now });
        }
        self.kernel.fault_rng = StdRng::seed_from_u64(plan.seed);
        for ev in &plan.events {
            self.kernel.push(ev.at, EventKind::Fault { kind: ev.kind });
        }
        Ok(())
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

    /// Value of a named fault counter the kernel keeps (such as
    /// `fault_frames_blocked`); 0 for a name never counted.
    pub fn metric(&self, name: &str) -> u64 {
        self.kernel.metrics.get(name).copied().unwrap_or(0)
    }

    /// Number of nodes in the world.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The event queue's `(pending events, payload slots)`: what is
    /// queued, and what the queue holds room for (DESIGN.md §4's memory
    /// bound).
    pub fn queue_footprint(&self) -> (usize, usize) {
        (self.kernel.queue.keys.len(), self.kernel.queue.slots())
    }

    /// Whether the event queue keeps DESIGN.md §4's memory bound: at
    /// most four payload slots per pending event plus one chunk of 128,
    /// or a floor of 16 chunks. It holds whenever `run_until` returns.
    pub fn queue_within_bound(&self) -> bool {
        self.kernel.queue.within_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_net::prelude::*;
    use proptest::prelude::*;
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
            world.install_fault_plan(&plan).expect("valid fault plan");
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
        world.install_fault_plan(&plan).expect("valid fault plan");
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
        world.install_fault_plan(&plan).expect("valid fault plan");
        world.run_until(us(3_500));
        assert_eq!(world.kernel().port_counters(a, PortId(2)).drops, 3);
        assert_eq!(world.metric("fault_frames_blocked"), 3);
        assert_eq!(world.metric("missing"), 0);
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
        world.install_fault_plan(&plan).expect("valid fault plan");
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

    /// Sends one payload of each of `sizes` (capacity exactly the size)
    /// at 0.5 ms, then at 1 ms draws a buffer and notes where it lives:
    /// (address, capacity, length).
    struct Burst {
        peer: NodeId,
        sizes: Vec<usize>,
        sent: Vec<usize>,
        drawn: Option<(usize, usize, usize)>,
    }

    impl Burst {
        fn new(peer: NodeId, sizes: Vec<usize>) -> Self {
            Burst {
                peer,
                sizes,
                sent: Vec::new(),
                drawn: None,
            }
        }
    }

    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_micros(500), 0);
            ctx.set_timer(SimDuration::from_millis(1), 1);
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if token == 0 {
                for &size in &self.sizes {
                    let mut bytes = Vec::with_capacity(size);
                    bytes.resize(size, 0x5a);
                    self.sent.push(bytes.as_ptr() as usize);
                    ctx.send_control(self.peer, bytes);
                }
                return;
            }
            let buf = ctx.control_buf();
            self.drawn = Some((buf.as_ptr() as usize, buf.capacity(), buf.len()));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A world of a [`Burst`] sending `sizes` to a silent peer, run
    /// past the timer; `plan` may cut the channel first.
    fn burst(sizes: Vec<usize>, plan: Option<FaultPlan>) -> World {
        let mut world = World::new(1);
        let sink = world.add_node(TimerOrder { fired: vec![] });
        world.add_node(Burst::new(sink, sizes));
        if let Some(plan) = plan {
            world.install_fault_plan(&plan).unwrap();
        }
        world.run_for(SimDuration::from_millis(2));
        world
    }

    #[test]
    fn a_delivered_payload_serves_the_next_send_without_allocating() {
        let world = burst(vec![64], None);
        let b = world.node::<Burst>(NodeId(1));
        // The delivered payload itself, emptied, capacity kept: a
        // message of up to 64 bytes written into it allocates nothing.
        assert_eq!(b.drawn, Some((b.sent[0], 64, 0)));
        assert!(world.kernel.spare.is_empty(), "the one spare was drawn");
    }

    #[test]
    fn a_partition_dropped_payload_is_recycled() {
        let plan = FaultPlan::new(1).at(
            SimTime::ZERO,
            FaultKind::PartitionControl { node: NodeId(0) },
        );
        let world = burst(vec![64], Some(plan));
        assert_eq!(world.metric("fault_control_dropped"), 1);
        let b = world.node::<Burst>(NodeId(1));
        assert_eq!(b.drawn, Some((b.sent[0], 64, 0)));
    }

    #[test]
    fn an_outsized_payload_is_freed_not_kept() {
        let world = burst(vec![SPARE_CAP + 1], None);
        let b = world.node::<Burst>(NodeId(1));
        assert_eq!(b.drawn.map(|(_, cap, _)| cap), Some(0), "a fresh buffer");
        // One at the bound is kept.
        let world = burst(vec![SPARE_CAP], None);
        let b = world.node::<Burst>(NodeId(1));
        assert_eq!(b.drawn, Some((b.sent[0], SPARE_CAP, 0)));
    }

    #[test]
    fn the_spares_never_exceed_their_count_bound() {
        let world = burst(vec![16; SPARE_BUFS + 10], None);
        // One drawn by the timer from a full pool; the 10 past the
        // bound were freed.
        assert_eq!(world.kernel.spare.len(), SPARE_BUFS - 1);
        let b = world.node::<Burst>(NodeId(1));
        // LIFO: the last payload kept is the next drawn.
        assert_eq!(b.drawn, Some((b.sent[SPARE_BUFS - 1], 16, 0)));
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
            world.install_fault_plan(&plan).expect("valid fault plan");
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
        world.install_fault_plan(&plan).expect("valid fault plan");
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
    fn installing_unmatched_heal_is_refused() {
        let mut world = World::new(1);
        let n = world.add_node(FaultProbe { hooks: vec![] });
        let queued = world.kernel.queue.keys.len();
        let plan = FaultPlan::new(1)
            .at(SimTime::from_nanos(5), FaultKind::CrashRestart { node: n })
            .at(SimTime::from_nanos(10), FaultKind::HealControl { node: n });
        assert_eq!(
            world.install_fault_plan(&plan),
            Err(FaultPlanError::UnmatchedHeal {
                node: n,
                at: SimTime::from_nanos(10)
            })
        );
        assert_eq!(world.kernel.queue.keys.len(), queued, "nothing queued");
    }

    // The two absolute-time entry points refuse a time the clock has
    // passed in every build: `Kernel::push` only debug-asserts it, and
    // a release build would pop the event and set the clock back.

    #[test]
    fn a_fault_plan_cannot_turn_the_clock_back() {
        let mut world = World::new(1);
        let n = world.add_node(FaultProbe { hooks: vec![] });
        world.run_for(SimDuration::from_millis(10));
        let queued = world.kernel.queue.keys.len();
        let plan = FaultPlan::new(1)
            .at(us(20_000), FaultKind::CrashRestart { node: n })
            .at(us(1_000), FaultKind::CrashRestart { node: n });
        let err = world.install_fault_plan(&plan).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::BeforeClock {
                at: us(1_000),
                now: us(10_000)
            }
        );
        assert_eq!(
            err.to_string(),
            "fault at t=0.001000s is before the clock (t=0.010000s)"
        );
        assert_eq!(world.kernel.queue.keys.len(), queued, "nothing queued");
    }

    #[test]
    #[should_panic(expected = "timer at t=0.001000s is before the clock (t=0.010000s)")]
    fn a_timer_cannot_turn_the_clock_back() {
        let mut world = World::new(1);
        let n = world.add_node(TimerOrder { fired: vec![] });
        world.run_for(SimDuration::from_millis(10));
        world.schedule_timer_at(n, us(1_000), 7);
    }

    /// What the model test does to a queue.
    #[derive(Clone, Debug)]
    enum QueueOp {
        /// Push one event `dt` ns after the last popped time.
        Push(u64),
        /// Push this many events over the next 5 ns, most of them tied.
        Burst(u64),
        Pop,
        /// Pop this many events, or until empty.
        PopMany(usize),
        /// Pop until empty.
        Drain,
    }

    fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
        prop_oneof![
            (0u64..4).prop_map(QueueOp::Push),
            (0u64..4).prop_map(QueueOp::Push),
            (0u64..4).prop_map(QueueOp::Push),
            (1u64..300).prop_map(QueueOp::Burst),
            Just(QueueOp::Pop),
            Just(QueueOp::Pop),
            Just(QueueOp::Drain),
            // A flood past the floor, and a partial drain that leaves
            // the queue to compact at any depth.
            (500u64..4_000).prop_map(QueueOp::Burst),
            (1usize..4_000).prop_map(QueueOp::PopMany),
        ]
    }

    fn timer(token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(0),
            token,
        }
    }

    /// The heap doubles only past every slot, and compaction sizes it
    /// to the slots: at most two keys per slot, after every push and pop.
    fn check_keys(queue: &Queue, op: &QueueOp) -> Result<(), TestCaseError> {
        prop_assert!(
            queue.keys.capacity() <= 2 * queue.slots(),
            "{} keys for {} slots after {op:?}",
            queue.keys.capacity(),
            queue.slots()
        );
        Ok(())
    }

    /// Drives a [`Queue`] and a `BinaryHeap` of `(at, payload id)` in
    /// lock-step. Ids are handed out in push order, so the reference
    /// breaks ties FIFO, as the kernel must.
    fn run_queue_sequence(ops: Vec<QueueOp>) -> Result<(), TestCaseError> {
        let mut queue = Queue::default();
        let mut model: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let (mut now, mut next_id) = (SimTime::ZERO, 0);
        for op in ops {
            let (dts, pops) = match op {
                QueueOp::Push(dt) => (vec![dt], 0),
                QueueOp::Burst(n) => ((0..n).map(|i| i * 7 % 5).collect(), 0),
                QueueOp::Pop => (vec![], 1),
                QueueOp::PopMany(n) => (vec![], n.min(model.len())),
                QueueOp::Drain => (vec![], model.len()),
            };
            let before = queue.slots();
            for dt in dts {
                let at = now + SimDuration::from_nanos(dt);
                queue.push(at, timer(next_id));
                model.push(Reverse((at, next_id)));
                next_id += 1;
                check_keys(&queue, &op)?;
            }
            for _ in 0..pops {
                let want = model.pop().map(|Reverse(e)| e);
                prop_assert_eq!(queue.peek_at(), want.map(|(at, _)| at), "{op:?}");
                let got = queue.pop().map(|(at, kind)| {
                    let EventKind::Timer { token, .. } = kind else {
                        unreachable!("only timers are pushed");
                    };
                    (at, token)
                });
                prop_assert_eq!(got, want, "{op:?}");
                now = want.map_or(now, |(at, _)| at);
                check_keys(&queue, &op)?;
            }
            prop_assert_eq!(queue.keys.len(), model.len(), "len after {op:?}");
            // What `run_until` does as it returns; the memory bound
            // DESIGN.md §4 states holds from then on.
            queue.trim();
            prop_assert!(
                queue.within_bound(),
                "{} slots for {} pending after {op:?}",
                queue.slots(),
                queue.keys.len()
            );
            // At or below the floor no chunk is given back, so a burst
            // that drains and comes back reuses its chunks.
            if before <= FLOOR {
                prop_assert!(queue.slots() >= before, "chunks freed below the floor");
            }
        }
        Ok(())
    }

    proptest! {
        /// 64 default cases x 32 = 2 048 sequences.
        #[test]
        fn queue_agrees_with_a_binary_heap(
            sequences in proptest::collection::vec(
                proptest::collection::vec(arb_queue_op(), 0..48),
                32,
            ),
        ) {
            for ops in sequences {
                run_queue_sequence(ops)?;
            }
        }
    }

    #[test]
    fn a_drained_burst_leaves_room_for_the_next() {
        const B: u64 = 1_000;
        let mut queue = Queue::default();
        for round in 0..2 {
            for id in 0..B {
                queue.push(SimTime::from_nanos(id % 3), timer(id));
            }
            assert_eq!(queue.chunks.len(), 8, "round {round}: ceil(1000 / 128)");
            while queue.pop().is_some() {}
            // Under the floor, so a trim keeps every chunk.
            queue.trim();
        }
        assert!(queue.chunks.iter().all(|c| c.capacity() == CHUNK));
        let keys = queue.keys.capacity();
        assert!((1_000..=2 * queue.slots()).contains(&keys), "{keys} keys");
        // The memory bound DESIGN.md §4 states: a key per queued event,
        // a payload slot no larger than the payload itself.
        assert_eq!(std::mem::size_of::<Key>(), 24);
        assert_eq!(
            std::mem::size_of::<Slot>(),
            std::mem::size_of::<EventKind>()
        );
    }

    #[test]
    fn a_drained_flood_gives_back_its_chunks_and_keys() {
        const N: u64 = 20_000;
        let mut queue = Queue::default();
        for id in 0..N {
            queue.push(SimTime::from_nanos(id % 3), timer(id));
        }
        assert_eq!(queue.slots(), 157 * CHUNK, "ceil(20000 / 128) chunks");
        let mut fired = Vec::new();
        let mut pop = |queue: &mut Queue| {
            let (at, kind) = queue.pop()?;
            let EventKind::Timer { token, .. } = kind else {
                unreachable!("only timers are pushed");
            };
            fired.push((at, token));
            Some(())
        };
        for _ in 0..N - 1_000 {
            pop(&mut queue);
        }
        // Pops alone never compact: only a trim does.
        assert_eq!(queue.slots(), 157 * CHUNK);
        queue.trim();
        assert_eq!(queue.slots(), 8 * CHUNK, "ceil(1000 / 128) chunks");
        assert!(queue.keys.capacity() <= queue.slots());
        while pop(&mut queue).is_some() {}
        queue.trim();
        let want: Vec<_> = (0..3)
            .flat_map(|r| {
                (r..N)
                    .step_by(3)
                    .map(move |id| (SimTime::from_nanos(r), id))
            })
            .collect();
        assert_eq!(fired, want, "(at, push order), as if never compacted");
        // At the floor or under it, nothing more is given back.
        assert_eq!(queue.slots(), 8 * CHUNK);
        // The next flood fills the kept slots before it adds a chunk.
        for id in 0..N {
            queue.push(SimTime::from_nanos(id % 3), timer(id));
        }
        assert_eq!(queue.slots(), 157 * CHUNK);
    }
}
