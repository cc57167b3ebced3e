//! Tracing from outside the program: before a traced rep starts, every
//! node whose concrete type the benchmark knows is moved out of the
//! `World` and put back inside a [`Traced`] adaptor that times
//! `on_frame`/`on_timer`/`on_control`. The rep's `run_until` is the
//! root span and the callbacks are its only children (a node never
//! calls another node; everything goes through the event queue), so
//! `root - children` is the world's own dispatch time and the parts
//! sum to the whole by construction.
//!
//! Spans are folded in memory into totals and histograms; the longest
//! per layer are kept whole and written out when the benchmark ends.

use crate::apps::{BlobClient, BlobSink, ProbeSink, Prober};
use crate::clock::now_ns;
use livesec::deploy::{Campus, NullApp};
use livesec::{Controller, ShardedControlPlane};
use livesec_net::{MacAddr, Packet};
use livesec_services::{IdsEngine, ProtoIdEngine, ServiceElement};
use livesec_sim::{Ctx, Node, NodeId, PortId, SimDuration, SimTime, World};
use livesec_switch::{App, AsSwitch, Host, LearningSwitch};
use livesec_workloads::scenario::WebThenTorrent;
use livesec_workloads::{AttackClient, HttpClient, HttpServer, SshSession, TcpEchoServer};
use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Node classes, named after the module that implements them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    AsSwitch,
    Learning,
    Host,
    Element,
    Controller,
}

pub const LAYERS: [Layer; 5] = [
    Layer::AsSwitch,
    Layer::Learning,
    Layer::Host,
    Layer::Element,
    Layer::Controller,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::AsSwitch => "switch.as_switch",
            Layer::Learning => "switch.learning",
            Layer::Host => "switch.host",
            Layer::Element => "services.element",
            Layer::Controller => "core.controller",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Callback {
    Frame,
    Timer,
    Control,
}

pub const CALLBACKS: [Callback; 3] = [Callback::Frame, Callback::Timer, Callback::Control];

impl Callback {
    pub fn name(self) -> &'static str {
        match self {
            Callback::Frame => "on_frame",
            Callback::Timer => "on_timer",
            Callback::Control => "on_control",
        }
    }
}

/// Log-linear histogram: 8 sub-buckets per power of two (~9 % wide).
const SUB: usize = 8;
const BUCKETS: usize = 64 * SUB;

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let top = 63 - ns.leading_zeros() as usize;
    let sub = ((ns >> (top - 3)) & 7) as usize;
    top * SUB + sub
}

/// Upper edge of a bucket, in ns.
fn bucket_edge(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let (top, sub) = (b / SUB, b % SUB);
    ((SUB + sub + 1) as u64) << (top - 3)
}

/// Totals of one (layer, callback).
#[derive(Clone, Debug)]
pub struct SpanStats {
    pub total_ns: u64,
    pub calls: u64,
    hist: Vec<u32>,
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats {
            total_ns: 0,
            calls: 0,
            hist: vec![0; BUCKETS],
        }
    }
}

impl SpanStats {
    /// The `p`-quantile (0..1) of span durations, to bucket precision.
    pub fn quantile_ns(&self, p: f64) -> u64 {
        let want = (self.calls as f64 * p).ceil() as u64;
        let mut seen = 0u64;
        for (b, &n) in self.hist.iter().enumerate() {
            seen += u64::from(n);
            if seen >= want && n > 0 {
                return bucket_edge(b);
            }
        }
        0
    }
}

/// One span kept whole.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    pub dur_ns: u64,
    pub layer: Layer,
    pub callback: Callback,
    pub node: u32,
    pub sim_ns: u64,
    pub wall_start_ns: u64,
}

const KEEP_LONGEST: usize = 1_000;
/// Frames kept as inputs for the kernels.
const KEEP_SAMPLES: usize = 256;

/// Where the adaptors fold their spans.
#[derive(Default)]
pub struct Sink {
    armed: bool,
    pub stats: Vec<SpanStats>,
    longest: Vec<BinaryHeap<Reverse<Span>>>,
    /// `(in_port, frame)` samples of what AS switches received in the
    /// window: the first `KEEP_SAMPLES`, then every 64th overwriting
    /// round-robin, so the kept set spans the whole window at a fixed,
    /// tiny cost.
    pub frames: Vec<(u32, Packet)>,
    frames_seen: u64,
    /// Nodes left unwrapped because their type is unknown here: their
    /// time would hide in the world's self time.
    pub unwrapped: usize,
    /// Flow-mods and packet-ins, counted by walking frame headers.
    pub flow_mods: u64,
    pub packet_ins: u64,
    type_flow_mod: u8,
    type_packet_in: u8,
}

fn slot(layer: Layer, cb: Callback) -> usize {
    layer as usize * CALLBACKS.len() + cb as usize
}

impl Sink {
    fn new() -> Self {
        use livesec_openflow::{codec, Match, OfMessage, PacketInReason};
        // The message-type byte of a frame header, learned from the
        // public encoder rather than copied from its private constants.
        let type_of = |m: &OfMessage| codec::encode(m, 0)[1];
        Sink {
            stats: vec![SpanStats::default(); LAYERS.len() * CALLBACKS.len()],
            longest: vec![BinaryHeap::new(); LAYERS.len()],
            type_flow_mod: type_of(&OfMessage::add_flow(Match::any(), Vec::new(), 0)),
            type_packet_in: type_of(&OfMessage::PacketIn {
                in_port: 0,
                reason: PacketInReason::NoMatch,
                data: Vec::new(),
            }),
            ..Sink::default()
        }
    }

    pub fn of(&self, layer: Layer, cb: Callback) -> &SpanStats {
        &self.stats[slot(layer, cb)]
    }

    /// Sum of every child span: what the root must exceed.
    pub fn children_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.total_ns).sum()
    }

    pub fn calls(&self, cb: Callback) -> u64 {
        LAYERS.iter().map(|&l| self.of(l, cb).calls).sum()
    }

    /// The longest spans of a layer, longest first.
    pub fn longest(&self, layer: Layer) -> Vec<Span> {
        let mut v: Vec<Span> = self.longest[layer as usize].iter().map(|r| r.0).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    fn record(&mut self, span: Span) {
        let s = &mut self.stats[slot(span.layer, span.callback)];
        s.total_ns += span.dur_ns;
        s.calls += 1;
        s.hist[bucket_of(span.dur_ns)] += 1;
        let heap = &mut self.longest[span.layer as usize];
        if heap.len() < KEEP_LONGEST {
            heap.push(Reverse(span));
        } else if heap.peek().is_some_and(|min| min.0 < span) {
            heap.pop();
            heap.push(Reverse(span));
        }
    }

    fn sample_frame(&mut self, port: u32, pkt: &Packet) {
        let n = self.frames_seen;
        self.frames_seen += 1;
        if self.frames.len() < KEEP_SAMPLES {
            self.frames.push((port, pkt.clone()));
        } else if n.is_multiple_of(64) {
            self.frames[(n / 64) as usize % KEEP_SAMPLES] = (port, pkt.clone());
        }
    }

    /// Counts frames of message type `ty` in a control payload by
    /// walking the 10-byte headers (version, type, u32 length, xid).
    fn count_type(bytes: &[u8], ty: u8) -> u64 {
        let (mut rest, mut n) = (bytes, 0);
        while rest.len() >= 10 {
            let len = u32::from_be_bytes([rest[2], rest[3], rest[4], rest[5]]) as usize;
            if len < 10 || len > rest.len() {
                break;
            }
            n += u64::from(rest[1] == ty);
            rest = &rest[len..];
        }
        n
    }
}

/// The adaptor. Delegates `as_any`/`as_any_mut` to the inner node, so
/// `Campus::controller()`, `Campus::switch()` and every downcast keep
/// working on a wrapped campus.
struct Traced {
    inner: Box<dyn Node>,
    layer: Layer,
    id: NodeId,
    // livesec-lint: allow(shared-mut-state, reason = "the adaptors of one single-threaded World fold their spans into one sink; no parallel executor exists to race on it")
    sink: Rc<RefCell<Sink>>,
}

impl Traced {
    fn span(&self, cb: Callback, sim: SimTime, start: u64) {
        let end = now_ns();
        self.sink.borrow_mut().record(Span {
            dur_ns: end - start,
            layer: self.layer,
            callback: cb,
            node: self.id.index() as u32,
            sim_ns: sim.as_nanos(),
            wall_start_ns: start,
        });
    }
}

impl Node for Traced {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        if !self.sink.borrow().armed {
            return self.inner.on_frame(ctx, port, pkt);
        }
        if self.layer == Layer::AsSwitch {
            self.sink.borrow_mut().sample_frame(port.number(), &pkt);
        }
        let start = now_ns();
        self.inner.on_frame(ctx, port, pkt);
        self.span(Callback::Frame, ctx.now(), start);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if !self.sink.borrow().armed {
            return self.inner.on_timer(ctx, token);
        }
        let start = now_ns();
        self.inner.on_timer(ctx, token);
        self.span(Callback::Timer, ctx.now(), start);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, bytes: &[u8]) {
        if !self.sink.borrow().armed {
            return self.inner.on_control(ctx, peer, bytes);
        }
        {
            let mut sink = self.sink.borrow_mut();
            if self.layer == Layer::Controller {
                sink.packet_ins += Sink::count_type(bytes, sink.type_packet_in);
            } else {
                sink.flow_mods += Sink::count_type(bytes, sink.type_flow_mod);
            }
        }
        let start = now_ns();
        self.inner.on_control(ctx, peer, bytes);
        self.span(Callback::Control, ctx.now(), start);
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_crash_restart(ctx);
    }

    fn on_shard_down(&mut self, ctx: &mut Ctx<'_>, shard: u32) {
        self.inner.on_shard_down(ctx, shard);
    }

    fn on_rule_tamper(&mut self, ctx: &mut Ctx<'_>, salt: u64) {
        self.inner.on_rule_tamper(ctx, salt);
    }

    fn on_misforward(&mut self, ctx: &mut Ctx<'_>, salt: u64) {
        self.inner.on_misforward(ctx, salt);
    }

    fn on_packet_inject(&mut self, ctx: &mut Ctx<'_>, salt: u64) {
        self.inner.on_packet_inject(ctx, salt);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Owns the sink and wraps campuses.
pub struct Tracer {
    // livesec-lint: allow(shared-mut-state, reason = "shared with the adaptors of one single-threaded World; see Traced::sink")
    sink: Rc<RefCell<Sink>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            sink: Rc::new(RefCell::new(Sink::new())),
        }
    }

    /// Spans are recorded only while armed: the measured window.
    pub fn arm(&self, on: bool) {
        self.sink.borrow_mut().armed = on;
    }

    /// The folded spans. Borrowed between runs of the world, when no
    /// adaptor is recording.
    pub fn sink(&self) -> std::cell::Ref<'_, Sink> {
        self.sink.borrow()
    }

    /// Moves the node at `id` out if it is a `T` and puts it back
    /// wrapped; `World::replace_node` is legal because the world has
    /// not started.
    fn wrap_as<T: Node>(
        &self,
        world: &mut World,
        id: NodeId,
        layer: Layer,
        placeholder: impl FnOnce() -> T,
    ) -> bool {
        let Some(node) = world.try_node_mut::<T>(id) else {
            return false;
        };
        let inner = std::mem::replace(node, placeholder());
        world.replace_node(
            id,
            Traced {
                inner: Box::new(inner),
                layer,
                id,
                sink: Rc::clone(&self.sink),
            },
        );
        true
    }

    fn wrap_host<A: App>(
        &self,
        world: &mut World,
        id: NodeId,
        layer: Layer,
        app: impl FnOnce() -> A,
    ) -> bool {
        self.wrap_as::<Host<A>>(world, id, layer, || {
            Host::new(MacAddr::ZERO, Ipv4Addr::UNSPECIFIED, app())
        })
    }

    /// Wraps every node of a campus that has not started yet.
    pub fn wrap(&self, campus: &mut Campus) {
        let ip = Ipv4Addr::UNSPECIFIED;
        let none = SimDuration::ZERO;
        let w = &mut campus.world;
        let mut unknown = 0;
        for i in 0..w.node_count() {
            let id = NodeId::from_index(i);
            let (host, element) = (Layer::Host, Layer::Element);
            let known = self.wrap_as(w, id, Layer::Controller, Controller::new)
                || self.wrap_as(w, id, Layer::Controller, || {
                    ShardedControlPlane::new(Controller::new(), 1)
                })
                || self.wrap_as(w, id, Layer::AsSwitch, || AsSwitch::new(0, 1))
                || self.wrap_as(w, id, Layer::Learning, || LearningSwitch::new(1))
                || self.wrap_host(w, id, host, || HttpClient::new(ip, 0))
                || self.wrap_host(w, id, host, HttpServer::new)
                || self.wrap_host(w, id, host, TcpEchoServer::new)
                || self.wrap_host(w, id, host, || SshSession::new(ip))
                || self.wrap_host(w, id, host, || WebThenTorrent::new(ip, none))
                || self.wrap_host(w, id, host, || AttackClient::new(ip, 0))
                || self.wrap_host(w, id, host, || NullApp)
                || self.wrap_host(w, id, host, BlobClient::default)
                || self.wrap_host(w, id, host, BlobSink::default)
                || self.wrap_host(w, id, host, Prober::default)
                || self.wrap_host(w, id, host, ProbeSink::default)
                || self.wrap_host(w, id, element, || ServiceElement::new(ProtoIdEngine::new()))
                // One node type for IDS, virus scan and content inspection.
                || self.wrap_host(w, id, element, || ServiceElement::new(IdsEngine::engine()));
            unknown += usize::from(!known);
        }
        self.sink.borrow_mut().unwrapped = unknown;
    }
}

/// Everything the sink holds, as JSON: totals, histograms (non-empty
/// buckets as `[upper edge ns, count]`) and the longest spans whole.
pub fn dump(workload: &str, sink: &Sink) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [");
    let mut first = true;
    for layer in LAYERS {
        for cb in CALLBACKS {
            let s = sink.of(layer, cb);
            if s.calls == 0 {
                continue;
            }
            let hist: Vec<String> = s
                .hist
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(b, n)| format!("[{}, {n}]", bucket_edge(b)))
                .collect();
            out.push_str(&format!(
                "{}\n  {{\"layer\": \"{}\", \"callback\": \"{}\", \"total_ns\": {}, \"calls\": {}, \"hist\": [{}]}}",
                if first { "" } else { "," },
                layer.name(),
                cb.name(),
                s.total_ns,
                s.calls,
                hist.join(", ")
            ));
            first = false;
        }
    }
    out.push_str("\n], \"longest\": [");
    first = true;
    for layer in LAYERS {
        for s in sink.longest(layer) {
            out.push_str(&format!(
                "{}\n  {{\"layer\": \"{}\", \"callback\": \"{}\", \"node\": {}, \"sim_ns\": {}, \"wall_start_ns\": {}, \"wall_end_ns\": {}}}",
                if first { "" } else { "," },
                s.layer.name(),
                s.callback.name(),
                s.node,
                s.sim_ns,
                s.wall_start_ns,
                s.wall_start_ns + s.dur_ns
            ));
            first = false;
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_bracket_their_values() {
        for ns in [0u64, 1, 7, 8, 9, 15, 16, 100, 999, 74_000, 1 << 40] {
            let b = bucket_of(ns);
            assert!(bucket_edge(b) >= ns, "{ns} above its bucket edge");
            assert!(
                bucket_edge(b) as f64 <= ns as f64 * 1.126 + 1.0,
                "{ns}: bucket wider than an eighth"
            );
        }
    }
}
