//! The [`Node`] behaviour trait and the [`Ctx`] handed to callbacks.

use crate::ids::{NodeId, PortId};
use crate::time::{SimDuration, SimTime};
use crate::world::Kernel;
use livesec_net::Packet;
use rand::rngs::StdRng;
use std::any::Any;

/// Behaviour of a simulation node (switch, host, service element,
/// controller).
///
/// All callbacks receive a [`Ctx`] through which the node interacts
/// with the world: sending frames out of its ports, arming timers, and
/// exchanging control-channel messages.
///
/// Implementors must also provide `as_any`/`as_any_mut` so callers can
/// downcast nodes back to their concrete type after a run (e.g. to read
/// a traffic sink's counters). The blanket pattern is:
///
/// ```rust,ignore
/// fn as_any(&self) -> &dyn Any { self }
/// fn as_any_mut(&mut self) -> &mut dyn Any { self }
/// ```
pub trait Node: Any {
    /// A frame arrived on `port`.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet);

    /// A timer armed via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// A control-channel message arrived from `peer`.
    ///
    /// The control channel models the OpenFlow secure channel (and the
    /// controller's management API): it is out-of-band with respect to
    /// the data plane, with its own configurable latency.
    fn on_control(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, bytes: &[u8]) {
        let _ = (ctx, peer, bytes);
    }

    /// Called once when the simulation starts, before any event.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// The node crashed and immediately restarted (a
    /// [`crate::fault::FaultKind::CrashRestart`] fault fired).
    ///
    /// Implementations should wipe whatever state would not survive a
    /// real power cycle — an OpenFlow switch loses its flow table and
    /// secure-channel session, for instance — and re-run any boot-time
    /// protocol (e.g. re-send `Hello`). The default does nothing:
    /// stateless nodes shrug a restart off.
    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// A controller shard hosted by this node died (a
    /// [`crate::fault::FaultKind::ShardDown`] fault fired).
    ///
    /// Only meaningful for nodes that model a sharded control plane;
    /// such nodes should fail the shard over (surviving shards adopt
    /// its switches and reconcile their tables). The default does
    /// nothing: unsharded nodes have no shard to lose.
    fn on_shard_down(&mut self, ctx: &mut Ctx<'_>, shard: u32) {
        let _ = (ctx, shard);
    }

    /// A [`crate::fault::FaultKind::RuleTamper`] fault fired on this
    /// node: mutate one installed flow entry's actions *without*
    /// telling the controller. `salt` is drawn from the dedicated
    /// fault RNG and picks the victim entry and the wrong port
    /// deterministically. The default does nothing: nodes without a
    /// flow table have nothing to tamper with.
    fn on_rule_tamper(&mut self, ctx: &mut Ctx<'_>, salt: u64) {
        let _ = (ctx, salt);
    }

    /// A [`crate::fault::FaultKind::SilentMisforward`] fault fired:
    /// from now on, forward matching packets out a wrong port while
    /// leaving the flow table untouched. `salt` picks the port skew.
    /// The default does nothing.
    fn on_misforward(&mut self, ctx: &mut Ctx<'_>, salt: u64) {
        let _ = (ctx, salt);
    }

    /// A [`crate::fault::FaultKind::PacketInject`] fault fired:
    /// originate a frame the controller never admitted. `salt` picks
    /// the forged header fields. The default does nothing.
    fn on_packet_inject(&mut self, ctx: &mut Ctx<'_>, salt: u64) {
        let _ = (ctx, salt);
    }

    /// Upcast for downcasting to the concrete node type.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for downcasting to the concrete node type.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The per-callback handle through which a node acts on the world.
pub struct Ctx<'a> {
    pub(crate) kernel: &'a mut Kernel,
    pub(crate) node: NodeId,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("node", &self.node)
            .field("now", &self.kernel.now)
            .finish_non_exhaustive()
    }
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Transmits `pkt` out of local port `port`.
    ///
    /// If no link is attached to the port, or the link's queue is full,
    /// the frame is counted as dropped. Transmission, queueing and
    /// propagation delays apply before the far end's
    /// [`Node::on_frame`] fires.
    pub fn send(&mut self, port: PortId, pkt: Packet) {
        self.kernel.transmit(self.node, port, pkt);
    }

    /// Whether local port `port` has no cable attached and no fault
    /// holding it down: a frame [`Ctx::send`] put there would only be
    /// counted as dropped.
    pub fn is_unplugged(&self, port: PortId) -> bool {
        self.kernel.unplugged(self.node, port)
    }

    /// Arms a one-shot timer; [`Node::on_timer`] fires with `token`
    /// after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.kernel.schedule_timer(self.node, delay, token);
    }

    /// Sends a control-channel message to `peer`, delivered after the
    /// world's configured control latency. Once delivered (or dropped
    /// by a partition), its buffer goes back to the kernel for the next
    /// [`Ctx::control_buf`].
    pub fn send_control(&mut self, peer: NodeId, bytes: Vec<u8>) {
        self.kernel.send_control(self.node, peer, bytes);
    }

    /// An empty buffer to write the next control message into: a
    /// delivered message's buffer, capacity kept, when the kernel holds
    /// one, so a message that fits allocates nothing.
    pub fn control_buf(&mut self) -> Vec<u8> {
        self.kernel.control_buf()
    }

    /// The world's seeded random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.kernel.rng
    }

    /// Traffic counters for one of this node's own ports (e.g. to
    /// answer OpenFlow port-stats requests).
    pub fn port_counters(&self, port: PortId) -> crate::world::PortCounters {
        self.kernel.port_counters(self.node, port)
    }
}
