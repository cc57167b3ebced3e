//! The sharded control plane (DESIGN.md §9): the AS layer partitioned
//! across N controller shards.
//!
//! The plane is a drop-in [`Node`] replacing a single [`Controller`].
//! A deterministic consistent-hash ring ([`crate::ring::HashRing`])
//! maps each switch (and each user MAC) to a shard; every control
//! message is routed to its switch's owner, which handles it with its
//! own flow-setup decision cache. The NIB itself is replicated — in
//! this in-process model, shared — so policy, topology and location
//! state are identical on every shard. The per-shard caches live in
//! the controller, which applies every change that can stale a cached
//! decision to all of them where the change is made; the plane only
//! routes, counts and fails over.
//!
//! Because the decision cache is observably transparent (DESIGN.md
//! §7), which shard handles a message can never change behaviour:
//! event histories are byte-identical across shard counts (modulo the
//! shard tags on events), and a 1-shard plane is byte-identical to the
//! unsharded controller. That invariant is what `tests/determinism.rs`
//! pins.
//!
//! Shard failover reuses the PR2 liveness/reconciliation machinery:
//! killing a shard ([`livesec_sim::FaultKind::ShardDown`]) removes it
//! from the ring, surviving shards adopt its switches (a fresh ring
//! lookup), and every adopted switch gets a flow-table audit so state
//! the dead shard had in flight is reconciled.

use crate::controller::Controller;
use crate::monitor::{EventKind, FastPathStats};
use crate::ring::HashRing;
use livesec_net::Packet;
use livesec_sim::{Ctx, Node, NodeId, PortId};
use std::any::Any;

/// One shard's liveness and counters; its id is its index.
#[derive(Debug)]
struct ShardEngine {
    alive: bool,
    /// Control messages this shard handled.
    messages: u64,
    /// Packet-ins this shard handled.
    packet_ins: u64,
    /// Flows this shard set up whose egress switch belongs to another
    /// shard (cross-shard handoffs).
    handoffs_out: u64,
}

/// A point-in-time export of one shard's counters, for tests, the
/// verifier's snapshot, and the scale-out bench.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// The shard id.
    pub id: u32,
    /// Whether the shard is alive (not failed over).
    pub alive: bool,
    /// Control messages handled.
    pub messages: u64,
    /// Packet-ins handled.
    pub packet_ins: u64,
    /// Cross-shard flow handoffs originated.
    pub handoffs_out: u64,
    /// Registered switches this shard currently owns (empty if dead).
    pub owned: Vec<u64>,
    /// The shard's decision-cache counters (`None` if caching is off
    /// or the shard died).
    pub cache: Option<FastPathStats>,
}

/// The sharded control plane node. See the module docs.
#[derive(Debug)]
pub struct ShardedControlPlane {
    /// The shared decision engine + replicated NIB, holding one
    /// decision cache per shard.
    inner: Controller,
    shards: Vec<ShardEngine>,
    ring: HashRing,
}

impl ShardedControlPlane {
    /// Wraps `inner` into an `n`-shard plane (n ≥ 1). The controller's
    /// own decision cache is retired; each shard gets a fresh one
    /// (none, if the controller had caching disabled).
    pub fn new(mut inner: Controller, n: u32) -> Self {
        assert!(n >= 1, "a control plane needs at least one shard");
        inner.split_caches(n as usize);
        let shards = (0..n)
            .map(|_| ShardEngine {
                alive: true,
                messages: 0,
                packet_ins: 0,
                handoffs_out: 0,
            })
            .collect();
        ShardedControlPlane {
            inner,
            shards,
            ring: HashRing::new(n),
        }
    }

    /// The shared controller (NIB, monitor, books). Everything a
    /// single-controller deployment exposes is still here.
    pub fn controller(&self) -> &Controller {
        &self.inner
    }

    /// Mutable access to the shared controller (runtime policy edits,
    /// balancer swaps, the cache switch — each reaches every shard).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.inner
    }

    /// The consistent-hash ring (live shards only).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Total shards, dead ones included.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shards still alive.
    pub fn live_shard_count(&self) -> usize {
        self.shards.iter().filter(|s| s.alive).count()
    }

    /// The shard currently owning a switch.
    pub fn owner_of_dpid(&self, dpid: u64) -> u32 {
        self.ring.shard_of_dpid(dpid)
    }

    /// Total cross-shard flow handoffs across all shards.
    pub fn handoffs(&self) -> u64 {
        self.shards.iter().map(|s| s.handoffs_out).sum()
    }

    /// The registered switches `shard` owns, ascending.
    fn owned_by(&self, shard: u32) -> Vec<u64> {
        // `switches()` iterates in dpid order.
        self.inner
            .topology()
            .switches()
            .map(|sw| sw.dpid)
            .filter(|&d| self.ring.shard_of_dpid(d) == shard)
            .collect()
    }

    /// Per-shard counters, id-ascending.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .zip(self.inner.shard_cache_stats())
            .zip(0u32..)
            .map(|((s, cache), id)| ShardStats {
                id,
                alive: s.alive,
                messages: s.messages,
                packet_ins: s.packet_ins,
                handoffs_out: s.handoffs_out,
                owned: if s.alive {
                    self.owned_by(id)
                } else {
                    Vec::new()
                },
                // A cache switched back on after the shard died fills
                // the dead slot too; it is nobody's cache.
                cache: cache.filter(|_| s.alive),
            })
            .collect()
    }

    /// The shard selected outside any dispatch (housekeeping ticks,
    /// failover events): the lowest live one. Zero in every fault-free
    /// run, which keeps 1-shard histories byte-identical to the
    /// unsharded controller's.
    fn lowest_live(&self) -> u32 {
        self.shards.iter().position(|s| s.alive).unwrap_or(0) as u32
    }

    /// The shard handling a message from `peer`.
    fn route(&self, peer: NodeId) -> u32 {
        match self.inner.dpid_of_peer(peer) {
            Some(dpid) => self.ring.shard_of_dpid(dpid),
            // Pre-handshake traffic (Hello, the FeaturesReply itself)
            // routes by the peer's node id — deterministic, and
            // irrelevant to history: the shared controller behaves
            // identically on any shard.
            None => self.ring.shard_of_dpid(peer.index() as u64),
        }
    }
}

impl Node for ShardedControlPlane {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        Node::on_start(&mut self.inner, ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        // Housekeeping is global (liveness, expiry, audits): what it
        // invalidates, it invalidates on every shard.
        Node::on_timer(&mut self.inner, ctx, token);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        Node::on_frame(&mut self.inner, ctx, port, pkt);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, bytes: &[u8]) {
        let shard = self.route(peer);
        self.inner.select_shard(shard);
        let packet_ins_before = self.inner.packet_ins;
        Node::on_control(&mut self.inner, ctx, peer, bytes);
        // Book the dispatch, then hand the controller back to
        // housekeeping.
        let s = &mut self.shards[shard as usize];
        debug_assert!(s.alive, "routed a message to a dead shard");
        s.messages += 1;
        s.packet_ins += self.inner.packet_ins - packet_ins_before;
        if let Some((_key, ingress, egress)) = self.inner.take_last_setup() {
            // Cross-shard handoff: the flow's egress switch belongs to
            // another shard. The shared NIB makes the handoff itself
            // free — the ingress owner installs the whole end-to-end
            // program — but the count is the scale-out cost model.
            if self.ring.shard_of_dpid(ingress) != self.ring.shard_of_dpid(egress) {
                s.handoffs_out += 1;
            }
        }
        let idle = self.lowest_live();
        self.inner.select_shard(idle);
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        Node::on_crash_restart(&mut self.inner, ctx);
    }

    fn on_shard_down(&mut self, ctx: &mut Ctx<'_>, shard: u32) {
        if self.ring.len() <= 1 {
            return; // refuse to kill the last shard
        }
        // The switches the dying shard owns, before the ring changes.
        let owned = self.owned_by(shard);
        let Some(s) = self.shards.get_mut(shard as usize).filter(|s| s.alive) else {
            return; // unknown or already dead: nothing to fail over
        };
        s.alive = false;
        let now = ctx.now();
        self.inner.drop_shard_cache(shard);
        self.ring.remove_shard(shard);
        let idle = self.lowest_live();
        self.inner.select_shard(idle);
        self.inner
            .monitor_mut()
            .record(now, EventKind::ShardDown { shard });
        for &dpid in &owned {
            let by = self.ring.shard_of_dpid(dpid);
            self.inner
                .monitor_mut()
                .record(now, EventKind::SwitchAdopted { dpid, by });
            // Reconcile the adopted switch (the PR2 machinery): the
            // dead shard may have had flow-mods in flight, and the
            // audit reinstalls anything missing — standing blocks
            // included.
            self.inner.audit_switch(dpid);
        }
        self.inner.flush(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_starts_with_all_shards_alive() {
        let plane = ShardedControlPlane::new(Controller::new(), 4);
        assert_eq!(plane.shard_count(), 4);
        assert_eq!(plane.live_shard_count(), 4);
        assert_eq!(plane.handoffs(), 0);
        let stats = plane.shard_stats();
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|s| s.alive && s.cache.is_some()));
        // The caches are the controller's: its totals are the shards'.
        assert!(plane.controller().decision_cache_enabled());
        assert_eq!(
            plane.controller().fast_path_stats(),
            FastPathStats::default()
        );
    }

    #[test]
    fn caching_disabled_propagates_to_shards() {
        let mut inner = Controller::new();
        inner.set_decision_cache(false);
        let mut plane = ShardedControlPlane::new(inner, 2);
        assert!(plane.shard_stats().iter().all(|s| s.cache.is_none()));
        // The switch works after wrapping too, on every shard.
        plane.controller_mut().set_decision_cache(true);
        assert!(plane.shard_stats().iter().all(|s| s.cache.is_some()));
        plane.controller_mut().set_decision_cache(false);
        assert!(plane.shard_stats().iter().all(|s| s.cache.is_none()));
        assert!(!plane.controller().decision_cache_enabled());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedControlPlane::new(Controller::new(), 0);
    }
}
