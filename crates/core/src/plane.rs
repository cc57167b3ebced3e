//! The sharded control plane (DESIGN.md §9): the AS layer partitioned
//! across N controller shards.
//!
//! The plane is a drop-in [`Node`] replacing a single [`Controller`].
//! A deterministic consistent-hash ring ([`crate::ring::HashRing`])
//! maps each switch to its owner shard. The NIB itself is replicated —
//! in this in-process model, shared — so policy, topology and location
//! state are identical on every shard, and every shard decides a flow
//! the same way. The plane owns, fails over and counts handoffs; it
//! changes nothing in the controller.
//!
//! So which shard owns a switch can never change behaviour: event
//! histories are byte-identical across shard counts, and to the
//! unsharded controller's. That invariant is what
//! `tests/determinism.rs` pins.
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

/// A point-in-time export of one shard's ownership, for tests and the
/// verifier's snapshot.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// The shard id.
    pub id: u32,
    /// Whether the shard is alive (not failed over).
    pub alive: bool,
    /// Registered switches this shard currently owns (empty if dead).
    pub owned: Vec<u64>,
    /// Always `None`: shards keep no decision cache. Kept because the
    /// end-to-end benchmark sums it into `core.cache.*`.
    pub cache: Option<FastPathStats>,
}

/// The sharded control plane node. See the module docs.
#[derive(Debug)]
pub struct ShardedControlPlane {
    /// The shared decision engine + replicated NIB.
    inner: Controller,
    /// Shards the plane started with; ids are `0..shards`.
    shards: u32,
    /// The live shards: a shard is alive while it is in the ring.
    ring: HashRing,
    /// Cross-shard flow handoffs.
    handoffs: u64,
}

impl ShardedControlPlane {
    /// Wraps `inner` into an `n`-shard plane (n ≥ 1).
    pub fn new(inner: Controller, n: u32) -> Self {
        assert!(n >= 1, "a control plane needs at least one shard");
        ShardedControlPlane {
            inner,
            shards: n,
            ring: HashRing::new(n),
            handoffs: 0,
        }
    }

    /// The shared controller (NIB, monitor, books). Everything a
    /// single-controller deployment exposes is still here.
    pub fn controller(&self) -> &Controller {
        &self.inner
    }

    /// Mutable access to the shared controller (runtime policy edits,
    /// balancer swaps — each reaches every shard).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.inner
    }

    /// Shards still alive.
    pub fn live_shard_count(&self) -> usize {
        self.ring.len()
    }

    /// The shard currently owning a switch.
    pub fn owner_of_dpid(&self, dpid: u64) -> u32 {
        self.ring.shard_of_dpid(dpid)
    }

    /// Cross-shard flow handoffs: set-ups whose egress switch belongs
    /// to another shard than their ingress switch.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
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

    /// Per-shard ownership, id-ascending.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        // The ring maps no switch to a dead shard, so it owns none.
        (0..self.shards)
            .map(|id| ShardStats {
                id,
                alive: self.ring.shards().contains(&id),
                owned: self.owned_by(id),
                cache: None,
            })
            .collect()
    }
}

impl Node for ShardedControlPlane {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        Node::on_start(&mut self.inner, ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        // Housekeeping is global (liveness, expiry, audits).
        Node::on_timer(&mut self.inner, ctx, token);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        Node::on_frame(&mut self.inner, ctx, port, pkt);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, bytes: &[u8]) {
        Node::on_control(&mut self.inner, ctx, peer, bytes);
        // Cross-shard handoff: the flow's egress switch belongs to
        // another shard. The shared NIB makes the handoff itself free —
        // the ingress owner installs the whole end-to-end program — but
        // the count is the scale-out cost model.
        if let Some((_key, ingress, egress)) = self.inner.take_last_setup() {
            let crosses = self.ring.shard_of_dpid(ingress) != self.ring.shard_of_dpid(egress);
            self.handoffs += u64::from(crosses);
        }
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        Node::on_crash_restart(&mut self.inner, ctx);
    }

    fn on_shard_down(&mut self, ctx: &mut Ctx<'_>, shard: u32) {
        // Refuse to kill the last shard; an unknown or already dead
        // shard has nothing to fail over.
        if self.ring.len() <= 1 || !self.ring.shards().contains(&shard) {
            return;
        }
        // The switches the dying shard owns, before the ring changes.
        let owned = self.owned_by(shard);
        let now = ctx.now();
        self.ring.remove_shard(shard);
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
        assert_eq!(plane.live_shard_count(), 4);
        assert_eq!(plane.handoffs(), 0);
        let stats = plane.shard_stats();
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|s| s.alive));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedControlPlane::new(Controller::new(), 0);
    }
}
