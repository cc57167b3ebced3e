//! The sharded control plane (DESIGN.md §9): the AS layer partitioned
//! across N controller shards.
//!
//! The plane is a drop-in [`Node`] replacing a single [`Controller`].
//! A deterministic consistent-hash ring ([`crate::ring::HashRing`])
//! maps each switch (and each user MAC) to a shard; every control
//! message is routed to its switch's owner, which handles it with its
//! own flow-setup decision cache. The NIB itself is replicated — in
//! this in-process model, shared — so policy, topology and location
//! state are identical on every shard, and changes propagate to the
//! per-shard caches through epoch tags and a MAC-invalidation journal
//! replayed lazily when a shard next activates.
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

use crate::cache::DecisionCache;
use crate::controller::{CacheInvalidation, Controller};
use crate::monitor::{EventKind, FastPathStats};
use crate::ring::HashRing;
use livesec_net::Packet;
use livesec_sim::{Ctx, Node, NodeId, PortId};
use std::any::Any;

/// One shard's private state: its decision cache plus the cursors that
/// track how much of the shared NIB's change stream it has applied.
#[derive(Debug)]
struct ShardEngine {
    id: u32,
    alive: bool,
    /// The shard's own decision cache (`None` when caching is off, or
    /// after the shard died). Swapped into the inner controller for
    /// the duration of each dispatch this shard handles.
    cache: Option<DecisionCache>,
    /// Wholesale policy-flush counter this shard's cache last synced
    /// to. Scoped policy deltas do not advance it — they land in the
    /// invalidation journal instead, so untouched warm entries
    /// survive on every shard.
    applied_policy_flushes: u64,
    /// Topology epoch this shard's cache last synced to.
    applied_topo_epoch: u64,
    /// Whole-cache flush epoch this shard last observed.
    applied_flush_epoch: u64,
    /// How far into the cache-invalidation journal this shard has
    /// read.
    log_cursor: usize,
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
    /// The shared decision engine + replicated NIB. Runs cacheless
    /// between dispatches; each dispatch swaps the owning shard's
    /// cache in.
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
        let cache_enabled = inner.decision_cache_enabled();
        let mut parked = None;
        inner.swap_cache(&mut parked);
        drop(parked);
        inner.set_invalidation_journal(true);
        let (_, te) = inner.epochs();
        let pf = inner.policy_flush_count();
        let fe = inner.cache_flush_epoch();
        let cursor = inner.invalidation_log_len();
        let shards = (0..n)
            .map(|id| ShardEngine {
                id,
                alive: true,
                cache: cache_enabled.then(DecisionCache::new),
                applied_policy_flushes: pf,
                applied_topo_epoch: te,
                applied_flush_epoch: fe,
                log_cursor: cursor,
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
    /// balancer swaps — they propagate to every shard via epochs).
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

    /// Per-shard counters, id-ascending.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                id: s.id,
                alive: s.alive,
                messages: s.messages,
                packet_ins: s.packet_ins,
                handoffs_out: s.handoffs_out,
                owned: if s.alive {
                    let mut owned: Vec<u64> = self
                        .inner
                        .topology()
                        .switches()
                        .map(|sw| sw.dpid)
                        .filter(|&d| self.ring.shard_of_dpid(d) == s.id)
                        .collect();
                    owned.sort_unstable();
                    owned
                } else {
                    Vec::new()
                },
                cache: s.cache.as_ref().map(DecisionCache::stats),
            })
            .collect()
    }

    /// The monitor shard stamp used outside any dispatch (housekeeping
    /// ticks, failover events): the lowest live shard. Zero in every
    /// fault-free run, which keeps 1-shard histories byte-identical to
    /// the unsharded controller's.
    fn lowest_live(&self) -> u32 {
        self.shards
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.id)
            .min()
            .unwrap_or(0)
    }

    /// The shard index handling a message from `peer`.
    fn route(&self, peer: NodeId) -> usize {
        let owner = match self.inner.dpid_of_peer(peer) {
            Some(dpid) => self.ring.shard_of_dpid(dpid),
            // Pre-handshake traffic (Hello, the FeaturesReply itself)
            // routes by the peer's node id — deterministic, and
            // irrelevant to history: the shared controller behaves
            // identically on any shard.
            None => self.ring.shard_of_dpid(peer.index() as u64),
        };
        self.shards
            .iter()
            .position(|s| s.id == owner)
            // livesec-lint: allow(unwrap-in-prod, reason = "ring membership and the shard list are mutated together under on_shard_down; the ring can only name ids the list holds")
            .expect("the ring only names live shards")
    }

    /// Brings shard `idx`'s cache up to date with the shared NIB's
    /// change stream, then swaps it into the controller.
    fn activate(&mut self, idx: usize) {
        assert!(idx < self.shards.len(), "routed to unknown shard {idx}");
        let (_, te) = self.inner.epochs();
        let pf = self.inner.policy_flush_count();
        let fe = self.inner.cache_flush_epoch();
        let shard = &mut self.shards[idx];
        debug_assert!(shard.alive, "routed a message to a dead shard");
        if let Some(cache) = shard.cache.as_mut() {
            // Epoch-tagged propagation: one note per lagging epoch
            // invalidates every entry cached under the old value,
            // however far behind this shard fell. Scoped policy
            // deltas advance neither counter — they arrive through
            // the journal below, entry by entry.
            if shard.applied_flush_epoch != fe {
                cache.clear();
            }
            if shard.applied_policy_flushes != pf {
                cache.note_policy_change();
            }
            if shard.applied_topo_epoch != te {
                cache.note_topology_change();
            }
            for inv in self.inner.invalidation_log_since(shard.log_cursor) {
                match inv {
                    CacheInvalidation::Mac(mac) => cache.invalidate_mac(*mac),
                    CacheInvalidation::Class(cube) => cache.invalidate_class(cube),
                }
            }
        }
        shard.applied_policy_flushes = pf;
        shard.applied_topo_epoch = te;
        shard.applied_flush_epoch = fe;
        shard.log_cursor = self.inner.invalidation_log_len();
        self.inner.monitor_mut().set_shard(shard.id);
        self.inner.swap_cache(&mut shard.cache);
    }

    /// Takes shard `idx`'s cache back after a dispatch, fast-forwards
    /// its cursors (its own dispatch's changes went straight into the
    /// active cache), and books the dispatch's counters.
    fn retire(&mut self, idx: usize, packet_ins_before: u64) {
        assert!(idx < self.shards.len(), "retired unknown shard {idx}");
        let processed = self.inner.packet_ins - packet_ins_before;
        let setup = self.inner.take_last_setup();
        let log_len = self.inner.invalidation_log_len();
        let (_, te) = self.inner.epochs();
        let pf = self.inner.policy_flush_count();
        let fe = self.inner.cache_flush_epoch();
        let shard = &mut self.shards[idx];
        self.inner.swap_cache(&mut shard.cache);
        shard.messages += 1;
        shard.packet_ins += processed;
        shard.applied_policy_flushes = pf;
        shard.applied_topo_epoch = te;
        shard.applied_flush_epoch = fe;
        shard.log_cursor = log_len;
        if let Some((_key, ingress, egress)) = setup {
            // Cross-shard handoff: the flow's egress switch belongs to
            // another shard. The shared NIB makes the handoff itself
            // free — the ingress owner installs the whole end-to-end
            // program — but the count is the scale-out cost model.
            if self.ring.shard_of_dpid(ingress) != self.ring.shard_of_dpid(egress) {
                shard.handoffs_out += 1;
            }
        }
        let stamp = self.lowest_live();
        self.inner.monitor_mut().set_shard(stamp);
        self.trim_journal();
    }

    /// Drops the journal prefix every live shard has already replayed.
    fn trim_journal(&mut self) {
        let min = self
            .shards
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.log_cursor)
            .min()
            .unwrap_or(0);
        if min > 0 {
            self.inner.drain_invalidation_log(min);
            for s in &mut self.shards {
                s.log_cursor = s.log_cursor.saturating_sub(min);
            }
        }
    }
}

impl Node for ShardedControlPlane {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        Node::on_start(&mut self.inner, ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        // Housekeeping is global (liveness, expiry, audits): it runs
        // cacheless — invalidations land in the journal and reach each
        // shard's cache on its next activation. The cache is
        // transparent, so running without one changes nothing
        // observable.
        Node::on_timer(&mut self.inner, ctx, token);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        Node::on_frame(&mut self.inner, ctx, port, pkt);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, bytes: &[u8]) {
        let idx = self.route(peer);
        self.activate(idx);
        let packet_ins_before = self.inner.packet_ins;
        Node::on_control(&mut self.inner, ctx, peer, bytes);
        self.retire(idx, packet_ins_before);
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        Node::on_crash_restart(&mut self.inner, ctx);
    }

    fn on_shard_down(&mut self, ctx: &mut Ctx<'_>, shard: u32) {
        let Some(idx) = self.shards.iter().position(|s| s.id == shard && s.alive) else {
            return; // unknown or already dead: nothing to fail over
        };
        if self.ring.len() <= 1 {
            return; // refuse to kill the last shard
        }
        let now = ctx.now();
        // The switches the dying shard owns, before the ring changes.
        let mut owned: Vec<u64> = self
            .inner
            .topology()
            .switches()
            .map(|sw| sw.dpid)
            .filter(|&d| self.ring.shard_of_dpid(d) == shard)
            .collect();
        owned.sort_unstable();
        self.shards[idx].alive = false;
        self.shards[idx].cache = None; // its cache dies with it
        self.ring.remove_shard(shard);
        let stamp = self.lowest_live();
        self.inner.monitor_mut().set_shard(stamp);
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
        self.trim_journal();
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
        // The inner controller runs cacheless between dispatches.
        assert!(!plane.controller().decision_cache_enabled());
    }

    #[test]
    fn caching_disabled_propagates_to_shards() {
        let mut inner = Controller::new();
        inner.set_decision_cache(false);
        let plane = ShardedControlPlane::new(inner, 2);
        assert!(plane.shard_stats().iter().all(|s| s.cache.is_none()));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedControlPlane::new(Controller::new(), 0);
    }
}
