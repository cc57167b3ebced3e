//! The flow-setup fast path's decision cache.
//!
//! Flow setup is the controller's hot path: every packet-in of an
//! unknown flow costs a policy lookup, a balancer pick per chained
//! service, and two [`crate::routing::compile_path`] runs (forward and
//! reverse). Production traffic repeats itself — the same 9-tuple
//! reappears as soon as its entries idle out — so the
//! [`DecisionCache`] memoizes the *pure* part of that work, keyed by
//! the canonical [`FlowKey`], and replays it when nothing the decision
//! depended on has changed.
//!
//! Staleness is tracked two ways:
//!
//! * **Epochs** — a policy epoch (bumped on any policy-table edit) and
//!   a topology epoch (bumped when a switch joins, a link is
//!   discovered, an uplink changes, or a port goes down). Every entry
//!   records the epochs it was compiled under; a lookup under newer
//!   epochs lazily evicts the entry. Epoch bumps are O(1) no matter
//!   how many entries exist.
//! * **MAC index** — every entry is indexed by the MACs it involves
//!   (source, destination, and each service element). Host migration,
//!   host departure, and SE failure invalidate exactly the affected
//!   entries.
//!
//! The controller holds one cache per shard and is the only module
//! that knows when either applies — to all of them (DESIGN.md §9).
//!
//! The balancer is deliberately *not* epoch-tracked: its picks depend
//! on live load figures, so the controller re-runs the pick loop on
//! every hit and reuses the cached programs only when the picks land
//! on the same elements. That keeps the cache transparent — with the
//! cache on or off, the same sequence of balancer calls and monitor
//! events is produced (the golden-trace determinism test locks this
//! down) — while still skipping the compile work on the common path.

use crate::monitor::FastPathStats;
use crate::routing::SteeringProgram;
use livesec_net::{FlowKey, HashMap, HashSet, MacAddr};
use livesec_openflow::Match;
use livesec_services::ServiceType;
use std::rc::Rc;

/// A memoized flow-setup decision, in replayable form.
#[derive(Clone, Debug, PartialEq)]
pub enum CachedDecision {
    /// Policy denied the flow; `rule` names the matching rule.
    Deny {
        /// The policy rule that matched, if a specific one did.
        rule: Option<String>,
    },
    /// The flow is admitted — possibly through an empty chain (plain
    /// allow) — with these compiled steering programs.
    Steer {
        /// The policy chain.
        services: Vec<ServiceType>,
        /// The elements the balancer picked when the entry was
        /// compiled, in chain order.
        elements: Vec<MacAddr>,
        /// The compiled forward-direction program. Shared, so a cache
        /// hit clones a pointer, not the program.
        forward: Rc<SteeringProgram>,
        /// The compiled reverse-direction program.
        reverse: Rc<SteeringProgram>,
    },
}

#[derive(Clone, Debug)]
struct Entry {
    decision: CachedDecision,
    /// Where the flow enters (dpid, port) — programs match on the
    /// ingress port, so a packet arriving elsewhere is a different
    /// setup problem.
    ingress: (u64, u32),
    policy_epoch: u64,
    topo_epoch: u64,
}

/// Memoizes flow-setup decisions keyed by canonical [`FlowKey`].
///
/// See the module docs for the invalidation model. All operations are
/// O(1) in the number of cached entries (epoch bumps especially).
#[derive(Debug, Default)]
pub struct DecisionCache {
    entries: HashMap<FlowKey, Entry>,
    by_mac: HashMap<MacAddr, HashSet<FlowKey>>,
    policy_epoch: u64,
    topo_epoch: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    insertions: u64,
}

impl DecisionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The MACs an entry must be indexed under.
    fn macs_of<'a>(
        key: &FlowKey,
        decision: &'a CachedDecision,
    ) -> impl Iterator<Item = MacAddr> + 'a {
        let elements = match decision {
            CachedDecision::Steer { elements, .. } => elements.as_slice(),
            CachedDecision::Deny { .. } => &[],
        };
        [key.dl_src, key.dl_dst]
            .into_iter()
            .chain(elements.iter().copied())
    }

    /// Looks up the cached decision for `key` entering at `ingress`.
    ///
    /// A stale entry (older epoch, or a different ingress point) is
    /// evicted on the spot and reported as a miss.
    pub fn lookup(&mut self, key: &FlowKey, ingress: (u64, u32)) -> Option<CachedDecision> {
        match self.entries.get(key) {
            Some(e)
                if e.policy_epoch == self.policy_epoch
                    && e.topo_epoch == self.topo_epoch
                    && e.ingress == ingress =>
            {
                self.hits += 1;
                Some(e.decision.clone())
            }
            Some(_) => {
                self.evict(key);
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Memoizes `decision` for `key`, replacing any previous entry.
    pub fn insert(&mut self, key: FlowKey, ingress: (u64, u32), decision: CachedDecision) {
        self.remove_silent(&key);
        for mac in Self::macs_of(&key, &decision) {
            self.by_mac.entry(mac).or_default().insert(key);
        }
        self.entries.insert(
            key,
            Entry {
                decision,
                ingress,
                policy_epoch: self.policy_epoch,
                topo_epoch: self.topo_epoch,
            },
        );
        self.insertions += 1;
    }

    /// Drops the entry for `key` (counted as an invalidation), e.g.
    /// when a revalidated balancer pick no longer matches it.
    pub fn remove(&mut self, key: &FlowKey) {
        self.evict(key);
    }

    /// Drops every entry involving `mac` — host migration or
    /// departure, or a service element going offline.
    pub fn invalidate_mac(&mut self, mac: MacAddr) {
        let Some(keys) = self.by_mac.get(&mac) else {
            return;
        };
        for key in keys.clone() {
            self.evict(&key);
        }
    }

    /// Drops every entry whose flow (in either direction) falls inside
    /// the header-space `cube` — the surgical counterpart of
    /// [`DecisionCache::note_policy_change`], used when a policy delta
    /// touches only some header classes.
    ///
    /// Unlike an epoch bump this leaves unrelated warm entries intact;
    /// the reverse direction is included because a cached steer
    /// decision compiles programs for both directions of the flow.
    pub fn invalidate_class(&mut self, cube: &Match) {
        let mut stale: Vec<FlowKey> = self
            .entries
            .iter()
            .filter(|(key, e)| {
                cube.matches(e.ingress.1, key) || cube.matches(e.ingress.1, &key.reversed())
            })
            .map(|(key, _)| *key)
            .collect();
        // HashMap iteration order must not leak into eviction order.
        stale.sort_unstable();
        for key in &stale {
            self.evict(key);
        }
    }

    /// Notes a policy-table change: every cached decision may now be
    /// wrong, so the policy epoch advances and old entries lazily
    /// evict on their next lookup.
    pub fn note_policy_change(&mut self) {
        self.policy_epoch += 1;
    }

    /// Notes a topology change (switch join, link discovery, uplink
    /// change, port down): compiled programs may route differently
    /// now.
    pub fn note_topology_change(&mut self) {
        self.topo_epoch += 1;
    }

    /// Drops everything (counted as invalidations).
    pub fn clear(&mut self) {
        self.invalidations += self.entries.len() as u64;
        self.entries.clear();
        self.by_mac.clear();
    }

    /// Number of cached entries (including not-yet-evicted stale
    /// ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// This cache's share of the fast-path counters (the controller
    /// fills in the batching figures).
    pub fn stats(&self) -> FastPathStats {
        FastPathStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            insertions: self.insertions,
            entries: self.entries.len() as u64,
            ..FastPathStats::default()
        }
    }

    fn evict(&mut self, key: &FlowKey) {
        if self.remove_silent(key) {
            self.invalidations += 1;
        }
    }

    fn remove_silent(&mut self, key: &FlowKey) -> bool {
        let Some(entry) = self.entries.remove(key) else {
            return false;
        };
        for mac in Self::macs_of(key, &entry.decision) {
            if let Some(set) = self.by_mac.get_mut(&mac) {
                set.remove(key);
                if set.is_empty() {
                    self.by_mac.remove(&mac);
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(src: u64, dst: u64, tp_src: u16) -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(src),
            dl_dst: MacAddr::from_u64(dst),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "10.0.0.2".parse().unwrap(),
            nw_proto: 6,
            tp_src,
            tp_dst: 80,
        }
    }

    fn steer(elements: &[u64]) -> CachedDecision {
        CachedDecision::Steer {
            services: vec![ServiceType::IntrusionDetection; elements.len()],
            elements: elements.iter().map(|m| MacAddr::from_u64(*m)).collect(),
            forward: Rc::new(SteeringProgram::default()),
            reverse: Rc::new(SteeringProgram::default()),
        }
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut c = DecisionCache::new();
        let k = key(1, 2, 1000);
        assert_eq!(c.lookup(&k, (1, 2)), None);
        c.insert(k, (1, 2), steer(&[0xfe]));
        assert_eq!(c.lookup(&k, (1, 2)), Some(steer(&[0xfe])));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn different_ingress_is_a_miss_and_evicts() {
        let mut c = DecisionCache::new();
        let k = key(1, 2, 1000);
        c.insert(k, (1, 2), steer(&[]));
        assert_eq!(c.lookup(&k, (1, 3)), None);
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn policy_epoch_invalidates_lazily() {
        let mut c = DecisionCache::new();
        let k = key(1, 2, 1000);
        c.insert(k, (1, 2), CachedDecision::Deny { rule: None });
        c.note_policy_change();
        assert_eq!(c.len(), 1, "eviction is lazy");
        assert_eq!(c.lookup(&k, (1, 2)), None);
        assert!(c.is_empty());
        // A decision cached under the new epoch hits again.
        c.insert(k, (1, 2), CachedDecision::Deny { rule: None });
        assert!(c.lookup(&k, (1, 2)).is_some());
    }

    #[test]
    fn topology_epoch_invalidates_lazily() {
        let mut c = DecisionCache::new();
        let k = key(1, 2, 1000);
        c.insert(k, (1, 2), steer(&[0xfe]));
        c.note_topology_change();
        assert_eq!(c.lookup(&k, (1, 2)), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn mac_invalidation_hits_src_dst_and_elements() {
        let mut c = DecisionCache::new();
        let ka = key(1, 2, 1000);
        let kb = key(3, 4, 2000);
        let kc = key(5, 6, 3000);
        c.insert(ka, (1, 2), steer(&[0xfe]));
        c.insert(kb, (1, 2), steer(&[0xfe]));
        c.insert(kc, (1, 2), steer(&[0xff]));
        // The shared element takes out the first two entries only.
        c.invalidate_mac(MacAddr::from_u64(0xfe));
        assert_eq!(c.len(), 1);
        assert!(c.lookup(&kc, (1, 2)).is_some());
        // A destination MAC invalidates too.
        c.invalidate_mac(MacAddr::from_u64(6));
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 3);
        // Unknown MACs are a no-op.
        c.invalidate_mac(MacAddr::from_u64(0xabc));
        assert_eq!(c.stats().invalidations, 3);
    }

    #[test]
    fn class_invalidation_spares_unrelated_warm_entries() {
        let mut c = DecisionCache::new();
        let telnet = {
            let mut k = key(1, 2, 1000);
            k.tp_dst = 23;
            k
        };
        let web = key(3, 4, 2000);
        c.insert(telnet, (1, 2), steer(&[0xfe]));
        c.insert(web, (1, 2), steer(&[0xff]));
        // A cube over port 23 evicts only the telnet entry.
        c.invalidate_class(&Match::any().with_tp_dst(23));
        assert_eq!(c.lookup(&telnet, (1, 2)), None);
        assert_eq!(
            c.lookup(&web, (1, 2)),
            Some(steer(&[0xff])),
            "unrelated warm entry must survive a scoped invalidation"
        );
        let s = c.stats();
        assert_eq!((s.hits, s.invalidations), (1, 1));
    }

    #[test]
    fn class_invalidation_covers_the_reverse_direction() {
        let mut c = DecisionCache::new();
        let k = key(1, 2, 1000); // tp_src 1000 -> tp_dst 80
        c.insert(k, (1, 2), steer(&[]));
        // A cube matching the flow's *reverse* direction (dst port
        // 1000) still takes the entry out: the cached programs cover
        // both directions.
        c.invalidate_class(&Match::any().with_tp_dst(1000));
        assert_eq!(c.lookup(&k, (1, 2)), None);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut c = DecisionCache::new();
        let k = key(1, 2, 1000);
        c.insert(k, (1, 2), steer(&[0xfe]));
        c.insert(k, (1, 2), steer(&[0xff]));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&k, (1, 2)), Some(steer(&[0xff])));
        // The old element's index entry is gone.
        c.invalidate_mac(MacAddr::from_u64(0xfe));
        assert_eq!(c.len(), 1);
        c.invalidate_mac(MacAddr::from_u64(0xff));
        assert!(c.is_empty());
    }

    #[test]
    fn clear_counts_everything() {
        let mut c = DecisionCache::new();
        c.insert(key(1, 2, 1), (1, 2), steer(&[]));
        c.insert(key(1, 2, 2), (1, 2), steer(&[]));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 2);
    }
}
