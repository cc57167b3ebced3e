//! A store of flow-setup decisions, keyed by [`FlowKey`].
//!
//! The controller no longer uses it: every packet-in is decided cold by
//! [`crate::engine::decide`], so no stored decision can go stale. What
//! is left is the surface the end-to-end benchmark's cache kernel
//! (`e2e/src/kernels.rs`) still times; it goes with that kernel.

use crate::routing::SteeringProgram;
use livesec_net::{FlowKey, HashMap, MacAddr};
use livesec_services::ServiceType;
use std::rc::Rc;

/// A stored flow-setup decision, in replayable form.
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
        /// The elements the balancer picked, in chain order.
        elements: Vec<MacAddr>,
        /// The compiled forward-direction program.
        forward: Rc<SteeringProgram>,
        /// The compiled reverse-direction program.
        reverse: Rc<SteeringProgram>,
    },
}

/// Stores flow-setup decisions keyed by [`FlowKey`] and the ingress
/// point (dpid, port) the flow entered at.
#[derive(Debug, Default)]
pub struct DecisionCache {
    entries: HashMap<FlowKey, ((u64, u32), CachedDecision)>,
}

impl DecisionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The decision stored for `key` entering at `ingress`; `None` if
    /// there is none, or it was stored for another ingress point.
    /// Takes `&mut self` because the kernel that times it holds its
    /// cache mutably.
    pub fn lookup(&mut self, key: &FlowKey, ingress: (u64, u32)) -> Option<CachedDecision> {
        match self.entries.get(key) {
            Some((at, decision)) if *at == ingress => Some(decision.clone()),
            _ => None,
        }
    }

    /// Stores `decision` for `key`, replacing any previous entry.
    pub fn insert(&mut self, key: FlowKey, ingress: (u64, u32), decision: CachedDecision) {
        self.entries.insert(key, (ingress, decision));
    }

    /// Number of stored decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tp_src: u16) -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "10.0.0.2".parse().unwrap(),
            nw_proto: 6,
            tp_src,
            tp_dst: 80,
        }
    }

    fn deny(rule: &str) -> CachedDecision {
        CachedDecision::Deny {
            rule: Some(rule.into()),
        }
    }

    #[test]
    fn lookup_serves_only_the_ingress_it_was_stored_for() {
        let mut c = DecisionCache::new();
        assert_eq!(c.lookup(&key(1000), (1, 2)), None);
        c.insert(key(1000), (1, 2), deny("a"));
        assert_eq!(c.lookup(&key(1000), (1, 2)), Some(deny("a")));
        assert_eq!(c.lookup(&key(1000), (1, 3)), None);
        assert_eq!(c.lookup(&key(1001), (1, 2)), None);
    }

    #[test]
    fn reinsert_replaces() {
        let mut c = DecisionCache::new();
        assert!(c.is_empty());
        c.insert(key(1000), (1, 2), deny("a"));
        c.insert(key(1000), (1, 2), deny("b"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&key(1000), (1, 2)), Some(deny("b")));
    }
}
