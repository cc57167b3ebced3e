//! Offline spanning-tree computation for the legacy layer.
//!
//! The paper relies on STP (or ECMP) in the Legacy-Switching network to
//! keep redundant physical topologies loop-free (§III-C.1), so that the
//! Access-Switching layer's abstract two-hop routing is never affected
//! by physical loops. Rather than simulating BPDU exchange, we compute
//! the converged tree directly — deterministically equivalent to what
//! STP settles on — and mark the ports STP would put in the discarding
//! state.

use livesec_net::FixedState;
use std::collections::HashMap;

/// A legacy-layer topology: switches and the links between them.
///
/// Node keys are caller-chosen identifiers (e.g. simulator node
/// indices). Links to hosts/AS switches need not be included — only
/// switch-to-switch links can form loops.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    links: Vec<(u64, u32, u64, u32)>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a switch-to-switch link `a.port_a ↔ b.port_b`.
    pub fn add_link(&mut self, a: u64, port_a: u32, b: u64, port_b: u32) {
        self.links.push((a, port_a, b, port_b));
    }

    /// The links added so far.
    pub fn links(&self) -> &[(u64, u32, u64, u32)] {
        &self.links
    }
}

struct UnionFind {
    parent: HashMap<u64, u64, FixedState>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind {
            parent: HashMap::default(),
        }
    }

    fn find(&mut self, x: u64) -> u64 {
        let p = *self.parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent.insert(x, root);
        root
    }

    fn union(&mut self, a: u64, b: u64) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        // Lower id wins as root — mirrors STP's lowest-bridge-id rule.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent.insert(hi, lo);
        true
    }
}

/// Computes the set of `(switch, port)` pairs STP would block.
///
/// Links are considered in insertion order (deterministic); the first
/// links that connect new components form the tree, every later
/// redundant link is blocked at **both** endpoints.
pub fn compute_spanning_tree(topology: &Topology) -> Vec<(u64, u32)> {
    let mut uf = UnionFind::new();
    let mut blocked = Vec::new();
    for &(a, pa, b, pb) in &topology.links {
        if !uf.union(a, b) {
            blocked.push((a, pa));
            blocked.push((b, pb));
        }
    }
    blocked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_topology_blocks_nothing() {
        let mut t = Topology::new();
        t.add_link(1, 1, 2, 1);
        t.add_link(2, 2, 3, 1);
        assert!(compute_spanning_tree(&t).is_empty());
    }

    #[test]
    fn triangle_blocks_one_link() {
        let mut t = Topology::new();
        t.add_link(1, 1, 2, 1);
        t.add_link(2, 2, 3, 1);
        t.add_link(3, 2, 1, 2); // closes the loop
        let blocked = compute_spanning_tree(&t);
        assert_eq!(blocked, vec![(3, 2), (1, 2)]);
    }

    #[test]
    fn parallel_links_second_blocked() {
        let mut t = Topology::new();
        t.add_link(1, 1, 2, 1);
        t.add_link(1, 2, 2, 2); // parallel redundancy
        let blocked = compute_spanning_tree(&t);
        assert_eq!(blocked, vec![(1, 2), (2, 2)]);
    }

    #[test]
    fn full_mesh_of_four() {
        let mut t = Topology::new();
        let mut port = HashMap::new();
        let mut next_port = |n: u64| -> u32 {
            let e = port.entry(n).or_insert(0u32);
            *e += 1;
            *e
        };
        for a in 1..=4u64 {
            for b in (a + 1)..=4u64 {
                let pa = next_port(a);
                let pb = next_port(b);
                t.add_link(a, pa, b, pb);
            }
        }
        // 6 links, 4 nodes → tree keeps 3, blocks 3 (both ends each).
        let blocked = compute_spanning_tree(&t);
        assert_eq!(blocked.len(), 6);
    }

    #[test]
    fn disconnected_components_both_spanned() {
        let mut t = Topology::new();
        t.add_link(1, 1, 2, 1);
        t.add_link(10, 1, 11, 1);
        t.add_link(11, 2, 10, 2); // loop in second component
        let blocked = compute_spanning_tree(&t);
        assert_eq!(blocked, vec![(11, 2), (10, 2)]);
    }
}
