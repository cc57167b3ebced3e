//! The controller's network information base: switches and the
//! full-mesh logical topology (paper §III-C.1).
//!
//! The controller observes switch joins over their secure channels and
//! discovers logical links by flooding LLDP probes until every peer has
//! heard each switch: a probe emitted by switch A that arrives (as a
//! packet-in) at switch B proves the legacy fabric connects them.
//! Because the Legacy-Switching layer gives reachability between *all*
//! AS switches, discovery converges on a full-mesh logical topology,
//! and any end-to-end delivery needs only abstract two-hop routing
//! (ingress switch → egress switch).
//!
//! A switch's [`SwitchInfo`] lasts one registration and goes with
//! [`TopologyMap::remove_switch`]; the channel it registered over stays
//! bound to its datapath id for good.

use livesec_net::HashMap;
use livesec_sim::{NodeId, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// A directed logical link: probe origin → probe receiver.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LogicalLink {
    /// Origin switch and port.
    pub from: (u64, u32),
    /// Receiving switch and port.
    pub to: (u64, u32),
}

/// What the controller knows about a switch while it is registered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SwitchInfo {
    /// Datapath id.
    pub dpid: u64,
    /// The simulator node to address control messages to.
    pub node: NodeId,
    /// Number of ports reported in the features reply.
    pub n_ports: u32,
    /// The port that faces the legacy fabric (learned from LLDP
    /// arrivals); `None` until discovery converges.
    pub uplink: Option<u32>,
    /// When the switch's channel last carried a decodable message.
    pub last_heard: SimTime,
    /// Whether a flow-table audit of the switch is in flight.
    pub auditing: bool,
}

/// The topology map: switch registry, channel bindings and the logical
/// link set.
#[derive(Debug, Default)]
pub struct TopologyMap {
    switches: BTreeMap<u64, SwitchInfo>,
    /// Every channel that ever registered, to its dpid. Never pruned.
    nodes: HashMap<NodeId, u64>,
    links: BTreeSet<LogicalLink>,
}

impl TopologyMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a switch after its features reply at `now`. Returns
    /// `true` if it was new. Re-registering a switch that is still
    /// registered (a reconnect the controller never noticed: a crash or
    /// partition shorter than the liveness timeout) keeps its
    /// discovered uplink, since the cabling did not change just because
    /// the session did, and its audit in flight. A switch declared dead
    /// was dropped by [`Self::remove_switch`], uplink included, and
    /// relearns it from LLDP.
    pub fn add_switch(&mut self, dpid: u64, node: NodeId, n_ports: u32, now: SimTime) -> bool {
        self.nodes.insert(node, dpid);
        let kept = self.switches.get(&dpid);
        let info = SwitchInfo {
            dpid,
            node,
            n_ports,
            uplink: kept.and_then(|s| s.uplink),
            last_heard: now,
            auditing: kept.is_some_and(|s| s.auditing),
        };
        self.switches.insert(dpid, info).is_none()
    }

    /// Deregisters a dead switch: its info and every logical link that
    /// touches it are dropped. Returns `false` if the dpid was unknown.
    /// The switch may re-register later via a fresh features reply; its
    /// channel stays bound to it.
    pub fn remove_switch(&mut self, dpid: u64) -> bool {
        if self.switches.remove(&dpid).is_none() {
            return false;
        }
        self.links.retain(|l| l.from.0 != dpid && l.to.0 != dpid);
        true
    }

    /// Records an LLDP observation: a probe from `(src_dpid,
    /// src_port)` arrived at `(dst_dpid, in_port)`. Returns `true` if
    /// the link was new.
    ///
    /// The receiving port is marked as the receiver's uplink: LLDP can
    /// only cross the legacy fabric, never a host port.
    pub fn observe_lldp(&mut self, from: (u64, u32), to: (u64, u32)) -> bool {
        if let Some(sw) = self.switches.get_mut(&to.0) {
            sw.uplink = Some(to.1);
        }
        self.links.insert(LogicalLink { from, to })
    }

    /// How many distinct switches have heard `dpid`'s probes. Receivers
    /// are counted, not links: before its uplink is known an origin
    /// sweeps every port, and two ports may reach the same peer.
    pub(crate) fn heard_by(&self, dpid: u64) -> usize {
        let first = LogicalLink {
            from: (dpid, 0),
            to: (0, 0),
        };
        let mut receivers: Vec<u64> = self
            .links
            .range(first..)
            .take_while(|l| l.from.0 == dpid)
            .map(|l| l.to.0)
            .filter(|&r| r != dpid)
            .collect();
        receivers.sort_unstable();
        receivers.dedup();
        receivers.len()
    }

    /// The switch info for a datapath id.
    pub fn switch(&self, dpid: u64) -> Option<&SwitchInfo> {
        self.switches.get(&dpid)
    }

    /// Mutable access to a registered switch's info.
    pub(crate) fn switch_mut(&mut self, dpid: u64) -> Option<&mut SwitchInfo> {
        self.switches.get_mut(&dpid)
    }

    /// The datapath id served by a controller-side peer node, while
    /// that switch is registered.
    pub fn dpid_of_node(&self, node: NodeId) -> Option<u64> {
        let dpid = self.bound_dpid(node)?;
        self.switch(dpid).filter(|s| s.node == node).map(|s| s.dpid)
    }

    /// The datapath id `node` registered as, whether or not that switch
    /// is registered now.
    pub(crate) fn bound_dpid(&self, node: NodeId) -> Option<u64> {
        self.nodes.get(&node).copied()
    }

    /// The uplink port of a switch (the port facing the legacy layer).
    pub fn uplink_of(&self, dpid: u64) -> Option<u32> {
        self.switches.get(&dpid).and_then(|s| s.uplink)
    }

    /// All registered switches in dpid order.
    pub fn switches(&self) -> impl Iterator<Item = &SwitchInfo> {
        self.switches.values()
    }

    /// Number of registered switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// The discovered logical links.
    pub fn links(&self) -> impl Iterator<Item = &LogicalLink> {
        self.links.iter()
    }

    /// Whether the logical topology is a full mesh over the registered
    /// switches (each ordered pair connected) — the paper's §III-C.1
    /// property, and the point where the controller stops probing.
    pub fn is_full_mesh(&self) -> bool {
        self.switches
            .keys()
            .all(|&dpid| self.heard_by(dpid) + 1 >= self.switches.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn switch_registration() {
        let mut t = TopologyMap::new();
        assert!(t.add_switch(1, node(10), 4, SimTime::ZERO));
        assert!(
            !t.add_switch(1, node(10), 4, SimTime::ZERO),
            "re-add is not new"
        );
        assert_eq!(t.switch_count(), 1);
        assert_eq!(t.dpid_of_node(node(10)), Some(1));
        assert_eq!(t.switch(1).unwrap().n_ports, 4);
        assert_eq!(t.dpid_of_node(node(99)), None);
    }

    #[test]
    fn lldp_learns_links_and_uplinks() {
        let mut t = TopologyMap::new();
        t.add_switch(1, node(10), 4, SimTime::ZERO);
        t.add_switch(2, node(11), 4, SimTime::ZERO);
        assert!(t.observe_lldp((1, 1), (2, 1)));
        assert!(!t.observe_lldp((1, 1), (2, 1)), "duplicate");
        assert_eq!(t.uplink_of(2), Some(1));
        assert_eq!(t.uplink_of(1), None, "not yet observed inbound");
        assert!(t.observe_lldp((2, 1), (1, 1)));
        assert_eq!(t.uplink_of(1), Some(1));
        assert_eq!(t.links().count(), 2);
    }

    #[test]
    fn heard_by_counts_receivers_not_links() {
        let mut t = TopologyMap::new();
        for dpid in 1..=3 {
            t.add_switch(dpid, node(dpid as usize), 4, SimTime::ZERO);
        }
        assert_eq!(t.heard_by(1), 0);
        // Before its uplink is known switch 1 sweeps every port; two
        // of them reach switch 2.
        t.observe_lldp((1, 1), (2, 1));
        t.observe_lldp((1, 2), (2, 1));
        assert_eq!(t.heard_by(1), 1);
        t.observe_lldp((1, 1), (3, 1));
        assert_eq!(t.heard_by(1), 2);
        assert_eq!(t.heard_by(2), 0, "links are directed");
    }

    #[test]
    fn remove_switch_drops_info_and_links() {
        let mut t = TopologyMap::new();
        t.add_switch(1, node(10), 4, SimTime::ZERO);
        t.add_switch(2, node(11), 4, SimTime::ZERO);
        t.observe_lldp((1, 1), (2, 1));
        t.observe_lldp((2, 1), (1, 1));
        assert!(t.remove_switch(2));
        assert!(!t.remove_switch(2), "already gone");
        assert_eq!(t.switch_count(), 1);
        assert_eq!(t.dpid_of_node(node(11)), None);
        assert_eq!(t.links().count(), 0, "links touching it dropped");
        // Re-registration works and is reported as new again.
        assert!(t.add_switch(2, node(11), 4, SimTime::ZERO));
    }

    #[test]
    fn readd_preserves_uplink() {
        let mut t = TopologyMap::new();
        t.add_switch(1, node(10), 4, SimTime::ZERO);
        t.add_switch(2, node(11), 4, SimTime::ZERO);
        t.observe_lldp((2, 1), (1, 3));
        assert_eq!(t.uplink_of(1), Some(3));
        assert!(
            !t.add_switch(1, node(10), 4, SimTime::ZERO),
            "reconnect, not new"
        );
        assert_eq!(t.uplink_of(1), Some(3), "uplink survives the session");
        // Declared dead and back: the uplink went with the switch.
        assert!(t.remove_switch(1));
        assert!(t.add_switch(1, node(10), 4, SimTime::ZERO), "rejoin is new");
        assert_eq!(t.uplink_of(1), None, "relearned from LLDP");
    }

    #[test]
    fn full_mesh_detection() {
        let mut t = TopologyMap::new();
        for (i, dpid) in [1u64, 2, 3].iter().enumerate() {
            t.add_switch(*dpid, node(i), 4, SimTime::ZERO);
        }
        assert!(!t.is_full_mesh());
        for &a in &[1u64, 2, 3] {
            for &b in &[1u64, 2, 3] {
                if a != b {
                    t.observe_lldp((a, 1), (b, 1));
                }
            }
        }
        assert!(t.is_full_mesh());
    }

    #[test]
    fn trivial_topologies_are_full_mesh() {
        let mut t = TopologyMap::new();
        assert!(t.is_full_mesh(), "empty");
        t.add_switch(1, node(0), 4, SimTime::ZERO);
        assert!(t.is_full_mesh(), "single switch");
    }
}
