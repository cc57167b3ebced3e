//! The controller's switch and host books, checked from its public
//! readers: the suites that take switches, ports or shards down and
//! bring them back (`chaos`, `accountability`, `reconciliation`,
//! `shard_failover`, `mobility`) end every run with
//! [`assert_switch_book`].

use livesec::Controller;
use livesec_sim::SimTime;

/// Asserts the books agree with themselves: no quarantined switch is
/// registered, every registered switch's channel resolves to its own
/// id, no more switches are online than were ever known, every service
/// element the controller knows of, online or not, is located, and
/// every located host sits on a registered, unquarantined switch.
pub fn assert_switch_book(c: &Controller) {
    let topo = c.topology();
    let located = c.locations();
    for se in c.nib_snapshot(SimTime::ZERO).elements {
        assert!(
            located.lookup(se.mac).is_some(),
            "element {} is known but located nowhere",
            se.mac
        );
    }
    let quarantined = c.quarantined();
    for (mac, loc) in located.iter() {
        assert!(
            topo.switch(loc.dpid).is_some() && !quarantined.contains(&loc.dpid),
            "host {mac} is located on switch {}, which is down or quarantined",
            loc.dpid
        );
    }
    for dpid in c.quarantined() {
        assert!(
            topo.switch(dpid).is_none(),
            "quarantined switch {dpid} is registered"
        );
    }
    for s in topo.switches() {
        assert_eq!(
            topo.dpid_of_node(s.node),
            Some(s.dpid),
            "switch {}'s channel resolves elsewhere",
            s.dpid
        );
    }
    let h = c.health_stats();
    assert!(
        h.switches_known >= h.switches_online,
        "more switches online than ever known: {h:?}"
    );
}
