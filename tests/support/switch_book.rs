//! The controller's switch book, checked from its public readers: the
//! suites that take switches down and bring them back (`chaos`,
//! `accountability`) end every run with [`assert_switch_book`].

use livesec::Controller;

/// Asserts the switch book agrees with itself: no quarantined switch
/// is registered, every registered switch's channel resolves to its
/// own id, and no more switches are online than were ever known.
pub fn assert_switch_book(c: &Controller) {
    let topo = c.topology();
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
