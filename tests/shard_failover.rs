//! Chaos acceptance: shard failover. A controller shard is killed in
//! the middle of the attack scenario; the surviving shards must adopt
//! its switches (fresh consistent-hash lookup + PR2-style flow-table
//! reconciliation), the attack's standing drop rules must survive the
//! adoption, and the header-space audit must pass on the merged
//! post-failover snapshot.

#[path = "support/switch_book.rs"]
mod switch_book;

use livesec_suite::prelude::*;
use livesec_verify::audit_settled;
use livesec_workloads::{CampusScenario, ScenarioConfig};

/// Runs the sharded campus until the attack verdict has landed and
/// returns the scenario plus one blocked ingress dpid.
fn run_until_blocked(shards: u32) -> (CampusScenario, u64) {
    let mut s = CampusScenario::build(ScenarioConfig {
        seed: 42,
        shards,
        ..ScenarioConfig::default()
    });
    s.campus.world.run_for(SimDuration::from_secs(5));
    let blocks = s.campus.controller().standing_blocks();
    assert!(
        !blocks.is_empty(),
        "the attack verdict must have landed a standing block by 5s"
    );
    let dpid = blocks[0].0;
    (s, dpid)
}

#[test]
fn surviving_shards_adopt_a_dead_shards_switches() {
    let (mut s, blocked_dpid) = run_until_blocked(4);
    let node = s.campus.controller;

    // Kill the shard that owns the blocked switch — the worst case:
    // the drop rule's owner disappears mid-attack.
    let (dead, owned_before, blocks_before) = {
        let plane = s.campus.shard_plane().expect("campus is sharded");
        assert_eq!(plane.live_shard_count(), 4);
        let dead = plane.owner_of_dpid(blocked_dpid);
        let owned: Vec<u64> = plane
            .shard_stats()
            .into_iter()
            .find(|st| st.id == dead)
            .expect("owner exists")
            .owned;
        (dead, owned, s.campus.controller().standing_blocks())
    };
    assert!(owned_before.contains(&blocked_dpid));

    let at = s.campus.world.kernel().now() + SimDuration::from_millis(100);
    let plan = FaultPlan::new(0).at(at, FaultKind::ShardDown { node, shard: dead });
    s.campus
        .world
        .install_fault_plan(&plan)
        .expect("valid fault plan");
    s.campus.world.run_for(SimDuration::from_secs(1));

    assert_eq!(s.campus.world.metric("fault_shard_downs"), 1);
    let plane = s.campus.shard_plane().expect("campus is sharded");
    assert_eq!(plane.live_shard_count(), 3, "one shard down");
    let new_owner = plane.owner_of_dpid(blocked_dpid);
    assert_ne!(new_owner, dead, "the blocked switch was adopted");

    // Every switch the dead shard owned was adopted, and the monitor
    // recorded the failover.
    let events = s.campus.controller().monitor().events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ShardDown { shard } if shard == dead)),
        "shard_down event recorded"
    );
    for &dpid in &owned_before {
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                EventKind::SwitchAdopted { dpid: d, by } if d == dpid && by != dead
            )),
            "switch {dpid} adopted by a survivor"
        );
    }

    // The drop rules survived the adoption...
    let blocks_after = s.campus.controller().standing_blocks();
    for b in &blocks_before {
        assert!(blocks_after.contains(b), "standing block lost in failover");
    }

    // ...and traffic keeps flowing through the surviving shards.
    let packet_ins_before = s.campus.controller().packet_ins;
    s.campus.world.run_for(SimDuration::from_secs(2));
    assert!(
        s.campus.controller().packet_ins > packet_ins_before,
        "survivors keep handling packet-ins"
    );

    // The merged post-failover snapshot passes the full header-space
    // audit (blocked-unreachable, no blackholes, chains intact, shard
    // coverage exactly-one).
    let violations = audit_settled(&mut s.campus, 30, SimDuration::from_millis(100));
    assert!(violations.is_empty(), "audit found: {violations:#?}");
    switch_book::assert_switch_book(s.campus.controller());
}

/// Killing the last live shard would leave nobody to run the network;
/// the plane must refuse and carry on.
#[test]
fn the_last_shard_refuses_to_die() {
    let (mut s, _) = run_until_blocked(1);
    let node = s.campus.controller;
    let at = s.campus.world.kernel().now() + SimDuration::from_millis(100);
    let plan = FaultPlan::new(0).at(at, FaultKind::ShardDown { node, shard: 0 });
    s.campus
        .world
        .install_fault_plan(&plan)
        .expect("valid fault plan");
    s.campus.world.run_for(SimDuration::from_secs(1));

    let plane = s.campus.shard_plane().expect("campus is sharded");
    assert_eq!(plane.live_shard_count(), 1, "the last shard survives");
    assert!(
        !s.campus
            .controller()
            .monitor()
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::ShardDown { .. })),
        "a refused failover records nothing"
    );

    let packet_ins_before = s.campus.controller().packet_ins;
    s.campus.world.run_for(SimDuration::from_secs(1));
    assert!(
        s.campus.controller().packet_ins > packet_ins_before,
        "the lone shard keeps working"
    );
    switch_book::assert_switch_book(s.campus.controller());
}
