//! Discovery cost as deterministic counts (paper §III-C.1). The
//! controller floods LLDP probes only while some peer has not yet
//! heard a switch, so a campus of N switches converges on its full
//! mesh in a bounded number of packet-ins and then sends no probe at
//! all. Each event that can change what the fabric connects — a
//! switch (re)joining, a port going down or up — buys one more round
//! and no more.

use livesec_suite::prelude::*;
use livesec_switch::AsSwitch;

/// One LLDP round: `LLDP_EVERY_TICKS` (5) housekeeping ticks of 100 ms.
const ROUND: SimDuration = SimDuration::from_millis(500);
/// How long a converged campus is watched for stray packet-ins.
const QUIET: SimDuration = SimDuration::from_secs(5);

/// `n` AS switches over `n / 8` legacy edges, no users: every
/// packet-in the controller sees is an LLDP probe.
fn campus(n: usize) -> Campus {
    CampusBuilder::with_legacy_tiers(7, n, n / 8).finish()
}

/// Runs the campus for `d` and returns the packet-ins it took.
fn packet_ins_over(campus: &mut Campus, d: SimDuration) -> u64 {
    let before = campus.controller().packet_ins;
    campus.world.run_for(d);
    campus.controller().packet_ins - before
}

fn assert_converges_then_quiet(campus: &mut Campus, what: &str, budget: u64) {
    let spent = packet_ins_over(campus, ROUND);
    assert!(campus.controller().topology().is_full_mesh(), "{what}");
    assert!(
        spent > 0 && spent <= budget,
        "{what}: {spent} packet-ins for a budget of {budget}"
    );
    assert_eq!(packet_ins_over(campus, QUIET), 0, "{what}: quiet after");
}

/// One full round's packet-ins: each switch's probe reaches every peer.
fn round(n: u64) -> u64 {
    n * (n - 1)
}

#[test]
fn discovery_converges_within_two_rounds_then_stops() {
    for n in [8u64, 32, 128] {
        let mut campus = campus(n as usize);
        let warm_up = packet_ins_over(&mut campus, ROUND * 2);
        let c = campus.controller();
        assert_eq!(c.topology().switch_count() as u64, n);
        assert!(c.topology().is_full_mesh(), "N = {n}: mesh in 2 rounds");
        assert!(
            warm_up <= 2 * round(n) + n,
            "N = {n}: {warm_up} warm-up packet-ins"
        );
        assert_eq!(
            packet_ins_over(&mut campus, QUIET),
            0,
            "N = {n}: a converged campus probes nothing"
        );
    }
}

/// Each host's gratuitous ARP is one access-port packet-in. The
/// controller re-emits it through the host's switch's uplink (the
/// location announcement), and the legacy fabric floods that copy to
/// every other uplink, where each switch's uplink guard drops it: the
/// announcements add one packet-in per host to discovery's budget, not
/// one per host per peer switch.
const PACKET_INS_PER_HOST: u64 = 1;

#[test]
fn bring_up_with_users_costs_linear_in_hosts() {
    for (n, per_switch) in [(8u64, 4u64), (32, 4)] {
        let mut b = CampusBuilder::with_legacy_tiers(7, n as usize, n as usize / 8);
        for sw in 0..n as usize {
            for _ in 0..per_switch {
                b.add_user(sw, NullApp);
            }
        }
        let mut campus = b.finish();
        let hosts = n * per_switch;
        let warm_up = packet_ins_over(&mut campus, ROUND * 2);
        let c = campus.controller();
        assert!(c.topology().is_full_mesh(), "N = {n}: mesh in 2 rounds");
        assert_eq!(
            c.locations().len() as u64,
            hosts,
            "N = {n}: every host located"
        );
        let budget = 2 * round(n) + n + PACKET_INS_PER_HOST * hosts;
        assert!(
            warm_up <= budget,
            "N = {n}, {hosts} hosts: {warm_up} warm-up packet-ins for a budget of {budget}"
        );
        // The bring-up flood's event slots are given back once it drains.
        let (pending, slots) = campus.world.queue_footprint();
        assert!(
            campus.world.queue_within_bound(),
            "N = {n}: {slots} queue slots held for {pending} pending events"
        );
        assert_eq!(
            packet_ins_over(&mut campus, QUIET),
            0,
            "N = {n}: a converged campus with idle users is quiet"
        );
    }
}

#[test]
fn a_crash_restart_rearms_one_round() {
    let n = 32;
    let mut campus = campus(n as usize);
    campus.world.run_for(ROUND * 2);
    let at = campus.world.kernel().now() + SimDuration::from_millis(1);
    let node = campus.as_switches[5];
    campus
        .world
        .install_fault_plan(&FaultPlan::new(1).at(at, FaultKind::CrashRestart { node }))
        .expect("valid fault plan");
    assert_converges_then_quiet(&mut campus, "crash-restart", round(n));
    assert_eq!(campus.switch(5).crash_restarts, 1);
}

#[test]
fn an_uplink_down_and_up_each_rearm_one_round() {
    let n = 32;
    let mut campus = campus(n as usize);
    campus.world.run_for(ROUND * 2);
    let node = campus.as_switches[5];
    let dpid = campus.switch(5).datapath_id();
    let uplink = campus
        .controller()
        .topology()
        .uplink_of(dpid)
        .expect("uplink discovered");
    campus.world.node_mut::<AsSwitch>(node).fail_port(uplink);
    assert_converges_then_quiet(&mut campus, "uplink down", round(n));
    campus.world.node_mut::<AsSwitch>(node).recover_port(uplink);
    assert_converges_then_quiet(&mut campus, "uplink up", round(n));
    assert_eq!(campus.controller().topology().uplink_of(dpid), Some(uplink));
}

#[test]
fn a_switch_registering_after_convergence_is_discovered_within_one_round() {
    let n = 8;
    let mut campus = campus(n);
    // The last switch's secure channel is cut from the start, past
    // its 3 s controller timeout, so it registers off a reconnect hello
    // long after the other seven have converged.
    let late = campus.as_switches[n - 1];
    let heal = SimTime::from_nanos(4_000_000_000);
    let plan = FaultPlan::new(1)
        .at(SimTime::ZERO, FaultKind::PartitionControl { node: late })
        .at(heal, FaultKind::HealControl { node: late });
    campus
        .world
        .install_fault_plan(&plan)
        .expect("valid fault plan");
    campus.world.run_for(ROUND * 2);
    let c = campus.controller();
    assert_eq!(c.topology().switch_count(), n - 1);
    assert!(c.topology().is_full_mesh());

    campus.world.run_for(SimDuration::from_secs(5));
    let c = campus.controller();
    assert!(c.topology().is_full_mesh());
    let dpid = campus.switch(n - 1).datapath_id();
    let joined = c
        .monitor()
        .of_tag("switch_join")
        .find(|e| matches!(e.kind, EventKind::SwitchJoin { dpid: d } if d == dpid))
        .map(|e| e.at)
        .expect("the late switch registered");
    assert!(joined > heal);
    let links: Vec<SimTime> = c
        .monitor()
        .of_tag("link_discovered")
        .filter(|e| {
            matches!(e.kind, EventKind::LinkDiscovered { from, to } if from.0 == dpid || to.0 == dpid)
        })
        .map(|e| e.at)
        .collect();
    assert_eq!(links.len(), 2 * (n - 1), "both directions to every peer");
    let last = links.iter().max().copied().unwrap_or(SimTime::ZERO);
    assert!(
        last <= joined + ROUND + SimDuration::from_millis(1),
        "joined at {joined:?}, mesh complete at {last:?}"
    );
    assert_eq!(packet_ins_over(&mut campus, QUIET), 0, "quiet after");
}
