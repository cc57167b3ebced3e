//! Integration: stateful connection tracking end to end — firewall
//! conntrack verdicts, the controller's established-flow fast-pass,
//! SYN-flood mitigation, and the interplay with chaos faults.

use livesec_services::{FirewallEngine, FwAction, ServiceElement};
use livesec_suite::prelude::*;
use livesec_workloads::SynFlood;

type Fw = ServiceElement<FirewallEngine>;

/// A campus with one long-lived HTTP flow (fixed 5-tuple) steered
/// through a stateful firewall that reports establishments.
fn fastpass_campus(
    seed: u64,
    fastpass: bool,
    requests: u32,
    think: SimDuration,
) -> (Campus, UserHandle, SeHandle) {
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("fw")
            .proto(6)
            .chain(vec![ServiceType::Firewall]),
    );
    let mut b = CampusBuilder::new(seed, 3)
        .with_policy(policy)
        .configure_controller(move |c| {
            c.set_fastpass(fastpass);
            c.set_fastpass_idle(SimDuration::from_secs(1));
        });
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    let fw = b.add_service_element(
        1,
        ServiceElement::new(FirewallEngine::new(Vec::new(), FwAction::AllowEstablished)),
    );
    let user = b.add_user(
        2,
        HttpClient::new(gw.ip, 100_000)
            .with_max_requests(requests)
            .with_think_time(think),
    );
    (b.finish(), user, fw)
}

/// The tentpole's headline number: once the firewall reports the
/// connection established, the controller's fast-pass takes the rest
/// of the transfer off the service-element hairpin, so the element
/// inspects a fraction of the bytes it would otherwise process.
#[test]
fn fastpass_reduces_se_inspected_bytes() {
    let run = |fastpass: bool| {
        let (mut campus, user, fw) = fastpass_campus(11, fastpass, 20, SimDuration::ZERO);
        campus.world.run_for(SimDuration::from_secs(6));
        let done = campus
            .world
            .node::<Host<HttpClient>>(user.node)
            .app()
            .completed;
        assert_eq!(done, 20, "all transfers completed (fastpass={fastpass})");
        let bytes = campus
            .world
            .node::<Host<Fw>>(fw.node)
            .app()
            .counters()
            .processed_bytes;
        (campus, bytes)
    };
    let (with_fp, bytes_fp) = run(true);
    let (without_fp, bytes_plain) = run(false);

    println!("SE-inspected bytes: {bytes_fp} with fast-pass, {bytes_plain} without");
    assert!(
        bytes_fp * 2 < bytes_plain,
        "fast-pass cut SE-inspected bytes by more than half: {bytes_fp} vs {bytes_plain}"
    );

    let c = with_fp.controller();
    assert!(c.monitor().of_tag("conn_established").count() >= 1);
    assert!(c.monitor().of_tag("fast_pass_installed").count() >= 1);
    let s = c.conntrack_stats();
    assert!(s.established >= 1, "{s:?}");
    assert!(s.fastpass_installed >= 1, "{s:?}");
    assert!(
        s.fastpass_bytes > 0,
        "the idle-out of the fast-pass entries reported the bypassed volume: {s:?}"
    );

    // The control run installed nothing and saw no fast-pass events.
    let c = without_fp.controller();
    assert_eq!(c.conntrack_stats().fastpass_installed, 0);
    assert_eq!(c.monitor().of_tag("fast_pass_installed").count(), 0);
    // But the connection still established — tracking is independent
    // of the optimization it enables.
    assert!(c.conntrack_stats().established >= 1);
}

/// Golden trace: with conntrack verdicts and fast-passes in play, two
/// runs from the same seed still produce byte-identical monitor
/// histories (DESIGN.md §6 determinism contract).
#[test]
fn conntrack_history_is_deterministic_byte_for_byte() {
    let run = || {
        let (mut campus, _, _) = fastpass_campus(42, true, 15, SimDuration::from_millis(20));
        campus.world.run_for(SimDuration::from_secs(5));
        let c = campus.controller();
        assert!(c.conntrack_stats().fastpass_installed >= 1);
        (c.monitor().to_json(), c.conntrack_stats())
    };
    let (a, b) = (run(), run());
    assert_eq!(a.0, b.0, "same seed => same event history");
    assert_eq!(a.1, b.1, "same seed => same conntrack counters");
}

/// A SYN flood (half-open probes from rotating source ports) trips the
/// firewall's conntrack threshold; the controller answers with a
/// source-wide drop at the attacker's ingress, so the flood stops
/// reaching the firewall at all.
#[test]
fn syn_flood_triggers_source_wide_block() {
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("fw")
            .proto(6)
            .chain(vec![ServiceType::Firewall]),
    );
    let mut b = CampusBuilder::new(5, 2).with_policy(policy);
    // A silent victim: the probes are never answered, so every one
    // leaves a half-open connection in the firewall's conntrack.
    let victim = b.add_gateway(0);
    let fw = b.add_service_element(
        0,
        ServiceElement::new(
            FirewallEngine::new(Vec::new(), FwAction::AllowEstablished)
                .with_syn_flood_threshold(12),
        ),
    );
    let flood = b.add_user(
        1,
        SynFlood::new(victim.ip, 80).with_interval(SimDuration::from_millis(5)),
    );
    let mut campus = b.finish();
    campus.world.run_for(SimDuration::from_secs(4));

    let c = campus.controller();
    let summary = c.monitor().summary();
    assert!(
        c.monitor().of_tag("syn_flood_detected").count() >= 1,
        "flood detected: {summary:?}"
    );
    assert!(c.conntrack_stats().syn_floods >= 1);
    assert!(
        summary.get("flow_blocked").copied().unwrap_or(0) >= 1,
        "flood blocked: {summary:?}"
    );

    // The source-wide drop stopped the flood at its ingress: the
    // attacker kept probing, but the firewall stopped seeing probes.
    let sent = campus.world.node::<Host<SynFlood>>(flood.node).app().syns;
    let seen = campus
        .world
        .node::<Host<Fw>>(fw.node)
        .app()
        .counters()
        .processed_packets;
    assert!(sent > 400, "the flood kept running: {sent}");
    assert!(
        seen < u64::from(sent) / 4,
        "the block cut the flood off early: {seen} of {sent} probes inspected"
    );
}

/// Chaos interplay: the ingress switch power-cycles while the
/// connection is established and fast-passed. The wiped fast-pass
/// entries come back — via the reconnect audit and via the repair
/// path on the next packet-in — and the transfer finishes unharmed.
#[test]
fn fastpass_survives_ingress_switch_restart() {
    let (mut campus, user, _fw) = fastpass_campus(7, true, 40, SimDuration::from_millis(100));
    // The client sits on AS switch 2; crash it mid-connection, well
    // after the establishment report (~1.1 s).
    let ingress = campus.as_switches[2];
    let plan = FaultPlan::new(0).at(
        SimTime::from_nanos(2_500_000_000),
        FaultKind::CrashRestart { node: ingress },
    );
    campus
        .world
        .install_fault_plan(&plan)
        .expect("valid fault plan");
    campus.world.run_for(SimDuration::from_secs(8));

    let c = campus.controller();
    let s = c.conntrack_stats();
    assert!(s.fastpass_installed >= 1, "{s:?}");
    assert!(
        c.monitor()
            .of_tag("fast_pass_installed")
            .any(|e| e.at < SimTime::from_nanos(2_500_000_000)),
        "the fast-pass predated the crash"
    );
    // The restart was noticed and the table reconciled.
    let h = c.health_stats();
    assert!(
        h.degraded_reports >= 1,
        "the switch re-helloed after the power cycle: {h:?}"
    );
    assert!(h.audits >= 1, "the reconnect triggered an audit: {h:?}");
    // The transfer finished despite the mid-flight table wipe.
    let done = campus
        .world
        .node::<Host<HttpClient>>(user.node)
        .app()
        .completed;
    assert_eq!(done, 40, "every transfer completed across the restart");
}

/// Whether any AS switch still holds an entry at fast-pass priority.
fn fastpass_entries_remain(campus: &Campus) -> bool {
    campus.as_switches.iter().any(|&n| {
        campus
            .world
            .node::<AsSwitch>(n)
            .table_snapshot()
            .iter()
            .any(|e| e.priority == livesec::controller::FASTPASS_PRIORITY)
    })
}

/// The fast-pass's lifecycle under change: a policy or topology change
/// tears down the fast-passes it stales where it is made, not at a
/// later sweep, and a scoped delta tears down only those whose flow it
/// touches. One housekeeping tick later the switches hold no stale
/// bypass.
#[test]
fn changes_tear_down_the_fastpasses_they_stale() {
    // One tick of the controller and the switches, plus the control
    // round trip that carries a port status up and the deletes down.
    let tick = SimDuration::from_millis(150);
    let standing = || {
        let (mut campus, _, _) = fastpass_campus(7, true, 200, SimDuration::from_millis(100));
        campus.world.run_for(SimDuration::from_secs(2));
        assert_eq!(campus.controller().fastpass_records().len(), 1);
        assert!(fastpass_entries_remain(&campus));
        campus
    };
    let delta = |campus: &mut Campus, rule: PolicyRule| {
        let now = campus.world.kernel().now();
        let edit = PolicyDelta::Insert { index: 0, rule };
        campus.controller_mut().apply_policy_delta(now, &[edit]);
    };

    // A delta no packet of the connection falls under spares it.
    let mut campus = standing();
    delta(
        &mut campus,
        PolicyRule::named("udp-9999")
            .proto(17)
            .dst_port(9999)
            .deny(),
    );
    let c = campus.controller();
    assert_eq!(
        c.fastpass_records().len(),
        1,
        "an untouched fast-pass stands"
    );
    assert_eq!(c.conntrack_stats().fastpass_invalidated, 0);

    // A delta over the connection's own class tears it down, and the
    // teardown counts as an invalidation.
    delta(
        &mut campus,
        PolicyRule::named("web")
            .proto(6)
            .dst_port(80)
            .chain(vec![ServiceType::Firewall]),
    );
    let c = campus.controller();
    assert!(c.fastpass_records().is_empty(), "a touched fast-pass goes");
    assert_eq!(c.conntrack_stats().fastpass_invalidated, 1);
    campus.world.run_for(tick);
    assert!(!fastpass_entries_remain(&campus));

    // A wholesale policy change tears down every fast-pass at once.
    let mut campus = standing();
    let policy = campus.controller().policy().clone();
    campus.controller_mut().set_policy(policy);
    assert!(campus.controller().fastpass_records().is_empty());
    campus.world.run_for(tick);
    assert!(!fastpass_entries_remain(&campus));

    // So does a topology change: an unused access port failing.
    let mut campus = standing();
    let sw = campus.as_switches[0];
    campus.world.node_mut::<AsSwitch>(sw).fail_port(30);
    campus.world.run_for(tick);
    assert!(campus.controller().fastpass_records().is_empty());
    assert!(!fastpass_entries_remain(&campus));
}
