//! Fault tolerance under fire: an attacker's flow is detected and
//! blocked at its ingress switch — and then that switch crashes,
//! wiping its flow table, drop rule included. After the restart the
//! controller re-registers the switch, audits its (now empty) table
//! against the desired state, and reinstalls the block: the attack
//! stays contained across the crash.
//!
//! Run with: `cargo run --release --example chaos`

use livesec_suite::prelude::*;

fn main() {
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("ids-web")
            .dst_port(80)
            .chain(vec![ServiceType::IntrusionDetection]),
    );

    let mut b = CampusBuilder::new(7, 3).with_policy(policy);
    let victim = b.add_gateway_with_app(0, TcpEchoServer::new());
    b.add_service_element(2, ServiceElement::new(IdsEngine::engine()));
    // Ten innocent requests, then directory-traversal attacks forever.
    let attacker = b.add_user(
        1,
        AttackClient::new(victim.ip, 10).with_interval(SimDuration::from_millis(10)),
    );
    let mut campus = b.finish();

    // The attacker's ingress switch dies 2.5 s in — mid-attack, well
    // after the drop rule went down — and restarts with a wiped table.
    let ingress = campus.as_switches[1];
    let mut plan = FaultPlan::new(0xc4a5);
    plan.push(
        SimTime::from_nanos(2_500_000_000),
        FaultKind::CrashRestart { node: ingress },
    );
    campus
        .world
        .install_fault_plan(&plan)
        .expect("valid fault plan");

    campus.world.run_for(SimDuration::from_secs(2));
    let drops_before = block_entries(&campus);
    println!("t=2s: ingress switch holds {drops_before} drop entr(y/ies)");

    campus.world.run_for(SimDuration::from_secs(4));

    let c = campus.controller();
    for e in c.monitor().events() {
        match &e.kind {
            EventKind::AttackDetected {
                attack, element, ..
            } => println!("[{}] ATTACK \"{attack}\" reported by {element}", e.at),
            EventKind::FlowBlocked {
                reason, at_dpid, ..
            } => println!(
                "[{}] flow blocked at ingress switch {at_dpid} ({reason})",
                e.at
            ),
            EventKind::SwitchDown { dpid } => println!("[{}] switch {dpid} DOWN", e.at),
            EventKind::SwitchUp { dpid } => println!("[{}] switch {dpid} back UP", e.at),
            EventKind::Resync {
                dpid,
                removed,
                reinstalled,
            } => println!(
                "[{}] resync of switch {dpid}: {removed} stale removed, {reinstalled} reinstalled",
                e.at
            ),
            _ => {}
        }
    }

    let h = c.health_stats();
    println!(
        "health: {} audit(s), {} resync(s), {} entries reinstalled, {} data-path repairs",
        h.audits, h.resyncs, h.flows_reinstalled, h.flow_repairs
    );

    let drops_after = block_entries(&campus);
    println!("t=6s: ingress switch holds {drops_after} drop entr(y/ies) again");

    let sent = campus
        .world
        .node::<Host<AttackClient>>(attacker.node)
        .app()
        .sent;
    let reached = campus
        .world
        .node::<Host<TcpEchoServer>>(victim.node)
        .app()
        .echoed;
    println!("attacker sent {sent} requests; only {reached} ever reached the victim");
    assert!(
        drops_after >= 1,
        "the drop rule must be reinstalled after the crash"
    );
}

/// Attack-block entries (cookie 3) in the attacker's ingress switch.
fn block_entries(campus: &Campus) -> usize {
    campus
        .switch(1)
        .table()
        .iter()
        .filter(|entry| entry.cookie == 3 && entry.actions.is_empty())
        .count()
}
