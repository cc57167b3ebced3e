//! Stateful firewall end to end: a legitimate HTTP transfer is tracked,
//! reported established, and fast-passed around the firewall hairpin —
//! while a SYN flood from rotating source ports trips the conntrack
//! half-open threshold, earns its source a switch-level drop rule, and
//! stops reaching the firewall entirely.
//!
//! Run with: `cargo run --release --example stateful_firewall`

use livesec_services::{FirewallEngine, FwAction, ServiceElement};
use livesec_suite::prelude::*;
use livesec_workloads::SynFlood;

type Fw = ServiceElement<FirewallEngine>;

fn main() {
    // Steer all TCP through a stateful firewall that admits established
    // connections and watches for half-open floods.
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("fw")
            .proto(6)
            .chain(vec![ServiceType::Firewall]),
    );

    let mut b = CampusBuilder::new(23, 3).with_policy(policy);
    let server = b.add_gateway_with_app(0, HttpServer::new());
    // A silent victim: the flood's probes are never answered, so each
    // one leaves a half-open entry in the firewall's conntrack.
    let victim = b.add_user(0, NullApp);
    let fw = b.add_service_element(
        1,
        ServiceElement::new(
            FirewallEngine::new(Vec::new(), FwAction::AllowEstablished)
                .with_syn_flood_threshold(12),
        ),
    );
    let client = b.add_user(
        2,
        HttpClient::new(server.ip, 100_000)
            .with_max_requests(15)
            .with_think_time(SimDuration::from_millis(50)),
    );
    let flood = b.add_user(
        2,
        SynFlood::new(victim.ip, 80).with_interval(SimDuration::from_millis(5)),
    );
    let mut campus = b.finish();
    campus.world.run_for(SimDuration::from_secs(5));

    // Walk the monitor for the stateful-enforcement narrative.
    let c = campus.controller();
    for e in c.monitor().events() {
        match &e.kind {
            EventKind::ConnEstablished { flow } => {
                println!("[{}] connection {flow} reported ESTABLISHED", e.at);
            }
            EventKind::FastPassInstalled { flow } => {
                println!("[{}] fast-pass installed for {flow}", e.at);
            }
            EventKind::ConnClosed { flow } => {
                println!("[{}] connection {flow} closed, fast-pass torn down", e.at);
            }
            EventKind::SynFloodDetected { src, attack } => {
                println!("[{}] SYN FLOOD from {src} detected ({attack})", e.at);
            }
            EventKind::FlowBlocked {
                reason, at_dpid, ..
            } => {
                println!("[{}] blocked at ingress switch {at_dpid} ({reason})", e.at);
            }
            _ => {}
        }
    }

    let s = c.conntrack_stats();
    println!("\nconntrack: {s:?}");
    assert!(s.established >= 1, "the HTTP connection established");
    assert!(s.fastpass_installed >= 1, "the transfer was fast-passed");
    assert!(s.syn_floods >= 1, "the flood tripped the threshold");
    assert!(
        c.monitor().of_tag("syn_flood_detected").count() >= 1,
        "the detection reached the event log"
    );

    // The drop rule is installed in the attacker's ingress switch: a
    // source-wide entry with an empty action list.
    let drops = campus
        .switch(2)
        .table()
        .iter()
        .filter(|entry| entry.actions.is_empty())
        .count();
    assert!(drops >= 1, "the ingress switch holds the drop rule");
    println!("ingress switch holds {drops} drop entr(y/ies)");

    // The flood kept probing, but past the block the firewall stopped
    // seeing it: the flood stops counting.
    let sent = campus.world.node::<Host<SynFlood>>(flood.node).app().syns;
    let seen = campus
        .world
        .node::<Host<Fw>>(fw.node)
        .app()
        .counters()
        .processed_packets;
    println!("flood sent {sent} probes; the firewall inspected only {seen}");
    assert!(sent > 400, "the flood kept running");
    assert!(
        seen < u64::from(sent) / 4,
        "the block cut the flood off early"
    );

    // Meanwhile the legitimate transfer finished untouched.
    let done = campus
        .world
        .node::<Host<HttpClient>>(client.node)
        .app()
        .completed;
    assert_eq!(done, 15, "the legitimate client finished every transfer");
    println!("legitimate client completed {done}/15 transfers alongside the flood");
}
