//! Forwarding accountability end to end: every switch attests every
//! forwarded packet, and mid-run a fault silently rewrites a flow
//! entry on the switch carrying the campus's service-element
//! replicas — no `FlowRemoved`, no error, the compromise is invisible
//! at the control channel. The controller catches the forged
//! forwarding against its path proofs, localizes it to the exact
//! switch, quarantines it (table wiped, control plane refuses its
//! reconnects), and re-steers traffic through the surviving replicas.
//! Once the operator re-images the box, `release_quarantine` lets it
//! rejoin through the normal handshake + audit path.
//!
//! Run with: `cargo run --release --example accountability`

use livesec_suite::prelude::*;

fn main() {
    // The paper's campus scenario with per-packet attestation on.
    let mut s = CampusScenario::build(ScenarioConfig {
        seed: 7,
        attest_every: 1,
        ..ScenarioConfig::default()
    });

    // Let flow setup, steering, and the service chains converge.
    s.campus.world.run_for(SimDuration::from_secs(3));

    // The compromise: a silent rule tamper on dpid 2 — the switch
    // hosting one IDS and one ProtoId replica, mid-path for every
    // chained web flow.
    let victim = s.campus.as_switches[1];
    let at = s.campus.world.kernel().now() + SimDuration::from_millis(500);
    let plan = FaultPlan::new(0xacc7).at(at, FaultKind::RuleTamper { node: victim });
    s.campus
        .world
        .install_fault_plan(&plan)
        .expect("valid fault plan");
    println!("t=3.5s: a fault silently rewrites a flow entry on switch 2\n");

    s.campus.world.run_for(SimDuration::from_secs(4));

    let c = s.campus.controller();
    let mut detected_at = None;
    for e in c.monitor().events() {
        match &e.kind {
            EventKind::PathProofViolated {
                at_dpid,
                deviation,
                expected,
                observed,
                ..
            } => println!(
                "[{}] proof violated at switch {at_dpid}: {} \
                 (expected in/out/cookie {expected:?}, attested {observed:?})",
                e.at,
                deviation.label()
            ),
            EventKind::SwitchDeviating { dpid, deviation } => {
                detected_at = detected_at.or(Some(e.at));
                println!(
                    "[{}] switch {dpid} DEVIATING ({}) -> quarantine",
                    e.at,
                    deviation.label()
                );
            }
            EventKind::SwitchDown { dpid } => println!("[{}] switch {dpid} down", e.at),
            _ => {}
        }
    }
    let detected_at = detected_at.expect("the tamper was detected");

    let acct = c.accountability_stats();
    println!(
        "\ndetector: {} attestations verified, {} chains proven, {} violation(s)",
        acct.attestations_seen, acct.chains_verified, acct.violations
    );
    println!(
        "quarantined: {:?} ({} reconnect attempts refused)",
        c.quarantined(),
        acct.quarantine_gate_drops
    );
    assert_eq!(c.quarantined(), vec![2], "exactly the tampered switch");

    // The network kept working: flows re-steered through the replicas
    // on switches 1 and 3 after the quarantine.
    let resteered = c
        .monitor()
        .of_tag("flow_start")
        .filter(|e| e.at > detected_at)
        .count();
    println!("re-steered: {resteered} flow setup(s) since the quarantine\n");
    assert!(resteered > 0, "traffic must survive the quarantine");

    // The operator re-images the switch and lifts the quarantine; the
    // switch rejoins through the ordinary reconnect + audit path.
    assert!(s.campus.controller_mut().release_quarantine(2));
    println!("t=7.5s: quarantine lifted; waiting for the reconnect backoff...");
    s.campus.world.run_for(SimDuration::from_secs(10));

    let c = s.campus.controller();
    let h = c.health_stats();
    println!(
        "t=17.5s: {} of {} switches online, quarantined: {:?}",
        h.switches_online,
        h.switches_known,
        c.quarantined()
    );
    assert!(c.quarantined().is_empty());
    assert_eq!(h.switches_online, 4, "the released switch rejoined");
    println!("\nThe compromise was detected, contained, and recovered from.");
}
