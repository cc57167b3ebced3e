//! The header-space verifier, positively and negatively.
//!
//! Positive: `verify::audit` proves all eight invariants on the live
//! scenarios (baseline and service-chain here; the post-chaos-heal
//! audits run inside `tests/chaos.rs`, after every logged heal).
//!
//! Negative: for each invariant, build a deliberately bad snapshot —
//! a flow table the controller would never emit — and demand the
//! audit produces exactly the expected [`Violation`] variant carrying
//! a concrete witness packet that demonstrates the defect.

use livesec_net::{FlowKey, Ipv4Net, MacAddr};
use livesec_openflow::{Action, FlowEntry, Match, OutPort};
use livesec_services::ServiceType;
use livesec_sim::SimDuration;
use livesec_verify::{
    audit, audit_settled, trace, FlowView, HostInfo, Snapshot, SwitchState, TraceEnd, Violation,
};
use livesec_workloads::{CampusScenario, ScenarioConfig};
use std::net::Ipv4Addr;

// ---------------------------------------------------------------- positive

#[test]
fn baseline_scenario_proves_all_invariants() {
    let mut s = CampusScenario::build(ScenarioConfig::default());
    s.campus.world.run_for(SimDuration::from_secs(3));
    let violations = audit_settled(&mut s.campus, 30, SimDuration::from_millis(100));
    assert!(
        violations.is_empty(),
        "baseline violations: {violations:#?}"
    );
}

#[test]
fn service_chain_scenario_proves_all_invariants() {
    // Long enough that the torrent flow, the attack verdict and the
    // resulting standing block have all landed.
    let mut s = CampusScenario::build(ScenarioConfig::default());
    s.campus.world.run_for(SimDuration::from_secs(6));
    let snap = Snapshot::of_campus(&s.campus);
    assert!(
        !snap.blocks.is_empty(),
        "the attack verdict installed a block"
    );
    assert!(
        snap.flows.iter().any(|f| !f.chain.is_empty()),
        "some admitted flow carries a service chain"
    );
    let violations = audit_settled(&mut s.campus, 30, SimDuration::from_millis(100));
    assert!(
        violations.is_empty(),
        "service-chain violations: {violations:#?}"
    );
}

// ---------------------------------------------------------------- fixtures

fn mac(n: u8) -> MacAddr {
    MacAddr::new([0xaa, 0, 0, 0, 0, n])
}

fn ip(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

fn key(src: u8, dst: u8) -> FlowKey {
    FlowKey {
        vlan: None,
        dl_src: mac(src),
        dl_dst: mac(dst),
        dl_type: 0x0800,
        nw_src: ip(src),
        nw_dst: ip(dst),
        nw_proto: 6,
        tp_src: 4000 + u16::from(src),
        tp_dst: 80,
    }
}

/// One switch (dpid 1, uplink on port 10), host A on port 1, host B
/// on port 2 — the smallest topology every invariant can be broken
/// in.
fn tiny_snapshot(entries: Vec<FlowEntry>) -> Snapshot {
    Snapshot {
        switches: vec![SwitchState {
            dpid: 1,
            uplink: Some(10),
            n_ports: 10,
            entries,
            degraded: false,
        }],
        hosts: vec![
            HostInfo {
                mac: mac(1),
                ip: ip(1),
                dpid: 1,
                port: 1,
            },
            HostInfo {
                mac: mac(2),
                ip: ip(2),
                dpid: 1,
                port: 2,
            },
        ],
        elements: Vec::new(),
        blocks: Vec::new(),
        flows: Vec::new(),
        fastpasses: Vec::new(),
        shards: Vec::new(),
        quarantined: Vec::new(),
    }
}

fn out(port: u32) -> Vec<Action> {
    vec![Action::Output(OutPort::Physical(port))]
}

// ---------------------------------------------------------------- negative

/// Invariant 1: a standing block on A's traffic, but the table still
/// forwards A's packets straight to B.
#[test]
fn audit_refutes_blocked_reachable() {
    let leak = FlowEntry::new(Match::any().with_dl_src(mac(1)), out(2), 100);
    let mut snap = tiny_snapshot(vec![leak]);
    snap.blocks = vec![(1, Match::any().with_dl_src(mac(1)))];

    let vs = audit(&snap);
    assert_eq!(vs.len(), 1, "expected exactly one violation: {vs:#?}");
    match &vs[0] {
        Violation::BlockedReachable {
            block_dpid,
            witness,
            delivered_to,
            ..
        } => {
            assert_eq!(*block_dpid, 1);
            assert_eq!(*delivered_to, mac(2));
            // The witness is a packet the blocked source would send.
            assert_eq!(witness.key.dl_src, mac(1));
            assert_eq!(witness.key.dl_dst, mac(2));
            assert_eq!(witness.key.nw_dst, ip(2));
        }
        v => panic!("expected BlockedReachable, got {v:#?}"),
    }
}

/// Invariant 1 when an entry outputs twice: the switch emits a copy at
/// each output, so the copy to B leaks even though the first output
/// goes nowhere.
#[test]
fn audit_refutes_a_block_leaked_by_a_second_output() {
    let fan_out = FlowEntry::new(
        Match::any().with_dl_src(mac(1)),
        vec![
            Action::Output(OutPort::Physical(9)), // nothing attached
            Action::Output(OutPort::Physical(2)), // B
        ],
        100,
    );
    let mut snap = tiny_snapshot(vec![fan_out]);
    snap.blocks = vec![(1, Match::any().with_dl_src(mac(1)))];

    let t = trace(&snap, 1, 1, key(1, 2));
    assert_eq!(t.end, TraceEnd::Flooded { dpid: 1 });
    let vs = audit(&snap);
    assert_eq!(vs.len(), 1, "expected exactly one violation: {vs:#?}");
    match &vs[0] {
        Violation::BlockedReachable { delivered_to, .. } => assert_eq!(*delivered_to, mac(2)),
        v => panic!("expected BlockedReachable, got {v:#?}"),
    }
}

/// A rewrite the switch does not apply does not steer the trace: a
/// `SetTpDst` on an ICMP frame leaves it alone, so after the intrusion
/// detector reflects it the frame takes the port-agnostic entry to B,
/// not the entry for the rewritten port, which leads nowhere.
#[test]
fn trace_ignores_a_transport_rewrite_on_icmp() {
    let to_ids = FlowEntry::new(
        Match::any().with_in_port(1),
        vec![Action::SetTpDst(99), Action::Output(OutPort::Physical(3))],
        100,
    );
    let rewritten = FlowEntry::new(Match::any().with_in_port(3).with_tp_dst(99), out(7), 200);
    let back = FlowEntry::new(Match::any().with_in_port(3), out(2), 100);
    let mut snap = tiny_snapshot(vec![to_ids, rewritten, back]);
    snap.hosts.push(HostInfo {
        mac: mac(9),
        ip: ip(9),
        dpid: 1,
        port: 3,
    });
    snap.elements = vec![(mac(9), ServiceType::IntrusionDetection)];
    let ping = FlowKey {
        nw_proto: 1,
        tp_src: 0,
        tp_dst: 0,
        ..key(1, 2)
    };
    snap.flows = vec![FlowView {
        key: ping,
        chain: vec![ServiceType::IntrusionDetection],
        blocked: false,
    }];

    let t = trace(&snap, 1, 1, ping);
    assert_eq!(
        t.end,
        TraceEnd::Delivered {
            dpid: 1,
            port: 2,
            mac: mac(2)
        }
    );
    assert_eq!(t.traversed_types(), [ServiceType::IntrusionDetection]);
    assert!(t.steps.iter().all(|s| s.key == ping), "{t}");
    let vs = audit(&snap);
    assert!(vs.is_empty(), "the ping reaches B: {vs:#?}");
}

/// Invariant 2 only for frames the switch looks up: an entry that
/// would bounce frames off a service element forever wins only
/// EtherTypes other than IPv4 and ARP, which the switch punts to the
/// controller instead. Once it also wins ARP, the loop is real.
#[test]
fn a_loop_of_frames_the_switch_punts_is_no_loop() {
    let bounce = FlowEntry::new(Match::any(), out(3), 1);
    let ipv4 = FlowEntry::new(Match::any().with_dl_type(0x0800), out(2), 10);
    let arp = FlowEntry::new(Match::any().with_dl_type(0x0806), out(2), 10);
    let mut snap = tiny_snapshot(vec![bounce, ipv4, arp]);
    snap.hosts.push(HostInfo {
        mac: mac(9),
        ip: ip(9),
        dpid: 1,
        port: 3,
    });
    snap.elements = vec![(mac(9), ServiceType::IntrusionDetection)];

    let ipv6 = FlowKey {
        dl_type: 0x86dd,
        ..key(1, 2)
    };
    assert_eq!(trace(&snap, 1, 1, ipv6).end, TraceEnd::Miss { dpid: 1 });
    let vs = audit(&snap);
    assert!(vs.is_empty(), "no looked-up frame loops: {vs:#?}");

    snap.switches[0].entries.pop(); // ARP now falls to `bounce`
    let vs = audit(&snap);
    assert_eq!(vs.len(), 1, "expected exactly one violation: {vs:#?}");
    match &vs[0] {
        Violation::ForwardingLoop { witness, .. } => assert_eq!(witness.key.dl_type, 0x0806),
        v => panic!("expected ForwardingLoop, got {v:#?}"),
    }
}

/// Invariant 2: an entry that bounces everything off a service
/// element's reflecting port forever.
#[test]
fn audit_refutes_forwarding_loop() {
    let bounce = FlowEntry::new(Match::any(), out(3), 100);
    let mut snap = tiny_snapshot(vec![bounce]);
    // A service element on port 3: it reflects frames back into the
    // switch, where the same entry sends them to port 3 again.
    snap.hosts.push(HostInfo {
        mac: mac(9),
        ip: ip(9),
        dpid: 1,
        port: 3,
    });
    snap.elements = vec![(mac(9), ServiceType::IntrusionDetection)];

    let vs = audit(&snap);
    assert_eq!(vs.len(), 1, "expected exactly one violation: {vs:#?}");
    match &vs[0] {
        Violation::ForwardingLoop {
            dpid,
            path,
            witness,
        } => {
            assert_eq!(*dpid, 1);
            assert!(path.len() >= 2, "the loop has at least two hops: {path:?}");
            assert!(
                path.contains(&(1, 3)),
                "the loop runs through the reflecting port: {path:?}"
            );
            assert_eq!(witness.dpid, 1);
        }
        v => panic!("expected ForwardingLoop, got {v:#?}"),
    }
}

/// Invariant 3: an admitted flow's entry outputs to a port with
/// nothing attached — installed state that loses the packet without
/// any packet-in to recover it.
#[test]
fn audit_refutes_blackhole() {
    let dead = FlowEntry::new(
        Match::any().with_in_port(1).with_dl_src(mac(1)),
        out(7),
        100,
    );
    let mut snap = tiny_snapshot(vec![dead]);
    snap.flows = vec![FlowView {
        key: key(1, 2),
        chain: Vec::new(),
        blocked: false,
    }];

    let vs = audit(&snap);
    assert_eq!(vs.len(), 1, "expected exactly one violation: {vs:#?}");
    match &vs[0] {
        Violation::Blackhole { flow, witness, end } => {
            assert_eq!(*flow, key(1, 2));
            assert_eq!(witness.dpid, 1);
            assert_eq!(witness.in_port, 1);
            assert_eq!(*end, TraceEnd::DeadEnd { dpid: 1, port: 7 });
        }
        v => panic!("expected Blackhole, got {v:#?}"),
    }
}

/// Invariant 4: the policy chains A->B through intrusion detection,
/// but the table delivers directly — the waypoint is skipped.
#[test]
fn audit_refutes_chain_skipped() {
    let direct = FlowEntry::new(Match::any().with_in_port(1), out(2), 100);
    let mut snap = tiny_snapshot(vec![direct]);
    snap.hosts.push(HostInfo {
        mac: mac(9),
        ip: ip(9),
        dpid: 1,
        port: 3,
    });
    snap.elements = vec![(mac(9), ServiceType::IntrusionDetection)];
    snap.flows = vec![FlowView {
        key: key(1, 2),
        chain: vec![ServiceType::IntrusionDetection],
        blocked: false,
    }];

    let vs = audit(&snap);
    assert_eq!(vs.len(), 1, "expected exactly one violation: {vs:#?}");
    match &vs[0] {
        Violation::ChainSkipped {
            flow,
            required,
            traversed,
            witness,
        } => {
            assert_eq!(*flow, key(1, 2));
            assert_eq!(required, &[ServiceType::IntrusionDetection]);
            assert!(traversed.is_empty(), "nothing was traversed: {traversed:?}");
            assert_eq!(witness.in_port, 1);
        }
        v => panic!("expected ChainSkipped, got {v:#?}"),
    }
}

/// Invariant 5: an entry at fast-pass priority with no backing
/// record — established traffic forwarded under no current policy.
#[test]
fn audit_refutes_stale_fastpass() {
    let orphan = FlowEntry::new(
        Match::exact(1, &key(1, 2)),
        out(2),
        livesec::controller::FASTPASS_PRIORITY,
    );
    let snap = tiny_snapshot(vec![orphan]);

    let vs = audit(&snap);
    assert_eq!(vs.len(), 1, "expected exactly one violation: {vs:#?}");
    match &vs[0] {
        Violation::StaleFastPass { dpid, witness, .. } => {
            assert_eq!(*dpid, 1);
            // The witness is the exact packet the orphan captures.
            assert_eq!(witness.key, key(1, 2));
            assert_eq!(witness.in_port, 1);
        }
        v => panic!("expected StaleFastPass, got {v:#?}"),
    }
}

/// Invariant 5's clean side: one standing record, keyed by the flow's
/// original direction, backs the fast-pass entries of both directions
/// (the reverse entry is found under the reversed key), and it
/// sanctions the chained flow's bypass of its service chain.
#[test]
fn audit_accepts_backed_fastpass() {
    let fwd = FlowEntry::new(
        Match::exact(1, &key(1, 2)),
        out(2),
        livesec::controller::FASTPASS_PRIORITY,
    );
    let rev = FlowEntry::new(
        Match::exact(2, &key(1, 2).reversed()),
        out(1),
        livesec::controller::FASTPASS_PRIORITY,
    );
    let mut snap = tiny_snapshot(vec![fwd, rev]);
    snap.flows = vec![FlowView {
        key: key(1, 2),
        chain: vec![ServiceType::IntrusionDetection],
        blocked: false,
    }];
    snap.fastpasses = vec![key(1, 2)];

    let vs = audit(&snap);
    assert!(vs.is_empty(), "backed fast-pass flagged: {vs:#?}");
}

/// Invariant 6: a later entry at equal priority overlapping an
/// earlier one with different actions — the overlap is silently
/// decided by installation order.
#[test]
fn audit_refutes_shadowed_rule() {
    let winner = FlowEntry::new(Match::any().with_tp_dst(80), out(2), 50);
    let masked = FlowEntry::new(Match::any().with_in_port(1), Vec::new(), 50);
    let (wm, mm) = (winner.matcher, masked.matcher);
    let snap = tiny_snapshot(vec![winner, masked]);

    let vs = audit(&snap);
    assert_eq!(vs.len(), 1, "expected exactly one violation: {vs:#?}");
    match &vs[0] {
        Violation::ShadowedRule {
            dpid,
            priority,
            winner,
            masked,
            witness,
        } => {
            assert_eq!(*dpid, 1);
            assert_eq!(*priority, 50);
            assert_eq!(*winner, wm);
            assert_eq!(*masked, mm);
            // The witness sits in the overlap of both matchers.
            assert_eq!(witness.in_port, 1);
            assert_eq!(witness.key.tp_dst, 80);
        }
        v => panic!("expected ShadowedRule, got {v:#?}"),
    }
}

/// Invariant 8: a quarantined switch that still carries installed
/// entries and located hosts is not isolated.
#[test]
fn audit_refutes_quarantine_leak() {
    let fwd = FlowEntry::new(
        Match::any().with_in_port(1).with_dl_dst(mac(2)),
        out(2),
        100,
    );
    let rev = FlowEntry::new(
        Match::any().with_in_port(2).with_dl_dst(mac(1)),
        out(1),
        100,
    );
    let mut snap = tiny_snapshot(vec![fwd, rev]);
    // Same dataplane that audits clean below — except dpid 1 is now
    // supposed to be quarantined, so everything on it is a leak.
    snap.quarantined = vec![1];

    let vs = audit(&snap);
    assert_eq!(vs.len(), 1, "expected exactly one violation: {vs:#?}");
    match &vs[0] {
        Violation::QuarantineLeak {
            dpid,
            entries,
            hosts,
            owners,
        } => {
            assert_eq!(*dpid, 1);
            assert_eq!(*entries, 2);
            assert_eq!(hosts.as_slice(), &[mac(1), mac(2)]);
            assert!(owners.is_empty(), "no shard map in this snapshot");
        }
        v => panic!("expected QuarantineLeak, got {v:#?}"),
    }
}

/// A clean synthetic snapshot audits clean: direct delivery between
/// two hosts with consistent controller state produces no violations.
#[test]
fn audit_accepts_a_consistent_tiny_dataplane() {
    let fwd = FlowEntry::new(
        Match::any().with_in_port(1).with_dl_dst(mac(2)),
        out(2),
        100,
    );
    let rev = FlowEntry::new(
        Match::any().with_in_port(2).with_dl_dst(mac(1)),
        out(1),
        100,
    );
    let mut snap = tiny_snapshot(vec![fwd, rev]);
    snap.flows = vec![FlowView {
        key: key(1, 2),
        chain: Vec::new(),
        blocked: false,
    }];

    let vs = audit(&snap);
    assert!(vs.is_empty(), "clean dataplane flagged: {vs:#?}");
}

/// Blocks whose matcher is disjoint from a destination don't generate
/// false positives: a block pinned to one dst IP says nothing about
/// delivery to other hosts.
#[test]
fn block_pinned_to_other_destination_is_not_flagged() {
    let fwd = FlowEntry::new(
        Match::any().with_in_port(1).with_dl_dst(mac(2)),
        out(2),
        100,
    );
    let mut snap = tiny_snapshot(vec![fwd]);
    // Block A's traffic to 10.0.0.3 only; A -> B (10.0.0.2) stays legal.
    snap.blocks = vec![(
        1,
        Match::any()
            .with_dl_src(mac(1))
            .with_nw_dst(Ipv4Net::host(ip(3))),
    )];

    let vs = audit(&snap);
    assert!(vs.is_empty(), "disjoint block flagged: {vs:#?}");
}
