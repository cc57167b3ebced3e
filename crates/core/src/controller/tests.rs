//! The controller's handlers, driven without a simulator: each test
//! calls handlers with the simulated time and reads the controller's
//! books, its monitor and its outbox.

use super::outbox::tests::drain;
use super::session::SWITCH_TIMEOUT;
use super::*;
use crate::balance::{Grain, RoundRobin};
use crate::policy::PolicyRule;
use crate::store::StateStore;
use livesec_openflow::{attestation_tag, ForwardingAttestation};
use livesec_services::SE_CONTROL_MAC;

const IDS: ServiceType = ServiceType::IntrusionDetection;
const N_HOSTS: u64 = 4;

fn host(i: u64) -> MacAddr {
    MacAddr::from_u64(0xa0 + i % N_HOSTS)
}

fn key(src: u64, dst: u64, tp_dst: u16) -> FlowKey {
    FlowKey {
        vlan: None,
        dl_src: host(src),
        dl_dst: host(dst),
        dl_type: 0x0800,
        nw_src: Ipv4Addr::new(10, 0, 0, 1 + (src % N_HOSTS) as u8),
        nw_dst: Ipv4Addr::new(10, 0, 0, 1 + (dst % N_HOSTS) as u8),
        nw_proto: 6,
        tp_src: 40_000,
        tp_dst,
    }
}

/// Allow-all, with web traffic chained through the IDS.
fn policy() -> PolicyTable {
    let mut table = PolicyTable::allow_all();
    table.push(PolicyRule::named("web-ids").dst_port(80).chain(vec![IDS]));
    table
}

/// The channel of switch `dpid`.
fn node(dpid: u64) -> NodeId {
    NodeId::from_index(dpid as usize)
}

/// Switch `dpid`'s features reply, as its channel delivers it.
fn features(dpid: u64) -> Frame<'static> {
    Frame::Other(OfMessage::FeaturesReply {
        datapath_id: dpid,
        n_ports: 48,
    })
}

/// An IDS replica's heartbeat.
const ONLINE: SeMessage = SeMessage::Online {
    service: IDS,
    cert: 0,
    cpu: 10,
    mem: 0,
    pps: 0,
    bps: 0,
    total_pkts: 0,
};

/// Three switches registered through their handshakes at time zero,
/// four hosts (host `i` at switch `1 + i % 3`, port `10 + i`), two
/// IDS replicas; nothing queued.
fn campus() -> Controller {
    let mut c = Controller::new();
    c.set_policy(policy());
    c.set_balancer(LoadBalancer::new(RoundRobin::new(), Grain::Flow));
    for dpid in 1..=3 {
        c.on_message(SimTime::ZERO, node(dpid), features(dpid));
        c.topo.observe_lldp((0, 0), (dpid, 40));
    }
    for i in 0..N_HOSTS {
        let ip = Ipv4Addr::new(10, 0, 0, 1 + i as u8);
        let at = (1 + i % 3, 10 + i as u32);
        c.locations.learn(host(i), ip, at, SimTime::ZERO, true);
    }
    for (i, se) in [0xf1u64, 0xf2].into_iter().enumerate() {
        let mac = MacAddr::from_u64(se);
        let ip = Ipv4Addr::new(10, 0, 1, se as u8);
        c.locations
            .learn(mac, ip, (1, 30 + i as u32), SimTime::ZERO, true);
        c.locations.heartbeat(mac, &ONLINE, SimTime::ZERO);
    }
    drain(&mut c);
    c
}

/// Delivers switch `dpid`'s flow-stats reply reporting `stats`, read
/// in place as its channel delivers it.
fn reply_stats(c: &mut Controller, at: SimTime, dpid: u64, stats: Vec<FlowStats>) {
    let bytes = codec::encode(&OfMessage::StatsReply(StatsBody::Flow(stats)), 1);
    let (frame, _) = codec::read_frame(&bytes, &mut Check).expect("the switch's own encoding");
    c.on_message(at, node(dpid), frame);
}

/// Switch 1's uplink guard on `port`, as `desired_entries` lists it.
fn guard_on(port: u32) -> (Match, u16, u64) {
    let arp = EtherType::Arp.as_u16();
    let matcher = Match::any().with_in_port(port).with_dl_type(arp);
    (matcher, GUARD_PRIORITY, GUARD_COOKIE)
}

/// The flow-mod that installs switch 1's uplink guard on `port`: a
/// drop that never expires and reports nothing.
fn guard_add(port: u32) -> (NodeId, OfMessage) {
    let (matcher, priority, cookie) = guard_on(port);
    let add = OfMessage::FlowMod {
        command: FlowModCommand::Add,
        matcher,
        priority,
        actions: Vec::new().into(),
        idle_timeout: None,
        hard_timeout: None,
        cookie,
        notify_removed: false,
    };
    (node(1), add)
}

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

/// The frame of `k`'s first packet, as its sender emits it.
fn frame(k: &FlowKey) -> Vec<u8> {
    let pkt = PacketBuilder::tcp(k.dl_src, k.dl_dst)
        .ips(k.nw_src, k.nw_dst)
        .ports(k.tp_src, k.tp_dst)
        .build();
    wire::serialize(&pkt)
}

/// The `(matcher, priority, cookie)` of every flow-mod `Add` in `out`.
fn adds(out: &[(NodeId, OfMessage)]) -> Vec<(Match, u16, u64)> {
    out.iter()
        .filter_map(|(_, m)| match m {
            OfMessage::FlowMod {
                command: FlowModCommand::Add,
                matcher,
                priority,
                cookie,
                ..
            } => Some((*matcher, *priority, *cookie)),
            _ => None,
        })
        .collect()
}

/// A session ends when *both* of its ingress entries have reported:
/// the first removal books its direction and nothing else, the
/// second ends the flow once with both directions summed and
/// attributes it to its app and its user. Kills a finalize on the
/// first removal.
#[test]
fn a_session_ends_once_both_ingress_entries_have_reported() {
    let mut c = campus();
    let k = key(0, 1, 80);
    c.handle_flow(ms(0), 1, 10, k, &frame(&k));
    assert_eq!(c.active_flow_count(), 1);
    let ends = |c: &Controller| -> Vec<(FlowKey, u64, u64)> {
        c.monitor()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FlowEnd {
                    flow,
                    packets,
                    bytes,
                } => Some((flow, packets, bytes)),
                _ => None,
            })
            .collect()
    };

    c.handle_flow_removed(ms(2000), Match::exact(10, &k), INGRESS_COOKIE, 3, 300);
    assert!(ends(&c).is_empty());
    assert!(c.app_traffic().is_empty() && c.user_traffic().is_empty());
    assert_eq!(c.active_flow_count(), 1);

    let reply = Match::exact(11, &k.reversed());
    c.handle_flow_removed(ms(2100), reply, REVERSE_COOKIE, 2, 120);
    assert_eq!(ends(&c), [(k, 5, 420)]);
    let tally = TrafficTally {
        flows: 1,
        packets: 5,
        bytes: 420,
    };
    assert_eq!(c.app_traffic(), [("unclassified".to_owned(), tally)]);
    assert_eq!(c.user_traffic(), [(k.dl_src, tally)]);
    assert_eq!(c.active_flow_count(), 0);
}

/// The repair guard: a packet-in for a booked session within
/// [`REPAIR_GUARD`] of its installation raced the flow-mods and is
/// only released; past the guard the switch lost the entries, so
/// both programs and the block go back on. Kills dropping the
/// guard.
#[test]
fn a_booked_session_is_repaired_only_past_the_guard() {
    let mut c = campus();
    let (k, ids) = (key(0, 1, 80), MacAddr::from_u64(0xf1));
    let pkt = frame(&k);
    c.handle_flow(ms(0), 1, 10, k, &pkt);
    let programs = adds(&drain(&mut c));
    assert!(!programs.is_empty());

    c.handle_flow(ms(10), 1, 10, k, &pkt);
    let out = drain(&mut c);
    assert!(
        matches!(out.as_slice(), [(_, OfMessage::PacketOut { .. })]),
        "{out:?}"
    );
    assert_eq!(c.health_stats().flow_repairs, 0);

    let violation = Verdict::PolicyViolation {
        policy: "dlp".into(),
    };
    c.dispatch_verdict(ms(10), ids, k, violation);
    let block = adds(&drain(&mut c));
    assert_eq!(
        block,
        [(Match::exact(10, &k), BLOCK_PRIORITY, BLOCK_COOKIE)]
    );

    // A blocked flow's packet is repaired, never released.
    c.handle_flow(ms(61), 1, 10, k, &pkt);
    let out = drain(&mut c);
    assert_eq!(c.health_stats().flow_repairs, 1);
    let by_key = |v: &mut Vec<(Match, u16, u64)>| v.sort_by_key(|e| (e.1, e.2, e.0.to_string()));
    let (mut reinstalled, mut want) = (adds(&out), [programs, block].concat());
    by_key(&mut reinstalled);
    by_key(&mut want);
    assert_eq!(reinstalled, want);
    assert_eq!(out.len(), want.len(), "{out:?}");
}

/// A `syn-flood` verdict drops everything from the source at its
/// ingress as well as the reported flow: a flood rotates source
/// ports, so the per-flow drop alone stops one probe. Kills
/// skipping `block_source`.
#[test]
fn a_syn_flood_verdict_blocks_the_whole_source() {
    let mut c = campus();
    let (k, ids) = (key(0, 1, 80), MacAddr::from_u64(0xf1));
    let flood = Verdict::Malicious {
        attack: "syn-flood".into(),
        severity: 9,
    };
    c.dispatch_verdict(ms(0), ids, k, flood);

    let drops = [Match::any().with_dl_src(k.dl_src), Match::exact(10, &k)];
    assert_eq!(c.standing_blocks(), drops.map(|m| (1, m)));
    let queued = drops.map(|m| (m, BLOCK_PRIORITY, BLOCK_COOKIE));
    assert_eq!(adds(&drain(&mut c)), queued);
    assert_eq!(c.conntrack_stats().syn_floods, 1);
}

/// The phantom switch and the dpid hijack (ROADMAP 4a): a channel
/// bound to one datapath id cannot register another, nor take an id
/// a live channel holds — and is not harmed for having tried.
#[test]
fn features_reply_cannot_rename_a_channel_or_steal_a_live_id() {
    const FLIPPED: u64 = 1 ^ (0xff << 40);
    let mut c = Controller::new();
    let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
    let reply = |datapath_id| OfMessage::FeaturesReply {
        datapath_id,
        n_ports: 4,
    };
    // `a` is switch 1: registers, has its id bytes flipped in
    // flight, then answers the re-handshake genuinely. `b` is
    // switch 2, and then claims to be switch 1.
    let (a, b) = (NodeId::from_index(1), NodeId::from_index(2));
    for (peer, at, claim) in [(a, 1, 1), (b, 1, 2), (a, 10, FLIPPED), (b, 20, 1)] {
        assert_eq!(c.on_message(ms(at), peer, Frame::Other(reply(claim))), None);
    }

    assert_eq!(c.health_stats().switches_known, 2, "a phantom registered");
    assert_eq!(c.topology().dpid_of_node(a), Some(1));
    assert_eq!(c.topology().dpid_of_node(b), Some(2));
    assert_eq!(c.topology().switch(1).map(|s| s.node), Some(a), "hijacked");
    let rejected: Vec<_> = c
        .monitor()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::HandshakeRejected { claimed, bound } => Some((claimed, bound)),
            _ => None,
        })
        .collect();
    assert_eq!(rejected, [(FLIPPED, Some(1)), (1, Some(2))]);

    // The genuine reply afterwards is a plain re-registration: the
    // switch is audited like any reconnecting one.
    let audits = c.health_stats().audits;
    c.on_message(ms(40), a, Frame::Other(reply(1)));
    assert_eq!(c.health_stats().audits, audits + 1);
    assert_eq!(c.health_stats().switches_known, 2);
    assert_eq!(c.monitor().events().len(), 4, "two joins, two rejections");
}

/// Two sessions share a signature — the same addresses and ports from
/// different MACs. A verdict whose MACs steering rewrote names the
/// least of them, the key a scan of the books in key order finds
/// first, whichever was set up first; once that session ends, the
/// other; once both have, the verdict's own key. Kills an index that
/// keeps the first or the latest set-up, or forgets a tie when its
/// least key leaves.
#[test]
fn a_rewritten_verdict_finds_the_least_session_of_its_signature() {
    let k1 = key(0, 1, 80);
    let k2 = FlowKey {
        dl_src: host(2),
        ..k1
    };
    let seen = FlowKey {
        dl_dst: MacAddr::from_u64(0xf1),
        ..k1
    };
    let scan = |c: &Controller, reported: &FlowKey| {
        let same = |k: &&FlowKey| k.vlan == reported.vlan && flow_sig(k) == flow_sig(reported);
        c.active.keys().find(same).copied().unwrap_or(*reported)
    };
    for order in [[(k1, 1, 10), (k2, 3, 12)], [(k2, 3, 12), (k1, 1, 10)]] {
        let mut c = campus();
        for (t, (k, dpid, port)) in order.into_iter().enumerate() {
            c.handle_flow(ms(t as u64), dpid, port, k, &frame(&k));
        }
        assert_eq!(c.active_flow_count(), 2);
        assert_eq!(c.canonical_key(&seen), k1.min(k2));
        assert_eq!(c.canonical_key(&seen), scan(&c, &seen));
        let tagged = FlowKey {
            vlan: Some(9),
            ..seen
        };
        assert_eq!(c.canonical_key(&tagged), tagged, "another VLAN's flow");
        for (ended, left) in [(k1, k2), (k2, seen)] {
            assert!(c.retire_flow(&ended, None).is_some());
            assert_eq!(c.canonical_key(&seen), left);
            assert_eq!(c.canonical_key(&seen), scan(&c, &seen));
        }
    }
}

/// The `dpid` of every event `pick` matches, in history order.
fn dpids_of(c: &Controller, pick: impl Fn(&EventKind) -> Option<u64>) -> Vec<u64> {
    c.monitor()
        .events()
        .iter()
        .filter_map(|e| pick(&e.kind))
        .collect()
}

/// A dead switch's id stays bound to its first channel. A channel that
/// never registered and claims a dead switch's id would get that
/// switch's audit and every flow-mod addressed to it, and lock the real
/// switch out for good; it is refused, and the real switch rejoins.
/// Kills binding the id to its live holder only.
#[test]
fn a_dead_switchs_id_stays_bound_to_its_first_channel() {
    let (a, impostor) = (node(1), node(9));
    let mut c = Controller::new();
    c.on_message(ms(0), a, features(1));
    c.tick(ms(0) + SWITCH_TIMEOUT + SimDuration::from_millis(1));
    assert_eq!(c.topology().switch(1), None, "declared dead");

    c.on_message(ms(3500), impostor, features(1));
    let rejected: Vec<_> = c
        .monitor()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::HandshakeRejected { claimed, bound } => Some((claimed, bound)),
            _ => None,
        })
        .collect();
    assert_eq!(rejected, [(1, None)]);
    assert_eq!(c.topology().switch(1), None, "the impostor registered");
    assert_eq!(c.topology().dpid_of_node(impostor), None);

    c.on_message(ms(3600), a, features(1));
    assert_eq!(c.topology().switch(1).map(|s| s.node), Some(a));
    let ups = dpids_of(&c, |k| match k {
        EventKind::SwitchUp { dpid } => Some(*dpid),
        _ => None,
    });
    assert_eq!(ups, [1]);
    let h = c.health_stats();
    assert_eq!((h.switch_ups, h.audits, h.switches_known), (1, 1, 1));
}

/// An audit in flight lasts one registration. A live switch's repeat
/// handshake audits it; another one before the reply asks again but
/// counts no second audit; the reply ends it. Declared dead, the
/// switch loses its audit with its registration, so its rejoin counts
/// a fresh one. Kills a re-registration that resets the flag and a
/// flag that survives deregistration.
#[test]
fn an_audit_in_flight_lasts_one_registration() {
    let a = node(1);
    let mut c = Controller::new();
    let audited = |c: &mut Controller| {
        let sweeps = drain(c)
            .iter()
            .filter(|(_, m)| matches!(m, OfMessage::StatsRequest(StatsRequestKind::Flow(_))))
            .count();
        (c.health_stats().audits, sweeps)
    };
    c.on_message(ms(0), a, features(1));
    assert_eq!(audited(&mut c), (0, 0), "a first join is not audited");
    for at in [10, 20] {
        c.on_message(ms(at), a, features(1));
        assert_eq!(audited(&mut c), (1, 1), "handshake at {at} ms");
    }
    reply_stats(&mut c, ms(30), 1, Vec::new());
    c.on_message(ms(40), a, features(1));
    assert_eq!(audited(&mut c), (2, 1), "the reply ended the first audit");

    // Silent past the timeout with the second audit in flight.
    c.tick(ms(40) + SWITCH_TIMEOUT + SimDuration::from_millis(1));
    assert_eq!(c.health_stats().switch_downs, 1);
    c.on_message(ms(3500), a, features(1));
    assert_eq!(audited(&mut c), (3, 1), "the rejoin is audited afresh");
}

/// The liveness sweep declares silent switches dead in dpid order,
/// whatever order they registered in; their ids stay known.
#[test]
fn silent_switches_go_down_in_dpid_order() {
    let mut c = Controller::new();
    for dpid in [3, 1, 2] {
        c.on_message(ms(0), node(dpid), features(dpid));
    }
    c.tick(ms(0) + SWITCH_TIMEOUT + SimDuration::from_millis(1));
    let downs = dpids_of(&c, |k| match k {
        EventKind::SwitchDown { dpid } => Some(*dpid),
        _ => None,
    });
    assert_eq!(downs, [1, 2, 3]);
    let h = c.health_stats();
    assert_eq!((h.switches_online, h.switches_known), (0, 3));
}

/// A quarantine outlives the session it convicted, and standing blocks
/// outlive the quarantine. A forged-tag attestation quarantines switch
/// 1; its hello and echo are then dropped at the door and counted, and
/// it stays known though no longer online. Its blocks stay in its
/// desired state through the quarantine, the release and the rejoin.
#[test]
fn a_quarantine_outlives_its_session_and_blocks_outlive_the_quarantine() {
    let mut c = campus();
    let (k, ids) = (key(0, 1, 80), MacAddr::from_u64(0xf1));
    let flood = Verdict::Malicious {
        attack: "syn-flood".into(),
        severity: 9,
    };
    c.dispatch_verdict(ms(0), ids, k, flood);
    let blocks = c.standing_blocks();
    assert_eq!(blocks.len(), 2);
    let blocks_held = |c: &Controller| {
        let desired = c.desired_entries(1);
        let want = blocks
            .iter()
            .map(|(_, m)| (*m, BLOCK_PRIORITY, BLOCK_COOKIE));
        want.clone().all(|e| desired.contains(&e)) && c.standing_blocks() == blocks
    };
    assert!(blocks_held(&c));

    let forged = ForwardingAttestation {
        dpid: 1,
        in_port: 10,
        out_port: 40,
        cookie: INGRESS_COOKIE,
        flow: k,
        pkt_tag: 0,
        tag: attestation_tag(1, 10, 40, INGRESS_COOKIE) ^ 1,
    };
    c.on_message(
        ms(10),
        node(1),
        Frame::Other(OfMessage::Attestation(forged)),
    );
    assert_eq!(c.quarantined(), [1]);
    drain(&mut c);

    let hello = Frame::Other(OfMessage::Hello);
    assert_eq!(c.on_message(ms(20), node(1), hello), None);
    let echo = Frame::Other(OfMessage::EchoRequest(7));
    assert_eq!(c.on_message(ms(30), node(1), echo), None, "echo answered");
    assert!(drain(&mut c).is_empty());
    let acct = c.accountability_stats();
    assert_eq!((acct.quarantined_now, acct.quarantine_gate_drops), (1, 2));
    let h = c.health_stats();
    assert_eq!((h.switches_known, h.switches_online), (3, 2));
    assert!(blocks_held(&c), "during the quarantine");

    assert!(c.release_quarantine(1));
    assert!(!c.release_quarantine(1), "released twice");
    assert!(blocks_held(&c), "after the release");
    c.on_message(ms(40), node(1), Frame::Other(OfMessage::Hello));
    c.on_message(ms(50), node(1), features(1));
    assert_eq!(c.topology().dpid_of_node(node(1)), Some(1));
    let h = c.health_stats();
    assert_eq!(
        (h.switch_ups, h.switches_known, h.switches_online),
        (1, 3, 3)
    );
    assert_eq!(c.accountability_stats().quarantined_now, 0);
    assert!(blocks_held(&c), "after the rejoin");
}

/// An IDS heartbeat frame from `mac`, at IDS `0xf1`'s address.
fn heartbeat(mac: MacAddr) -> Vec<u8> {
    let pkt = PacketBuilder::udp(mac, SE_CONTROL_MAC)
        .ips(Ipv4Addr::new(10, 0, 1, 0xf1), Ipv4Addr::BROADCAST)
        .ports(SE_CONTROL_PORT, SE_CONTROL_PORT)
        .payload_bytes(ONLINE.encode())
        .build();
    wire::serialize(&pkt)
}

/// Takes port `port_no` of switch 1 down at `at`.
fn port_down(c: &mut Controller, at: SimTime, port_no: u32) {
    let down = OfMessage::PortStatus {
        reason: PortStatusReason::Delete,
        port_no,
    };
    c.on_message(at, node(1), Frame::Other(down));
}

/// An element evicted with its port is located again by the heartbeat
/// that brings it back online: the location rule covers an element's
/// own control packets, so it is never online and nowhere, and its
/// chained flows have a hop to steer through. Kills a heartbeat that
/// only refreshes a location still on the books.
#[test]
fn a_heartbeat_locates_the_element_it_brings_back_online() {
    let mut c = campus();
    let ids = MacAddr::from_u64(0xf1);
    port_down(&mut c, ms(10), 30);
    assert!(!c.locations().get(ids).is_some_and(|se| se.online));
    assert_eq!(c.hop_of(ids), None, "evicted with its port");

    c.on_packet_in(ms(20), 1, 30, &heartbeat(ids));
    assert!(c.locations().get(ids).is_some_and(|se| se.online));
    let hop = c.hop_of(ids).map(|h| (h.dpid, h.port));
    assert_eq!(hop, Some((1, 30)), "online but located nowhere");
}

/// A port-down removes an element's view with its location: the
/// element leaves, then goes offline, and nothing of it stays behind.
/// Kills a departure that keeps an offline view of the element.
#[test]
fn a_departed_element_leaves_no_view() {
    let mut c = campus();
    let ids = MacAddr::from_u64(0xf1);
    port_down(&mut c, ms(10), 30);
    assert_eq!(c.locations().get(ids), None);
    let events = c.monitor().events();
    let last: Vec<&EventKind> = events.iter().rev().take(2).rev().map(|e| &e.kind).collect();
    let (leave, offline) = (
        EventKind::UserLeave { mac: ids },
        EventKind::SeOffline { mac: ids },
    );
    assert_eq!(last, [&leave, &offline]);
}

/// An element that departs with a flow and comes back is picked as one
/// that never left: its departure retired the flow, so the view its
/// heartbeat rebuilds equals the one that stayed. Kills a departure
/// that keeps the element's view, and one whose flow count outlives
/// its flows.
#[test]
fn a_returning_element_is_picked_as_if_it_never_left() {
    let ids = MacAddr::from_u64(0xf1);
    let (mut gone, mut stayed) = (campus(), campus());
    gone.set_balancer(LoadBalancer::min_load());
    stayed.set_balancer(LoadBalancer::min_load());
    let k = key(0, 1, 80);
    gone.handle_flow(ms(5), 1, 10, k, &frame(&k));
    let outstanding = |c: &Controller| c.locations().get(ids).map(|se| se.outstanding_flows);
    assert_eq!(outstanding(&gone), Some(1), "the flow went through it");
    port_down(&mut gone, ms(10), 30);
    assert_eq!(outstanding(&gone), None, "gone with its port");

    for c in [&mut gone, &mut stayed] {
        c.on_packet_in(ms(20), 1, 30, &heartbeat(ids));
    }
    assert_eq!(gone.locations().get(ids), stayed.locations().get(ids));
    for user in 0..N_HOSTS {
        let k = key(user, user + 1, 80);
        assert_eq!(gone.pick_element(IDS, &k), stayed.pick_element(IDS, &k));
    }
}

/// An ARP speaks only for its frame's sender: host 1, at switch 2 port
/// 11, claiming host 0's MAC in a gratuitous ARP moves nobody. Kills a
/// location rule that takes the ARP's sender field on trust.
#[test]
fn an_arp_claiming_another_mac_moves_nobody() {
    let mut c = campus();
    let mut forged = arp_frame(ArpPacket::gratuitous(host(0), Ipv4Addr::new(10, 0, 0, 1)));
    forged.eth.src = host(1);
    c.on_packet_in(ms(10), 2, 11, &wire::serialize(&forged));
    let at = c.locations().lookup(host(0)).map(|l| (l.dpid, l.port));
    assert_eq!(at, Some((1, 10)), "host 0 hijacked");
    assert!(drain(&mut c).is_empty(), "nothing announced");
}

/// The first LLDP probe that names a switch's uplink queues its guard,
/// a drop of ARP arriving there below every steering entry, and one
/// that names the same uplink again queues nothing. Kills a guard that
/// waits for the audit, and one re-sent on every probe.
#[test]
fn lldp_naming_an_uplink_queues_its_guard() {
    let mut c = Controller::new();
    c.on_message(ms(0), node(1), features(1));
    drain(&mut c);
    c.observe_lldp(ms(10), (2, 40), (1, 40));
    assert_eq!(drain(&mut c), [guard_add(40)]);
    c.observe_lldp(ms(20), (3, 40), (1, 40));
    assert!(drain(&mut c).is_empty(), "the uplink did not move");
}

/// LLDP that moves a switch's uplink strictly deletes the old port's
/// guard, then installs the new one. Kills a move that leaves the old
/// guard dropping ARP on what is now an access port.
#[test]
fn an_uplink_move_moves_its_guard() {
    let mut c = Controller::new();
    c.on_message(ms(0), node(1), features(1));
    c.observe_lldp(ms(10), (2, 40), (1, 40));
    drain(&mut c);
    c.observe_lldp(ms(20), (2, 40), (1, 41));
    let (old, priority, _) = guard_on(40);
    let delete = (node(1), delete_strict(&old, priority).to_message());
    assert_eq!(drain(&mut c), [delete, guard_add(41)]);
    assert_eq!(c.desired_entries(1), [guard_on(41)]);
}

/// The guard is desired state: it outlives the session, so the rejoin
/// audit of a switch declared dead, whose crash wiped its table,
/// reinstalls it before LLDP has re-learned the uplink, and the
/// re-learning then queues nothing. Kills a guard read from the
/// session's uplink, which the audit would find missing from its
/// desired state.
#[test]
fn the_rejoin_audit_reinstalls_the_guard() {
    let mut c = Controller::new();
    c.on_message(ms(0), node(1), features(1));
    c.observe_lldp(ms(10), (2, 40), (1, 40));
    assert_eq!(c.desired_entries(1), [guard_on(40)]);
    c.tick(ms(10) + SWITCH_TIMEOUT + SimDuration::from_millis(1));
    assert_eq!(c.health_stats().switch_downs, 1);
    c.on_message(ms(3500), node(1), features(1));
    assert_eq!(c.topology().uplink_of(1), None, "not yet re-learned");
    assert_eq!(c.desired_entries(1), [guard_on(40)]);
    drain(&mut c);

    reply_stats(&mut c, ms(3510), 1, Vec::new());
    let reinstalled: Vec<_> = drain(&mut c)
        .into_iter()
        .filter(|(_, m)| matches!(m, OfMessage::FlowMod { .. }))
        .collect();
    assert_eq!(reinstalled, [guard_add(40)]);
    assert_eq!(c.health_stats().flows_reinstalled, 1);
    c.observe_lldp(ms(3520), (2, 40), (1, 40));
    assert!(drain(&mut c).is_empty(), "the guard already stands");
}
