//! The control channel's allocation floor: `codec::encode` makes one
//! allocation per frame, of exactly the frame's size, and appending a
//! frame to a buffer that already has room makes none — the owned
//! writer, the borrowed flow-mod and the in-place packet-out alike.
//! The controller's outbox appends every frame of a dispatch to one
//! retained buffer, so these are its per-frame costs. Every control
//! message travels in a buffer the simulator recycled from a delivered
//! one, so on a warm `World` a message that fits its buffer allocates
//! nothing.
//!
//! On the switch side: a warm flow table files and replaces exact
//! entries without allocating, a packet-in is one allocation of its
//! frame's size into an empty buffer and none into a warm one, a
//! received batch of adds and a barrier costs nothing on a warm world
//! while every list fits inline in its `ActionList` (and one
//! allocation per entry whose list spills), and a packet-out costs
//! only the packet it emits.
//!
//! An audit's flow-stats reply builds no list: the switch writes it
//! from its table into a warm buffer without allocating, and the
//! controller reads its entries in place.
//!
//! On the controller side, a packet-in is read and parsed in place,
//! with no copy of its frame or its payload, and the packet-out that
//! releases a flow's first packet carries the delivered bytes, which
//! are the bytes of the parsed packet re-serialized. A flow set-up
//! allocates per flow, not per entry: `compile_path` is one
//! allocation, its entry list, `engine::decide` of a one-service
//! chained flow is seven, and a whole direct set-up at a warm
//! controller is only its decision's five.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, Allocated};
use livesec::engine::{self, EngineDecision};
use livesec::policy::PolicyRule;
use livesec::routing::{compile_path, Hop, SteeringProgram, SwitchEntry};
use livesec::store::NetworkState;
use livesec::Controller;
use livesec_net::packet::{arp_frame, lldp_frame};
use livesec_net::{wire, ArpPacket, FlowKey, LldpFrame, MacAddr, Packet, PacketBuilder};
use livesec_openflow::codec::{self, FlowModRef};
use livesec_openflow::message::{
    FlowModCommand, FlowRemovedReason, FlowStats, ForwardingAttestation, PacketInReason, PortStats,
    PortStatusReason, StatsBody, StatsRequestKind,
};
use livesec_openflow::{
    Action, ActionList, FlowEntry, FlowTable, InsertOutcome, Match, OfMessage, OutPort,
    RemovedEntry, SwitchChannel, INLINE_ACTIONS,
};
use livesec_services::{SeMessage, ServiceType};
use livesec_sim::{Ctx, LinkSpec, Node, NodeId, PortId, SimDuration, SimTime, World};
use livesec_switch::AsSwitch;
use std::any::Any;
use std::mem::size_of;
use std::net::Ipv4Addr;

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

fn flow() -> FlowKey {
    FlowKey {
        vlan: Some(7),
        dl_src: MacAddr::from_u64(0x11),
        dl_dst: MacAddr::from_u64(0x22),
        dl_type: 0x0800,
        nw_src: ip("10.0.0.1"),
        nw_dst: ip("10.0.0.2"),
        nw_proto: 6,
        tp_src: 1000,
        tp_dst: 80,
    }
}

fn actions() -> Vec<Action> {
    vec![
        Action::SetDlDst(MacAddr::from_u64(0xfe)),
        Action::SetVlan(9),
        Action::Output(OutPort::Physical(7)),
    ]
}

/// A 1 400-byte TCP segment: the largest frame a packet-in carries in
/// the workloads.
fn full_segment() -> Packet {
    PacketBuilder::tcp(MacAddr::from_u64(1), MacAddr::from_u64(2))
        .ips(ip("10.0.0.1"), ip("10.0.0.2"))
        .ports(1234, 80)
        .payload_bytes(vec![0x5a; 1400])
        .build()
}

/// One message of every kind, and the large ones the workloads send.
fn messages() -> Vec<OfMessage> {
    let m = Match::exact(3, &flow());
    let stats = FlowStats {
        matcher: m,
        priority: 1,
        cookie: 2,
        packet_count: 3,
        byte_count: 4,
        duration: 5,
    };
    let port_stats = PortStats {
        port_no: 1,
        rx_packets: 2,
        tx_packets: 3,
        rx_bytes: 4,
        tx_bytes: 5,
        drops: 6,
    };
    vec![
        OfMessage::Hello,
        OfMessage::EchoRequest(1),
        OfMessage::EchoReply(2),
        OfMessage::FeaturesRequest,
        OfMessage::FeaturesReply {
            datapath_id: 9,
            n_ports: 24,
        },
        OfMessage::PacketIn {
            in_port: 5,
            reason: PacketInReason::NoMatch,
            data: wire::serialize(&full_segment()),
        },
        OfMessage::FlowRemoved {
            matcher: m,
            cookie: 1,
            priority: 2,
            reason: FlowRemovedReason::IdleTimeout,
            packet_count: 3,
            byte_count: 4,
        },
        OfMessage::PortStatus {
            reason: PortStatusReason::Delete,
            port_no: 3,
        },
        OfMessage::PacketOut {
            in_port: Some(2),
            actions: actions().into(),
            data: wire::serialize(&full_segment()),
        },
        OfMessage::add_flow(m, actions(), 100),
        OfMessage::delete_flows(Match::any()),
        OfMessage::StatsRequest(StatsRequestKind::Flow(m)),
        OfMessage::StatsRequest(StatsRequestKind::Port(None)),
        OfMessage::StatsRequest(StatsRequestKind::Description),
        OfMessage::StatsReply(StatsBody::Flow(vec![stats; 900])),
        OfMessage::StatsReply(StatsBody::Port(vec![port_stats; 48])),
        OfMessage::StatsReply(StatsBody::Description {
            manufacturer: "LiveSec".into(),
            hardware: "sim".into(),
            software: "model".into(),
        }),
        OfMessage::BarrierRequest,
        OfMessage::BarrierReply,
        OfMessage::Attestation(ForwardingAttestation {
            dpid: 3,
            in_port: 2,
            out_port: 1,
            cookie: 77,
            flow: flow(),
            pkt_tag: 0xfeed,
            tag: 0xbeef,
        }),
    ]
}

/// What `write` allocates appending to a buffer that already held a
/// frame as large, after a prefix it must not disturb.
fn warm(name: &'static str, write: impl Fn(&mut Vec<u8>)) -> Allocated {
    let mut buf = vec![0xab; 5];
    write(&mut buf);
    buf.truncate(5);
    measure(name, || write(&mut buf))
}

#[test]
fn encode_allocates_once_at_the_frames_exact_size() {
    for msg in messages() {
        let mut frame = Vec::new();
        let got = measure("codec::encode", || frame = codec::encode(&msg, 7));
        assert_eq!(
            got,
            Allocated {
                calls: 1,
                bytes: frame.len()
            },
            "{msg:?}"
        );
        assert_eq!(frame.capacity(), frame.len());
    }
}

#[test]
fn encode_into_a_warm_buffer_allocates_nothing() {
    for msg in messages() {
        let got = warm("codec::encode_into", |buf| codec::encode_into(&msg, 7, buf));
        assert_eq!(got.calls, 0, "{msg:?}");
    }
}

#[test]
fn the_borrowed_set_up_encoders_allocate_nothing_on_a_warm_buffer() {
    let m = Match::exact(3, &flow());
    let actions = actions();
    for command in [FlowModCommand::Add, FlowModCommand::DeleteStrict] {
        let fm = FlowModRef {
            command,
            matcher: &m,
            priority: 100,
            actions: &actions,
            idle_timeout: Some(300_000_000),
            hard_timeout: None,
            cookie: 5,
            notify_removed: true,
        };
        let got = warm("FlowModRef::encode_into", |buf| fm.encode_into(7, buf));
        assert_eq!(got.calls, 0, "{command:?}");
    }
    // Every body kind, serialized into the payload with its checksums.
    let packets = [
        full_segment(),
        PacketBuilder::udp(MacAddr::from_u64(3), MacAddr::from_u64(4))
            .ips(ip("10.1.0.1"), ip("10.1.0.2"))
            .ports(5353, 53)
            .vlan(100)
            .payload_len(512)
            .build(),
        arp_frame(ArpPacket::request(
            MacAddr::from_u64(9),
            ip("10.0.0.9"),
            ip("10.0.0.1"),
        )),
        lldp_frame(MacAddr::from_u64(77), LldpFrame::new(0xabcdef, 12)),
    ];
    for pkt in &packets {
        let got = warm("codec::encode_packet_out_into", |buf| {
            codec::encode_packet_out_into(Some(2), &actions, pkt, 7, buf);
        });
        assert_eq!(got.calls, 0, "{pkt:?}");
    }
}

// ---- the switch side: the table, the packet-in, the received batch ----

fn exact_entry(tp_src: u16, port: u32) -> FlowEntry {
    prioritized(tp_src, port, 10)
}

fn prioritized(tp_src: u16, port: u32, priority: u16) -> FlowEntry {
    let key = FlowKey { tp_src, ..flow() };
    FlowEntry::new(
        Match::exact(2, &key),
        vec![Action::Output(OutPort::Physical(port))],
        priority,
    )
}

#[test]
fn a_warm_table_files_exact_entries_without_allocating() {
    let mut table = FlowTable::new();
    for round in 0..2 {
        for i in 0..16 {
            table.insert(exact_entry(i, 3));
        }
        let removed = table.remove(&Match::any(), false, None);
        assert_eq!(removed.len(), 16, "round {round}");
    }
    // Fresh, then the same key again (replace), then a second key and
    // one that shares the first's `FlowKey` at another priority, so a
    // chain holds two slots.
    for (entry, outcome) in [
        (exact_entry(1, 3), InsertOutcome::Added),
        (exact_entry(1, 4), InsertOutcome::Replaced),
        (exact_entry(2, 3), InsertOutcome::Added),
        (prioritized(1, 5, 20), InsertOutcome::Added),
    ] {
        let mut got = None;
        let a = measure("FlowTable::insert", || got = Some(table.insert(entry)));
        assert_eq!(got, Some(outcome));
        assert_eq!(a.calls, 0, "{outcome:?}");
    }
    // Removing an exact entry allocates only the list it returns, sized
    // for the one entry.
    for priority in [10, 20] {
        let m = exact_entry(1, 3).matcher;
        let mut removed = Vec::new();
        let a = measure("FlowTable::remove", || {
            removed = table.remove(&m, true, Some(priority))
        });
        assert_eq!(removed.len(), 1);
        assert_eq!(
            a,
            Allocated {
                calls: 1,
                bytes: size_of::<RemovedEntry>()
            }
        );
    }
    assert_eq!(table.len(), 1);
}

/// The packets a packet-in carries in the workloads: a full segment,
/// an ARP request, an LLDP probe.
fn punted() -> [Packet; 3] {
    [
        full_segment(),
        arp_frame(ArpPacket::request(
            MacAddr::from_u64(9),
            ip("10.0.0.9"),
            ip("10.0.0.1"),
        )),
        lldp_frame(MacAddr::from_u64(77), LldpFrame::new(0xabcdef, 12)),
    ]
}

#[test]
fn a_packet_in_allocates_once_at_the_frames_exact_size() {
    let mut channel = SwitchChannel::new(7, 4);
    for pkt in &punted() {
        let mut frame = Vec::new();
        let got = measure("SwitchChannel::packet_in", || {
            channel.packet_in(2, PacketInReason::NoMatch, pkt, &mut frame)
        });
        assert_eq!(
            got,
            Allocated {
                calls: 1,
                bytes: frame.len()
            }
        );
        assert_eq!(frame.capacity(), frame.len());
    }
}

#[test]
fn a_packet_in_into_a_warm_buffer_allocates_nothing() {
    let mut channel = SwitchChannel::new(7, 4);
    // A recycled buffer: emptied, with the capacity of the largest.
    let mut buf = Vec::new();
    channel.packet_in(2, PacketInReason::NoMatch, &full_segment(), &mut buf);
    for pkt in &punted() {
        buf.clear();
        let got = measure("SwitchChannel::packet_in", || {
            channel.packet_in(2, PacketInReason::NoMatch, pkt, &mut buf)
        });
        assert_eq!(got.calls, 0, "{pkt:?}");
        let owned = OfMessage::PacketIn {
            in_port: 2,
            reason: PacketInReason::NoMatch,
            data: wire::serialize(pkt),
        };
        assert_eq!(codec::decode(&buf).map(|(m, _)| m), Ok(owned));
    }
}

/// A stand-in peer that pushes one prepared payload per timer (its
/// token indexes `payloads`) and counts what comes back. Neither
/// allocates: the payload moves out, the reply is only counted.
struct Pusher {
    peer: Option<NodeId>,
    payloads: Vec<Vec<u8>>,
    replies: usize,
}

impl Node for Pusher {
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let payload = std::mem::take(&mut self.payloads[token as usize]);
        ctx.send_control(self.peer.unwrap(), payload);
    }
    fn on_control(&mut self, _ctx: &mut Ctx<'_>, _peer: NodeId, _bytes: &[u8]) {
        self.replies += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Absorbs frames.
struct Drain;

impl Node for Drain {
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A switch that receives `payloads` one every 10 ms from a [`Pusher`]
/// over a 1 ms control channel, with a [`Drain`] on port 3. Returns
/// what the switch's handling of each payload allocated and the
/// replies it drew.
fn switch_receives(payloads: Vec<Vec<u8>>) -> (Vec<Allocated>, usize) {
    let (got, replies, ..) = receives(payloads, |ctrl| AsSwitch::new(7, 4).with_controller(ctrl));
    (got, replies)
}

/// `node` receiving `payloads` one every 10 ms from a [`Pusher`] over a
/// 1 ms control channel, with a [`Drain`] on its port 3; `node` is
/// built knowing the pusher's id. Returns what `node`'s handling of
/// each payload allocated, the replies it drew, the world and `node`'s
/// id.
fn receives<N: Node>(
    payloads: Vec<Vec<u8>>,
    node: impl FnOnce(NodeId) -> N,
) -> (Vec<Allocated>, usize, World, NodeId) {
    let ms = SimDuration::from_millis;
    let mut world = World::new(1);
    world.set_control_latency(ms(1));
    let n = payloads.len();
    let pusher = world.add_node(Pusher {
        peer: None,
        payloads,
        replies: 0,
    });
    let id = world.add_node(node(pusher));
    let drain = world.add_node(Drain);
    world.connect(drain, PortId(1), id, PortId(3), LinkSpec::gigabit());
    world.node_mut::<Pusher>(pusher).peer = Some(id);
    let mut got = Vec::new();
    for k in 0..n {
        // Sent at 10 ms steps, so it is in flight at +0.5 ms, handled
        // at +1 ms and its reply lands at +2 ms: the measured window
        // holds the node's dispatch alone. The switch's and the
        // controller's first housekeeping tick is at 100 ms.
        let sent = SimTime::ZERO + ms(10 * (k as u64 + 1));
        world.schedule_timer_at(pusher, sent, k as u64);
        world.run_until(sent + SimDuration::from_micros(500));
        got.push(measure("Node::on_control", || {
            world.run_until(sent + SimDuration::from_micros(1500));
        }));
    }
    world.run_for(ms(5));
    let replies = world.node::<Pusher>(pusher).replies;
    (got, replies, world, id)
}

fn batch(msgs: &[OfMessage]) -> Vec<u8> {
    let mut payload = Vec::new();
    for (xid, m) in (1..).zip(msgs) {
        codec::encode_into(m, xid, &mut payload);
    }
    payload
}

#[test]
fn a_batch_of_adds_on_a_warm_world_costs_one_allocation_per_spilled_list() {
    const N: u16 = 6;
    let spilled = INLINE_ACTIONS + 1;
    let adds = |from: u16, actions: usize| -> Vec<OfMessage> {
        (from..from + N)
            .map(|i| {
                let e = exact_entry(i, 3);
                let out = vec![Action::Output(OutPort::Physical(3)); actions];
                OfMessage::add_flow(e.matcher, out, e.priority)
            })
            .chain([OfMessage::BarrierRequest])
            .collect()
    };
    let deletes: Vec<OfMessage> = (0..N)
        .map(|i| OfMessage::FlowMod {
            command: FlowModCommand::DeleteStrict,
            matcher: exact_entry(i, 3).matcher,
            priority: 10,
            actions: ActionList::new(),
            idle_timeout: None,
            hard_timeout: None,
            cookie: 0,
            notify_removed: false,
        })
        .collect();
    // Warm the table (and the switch's action buffer, to the longest
    // list), empty it, then fill it with other keys; then replace
    // those, twice.
    let (got, replies) = switch_receives(vec![
        batch(&adds(0, spilled)),
        batch(&deletes),
        batch(&adds(N, 1)),
        batch(&adds(N, INLINE_ACTIONS)),
        batch(&adds(N, spilled)),
    ]);
    assert_eq!(
        replies,
        1 + 4,
        "the hello, then a barrier reply per add batch"
    );
    // Lists that fit inline live in their entries, and the barrier
    // reply travels in a delivered payload's buffer: nothing at all.
    for round in [2, 3] {
        assert_eq!(
            got[round],
            Allocated { calls: 0, bytes: 0 },
            "round {round}"
        );
    }
    // A longer list is one boxed slice per entry, of its exact size.
    assert_eq!(
        got[4],
        Allocated {
            calls: usize::from(N),
            bytes: usize::from(N) * spilled * size_of::<Action>()
        }
    );
}

// ---- the controller side: the packet-in read, a flow set-up's
// decision and programs ----

#[test]
fn the_controllers_packet_in_read_copies_nothing() {
    let frames: Vec<Vec<u8>> = punted()
        .iter()
        .map(|pkt| {
            let mut frame = Vec::new();
            SwitchChannel::new(7, 4).packet_in(2, PacketInReason::NoMatch, pkt, &mut frame);
            frame
        })
        .collect();
    let n = frames.len();
    // From a channel that never finished the features handshake, each
    // packet-in is read, counted and dropped: the dispatch is the read
    // alone, and the packet stays in the delivered bytes.
    let (got, replies, world, ctrl) = receives(frames, |_| Controller::new());
    assert_eq!(world.node::<Controller>(ctrl).packet_ins, n as u64);
    assert_eq!(replies, 0);
    for (k, a) in got.iter().enumerate() {
        assert_eq!(*a, Allocated { calls: 0, bytes: 0 }, "packet-in {k}");
    }
}

/// An audit's flow-stats reply builds no list on either side: the
/// switch writes it from its table's entries straight into a warm
/// buffer, to the bytes of the owned reply, and the controller reads
/// the entries in place.
#[test]
fn an_audits_flow_stats_reply_is_written_and_read_without_a_list() {
    let mut table = FlowTable::new();
    for tp_src in 0..12 {
        table.insert(exact_entry(tp_src, 3));
    }
    let stats = || {
        table.iter().map(|e| FlowStats {
            matcher: e.matcher,
            priority: e.priority,
            cookie: e.cookie,
            packet_count: e.packet_count,
            byte_count: e.byte_count,
            duration: 5,
        })
    };
    let got = warm("codec::encode_flow_stats_into", |buf| {
        codec::encode_flow_stats_into(stats(), 7, buf);
    });
    assert_eq!(got.calls, 0);
    let mut frame = Vec::new();
    codec::encode_flow_stats_into(stats(), 7, &mut frame);
    let owned = OfMessage::StatsReply(StatsBody::Flow(stats().collect()));
    assert_eq!(frame, codec::encode(&owned, 7));

    let mut same = 0;
    let got = measure("codec::read_frame", || {
        if let Ok((codec::Frame::FlowStats(read), _)) = codec::read_frame(&frame, &mut codec::Check)
        {
            same = read.iter().zip(stats()).filter(|(a, b)| a == b).count();
        }
    });
    assert_eq!((got.calls, same), (0, 12));
}

fn hop(mac: u64, dpid: u64, port: u32) -> Hop {
    Hop {
        mac: MacAddr::from_u64(mac),
        dpid,
        port,
    }
}

#[test]
fn compile_path_allocates_once_for_any_path() {
    let key = FlowKey {
        dl_src: MacAddr::from_u64(0xa1),
        dl_dst: MacAddr::from_u64(0xb1),
        ..flow()
    };
    // Source and destination on switches 1 and 2, with up to four
    // elements between them, alternating between the two switches, so
    // the path has both same-switch and cross-fabric segments.
    for elements in 0..=4u64 {
        let mut hops = vec![hop(0xa1, 1, 2)];
        hops.extend((0..elements).map(|i| hop(0xe1 + i, 1 + i % 2, 30 + i as u32)));
        hops.push(hop(0xb1, 2, 3));
        let mut program = None;
        let got = measure("compile_path", || {
            program = Some(compile_path(&key, &hops, |_| Some(40), 100).unwrap());
        });
        let program = program.unwrap();
        // The entry list, sized once for an entry and a relay per
        // segment; every entry's actions fit inline.
        assert_eq!(
            got,
            Allocated {
                calls: 1,
                bytes: 2 * (hops.len() - 1) * size_of::<SwitchEntry>()
            },
            "{} hops",
            hops.len()
        );
        assert!(program.entries.iter().all(|e| !e.actions.is_spilled()));
    }
}

#[test]
fn a_chained_decision_on_a_warm_store_allocates_seven_times() {
    const IDS: ServiceType = ServiceType::IntrusionDetection;
    let mut store = NetworkState::new();
    for (mac, addr, at) in [(0xa1, "10.0.0.1", (1, 2)), (0xb1, "10.0.0.2", (2, 3))] {
        let mac = MacAddr::from_u64(mac);
        store
            .locations
            .learn(mac, ip(addr), at, SimTime::ZERO, true);
    }
    store.set_uplink(1, 40);
    store.set_uplink(2, 40);
    store.policy.push(
        PolicyRule::named("web-ids")
            .proto(6)
            .dst_port(80)
            .chain(vec![IDS]),
    );
    for (mac, port) in [(0xe1, 30), (0xe2, 31)] {
        let online = SeMessage::Online {
            service: IDS,
            cert: 0,
            cpu: 10,
            mem: 0,
            pps: 0,
            bps: 0,
            total_pkts: 0,
        };
        let (se, addr) = (MacAddr::from_u64(mac), Ipv4Addr::new(10, 0, 1, mac as u8));
        store
            .locations
            .learn(se, addr, (1, port), SimTime::ZERO, true);
        store.locations.heartbeat(se, &online, SimTime::ZERO);
    }
    let key = FlowKey {
        dl_src: MacAddr::from_u64(0xa1),
        dl_dst: MacAddr::from_u64(0xb1),
        vlan: None,
        ..flow()
    };
    // The first decision warms the balancer's candidate buffer.
    engine::decide(&mut store, &key);
    let mut decision = None;
    let got = measure("engine::decide", || {
        decision = Some(engine::decide(&mut store, &key))
    });
    assert!(matches!(decision, Some(EngineDecision::Steer { .. })));
    // 1. the policy's chain, cloned: the decision's `services`;
    // 2. the picked `elements`;
    // 3. the hop list, reversed in place for the reverse program;
    // 4.–5. the forward and the reverse program's entry lists;
    // 6.–7. the `Rc` of each program.
    // The matched rule's name stays borrowed: only a denial owns it.
    let rc = 2 * size_of::<usize>() + size_of::<SteeringProgram>();
    assert_eq!(
        got,
        Allocated {
            calls: 7,
            bytes: size_of::<ServiceType>()
                + size_of::<MacAddr>()
                + 3 * size_of::<Hop>()
                + 2 * (4 * size_of::<SwitchEntry>())
                + 2 * rc
        }
    );
}

#[test]
fn a_packet_out_allocates_only_the_packet_it_emits() {
    let out = vec![Action::Output(OutPort::Physical(3))];
    let packet_out = |pkt: &Packet| OfMessage::PacketOut {
        in_port: None,
        actions: out.clone().into(),
        data: wire::serialize(pkt),
    };
    let segment = full_segment();
    let arp = arp_frame(ArpPacket::request(
        MacAddr::from_u64(9),
        ip("10.0.0.9"),
        ip("10.0.0.1"),
    ));
    let (got, _) = switch_receives(vec![
        batch(&[packet_out(&segment)]),
        batch(&[packet_out(&segment)]),
        batch(&[packet_out(&arp)]),
    ]);
    for (round, pkt) in [(1, &segment), (2, &arp)] {
        let bytes = wire::serialize(pkt);
        let parsed = measure("wire::parse", || {
            wire::parse(&bytes).unwrap();
        });
        assert_eq!(got[round], parsed, "round {round}");
    }
}

#[test]
fn a_flow_set_ups_packet_in_parse_copies_nothing() {
    for pkt in &punted() {
        let frame = wire::serialize(pkt);
        let mut parsed = None;
        let got = measure("wire::parse_in_place", || {
            parsed = Some(wire::parse_in_place(&frame).unwrap());
        });
        assert_eq!(got, Allocated { calls: 0, bytes: 0 }, "{pkt:?}");
        let (headers, content) = parsed.unwrap();
        assert_eq!(FlowKey::of(&headers), FlowKey::of(pkt));
        assert_eq!(headers.wire_len(), pkt.wire_len());
        // The payload is the frame's own bytes, not a copy of them.
        let owned = wire::parse(&frame).unwrap();
        let want = owned.tcp().map_or(&[][..], |t| t.payload.content());
        assert_eq!(content, want);
        assert!(content.is_empty() || frame.as_ptr_range().contains(&content.as_ptr()));
    }
}

#[test]
fn a_released_frame_is_the_packet_out_of_its_parsed_packet() {
    let actions = actions();
    let mut shapes = punted().to_vec();
    shapes.push(
        PacketBuilder::udp(MacAddr::from_u64(3), MacAddr::from_u64(4))
            .ips(ip("10.1.0.1"), ip("10.1.0.2"))
            .ports(5353, 53)
            .vlan(100)
            .payload_len(512)
            .build(),
    );
    for pkt in &shapes {
        let frame = wire::serialize(pkt);
        let (mut released, mut reserialized) = (Vec::new(), Vec::new());
        codec::encode_frame_out_into(Some(2), &actions, &frame, 7, &mut released);
        let parsed = wire::parse(&frame).unwrap();
        codec::encode_packet_out_into(Some(2), &actions, &parsed, 7, &mut reserialized);
        assert_eq!(released, reserialized, "{pkt:?}");
    }
}

/// A controller that has shaken hands with one switch (dpid 7, the
/// [`Pusher`]) and located two hosts on its ports 2 and 3, then set up
/// `first_packets.len()` flows from the first host to the second, one
/// per packet. Returns what each set-up allocated.
fn set_ups(first_packets: &[Packet]) -> Vec<Allocated> {
    let a = (MacAddr::from_u64(0xa1), ip("10.0.0.1"));
    let b = (MacAddr::from_u64(0xb1), ip("10.0.0.2"));
    let packet_in = |port: u32, pkt: &Packet| {
        let mut frame = Vec::new();
        SwitchChannel::new(7, 8).packet_in(port, PacketInReason::NoMatch, pkt, &mut frame);
        frame
    };
    let features = OfMessage::FeaturesReply {
        datapath_id: 7,
        n_ports: 8,
    };
    let mut payloads = vec![
        batch(&[OfMessage::Hello]),
        batch(&[features]),
        packet_in(2, &arp_frame(ArpPacket::gratuitous(a.0, a.1))),
        packet_in(3, &arp_frame(ArpPacket::gratuitous(b.0, b.1))),
    ];
    payloads.extend(first_packets.iter().map(|pkt| packet_in(2, pkt)));
    let (got, _, world, ctrl) = receives(payloads, |_| Controller::new());
    let n = first_packets.len();
    assert_eq!(world.node::<Controller>(ctrl).flows_installed, n as u64);
    got[got.len() - n..].to_vec()
}

#[test]
fn a_steered_set_up_at_a_warm_controller_allocates_only_its_programs() {
    let first = |tp_src: u16, payload: usize| {
        PacketBuilder::tcp(MacAddr::from_u64(0xa1), MacAddr::from_u64(0xb1))
            .ips(ip("10.0.0.1"), ip("10.0.0.2"))
            .ports(tp_src, 80)
            .payload_bytes(vec![0x5a; payload])
            .build()
    };
    // Two set-ups, one of a full segment, warm the outbox's arena, the
    // recycled control buffers and the books; the third is measured.
    let third = |payload| set_ups(&[first(1000, 1400), first(1001, 0), first(1002, payload)])[2];
    // A direct flow between two ports of one switch, decided cold:
    // 1. the hop list, reversed in place for the reverse program;
    // 2.–3. the forward and the reverse program's entry lists, an
    //    entry and a relay each;
    // 4.–5. the `Rc` of each program, which the flow record and both
    //    path proofs share.
    // Nothing else: the packet-in is read in place and released as
    // delivered, the flow-mods and the packet-out are written into the
    // outbox's arena and leave in a recycled buffer, and the books and
    // the detector have room for a third flow.
    let rc = 2 * size_of::<usize>() + size_of::<SteeringProgram>();
    let programs = Allocated {
        calls: 5,
        bytes: 2 * size_of::<Hop>() + 2 * (2 * size_of::<SwitchEntry>()) + 2 * rc,
    };
    assert_eq!(third(0), programs, "an empty first packet");
    // A full segment is not copied either; only its packet-out makes
    // the batch outgrow a recycled buffer (they are kept up to 1 KiB),
    // which grows once to the batch's size.
    let full = third(1400);
    assert_eq!(full.calls, programs.calls + 1, "a full segment: {full:?}");
    let batch = full.bytes - programs.bytes;
    assert!((1400..2048).contains(&batch), "a full segment: {full:?}");
}
