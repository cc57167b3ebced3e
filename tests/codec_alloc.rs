//! The control channel's allocation floor: `codec::encode` makes one
//! allocation per frame, of exactly the frame's size, and appending a
//! frame to a buffer that already has room makes none — the owned
//! writer, the borrowed flow-mod and the in-place packet-out alike.
//! The controller's outbox appends every frame of a dispatch to one
//! retained buffer, so these are its per-frame costs.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, Allocated};
use livesec_net::packet::{arp_frame, lldp_frame};
use livesec_net::{wire, ArpPacket, FlowKey, LldpFrame, MacAddr, Packet, PacketBuilder};
use livesec_openflow::codec::{self, FlowModRef};
use livesec_openflow::message::{
    FlowModCommand, FlowRemovedReason, FlowStats, ForwardingAttestation, PacketInReason, PortStats,
    PortStatusReason, StatsBody, StatsRequestKind,
};
use livesec_openflow::{Action, Match, OfMessage, OutPort};
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
            actions: actions(),
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
