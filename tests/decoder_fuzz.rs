//! Deterministic decoder fuzzing: every wire decoder, fed seeded
//! mutations of valid encodings, returns `Ok` or its typed error,
//! never panics, and allocates at most a stated bound linear in the
//! input length.
//!
//! The decoders read bytes chosen by end hosts and by switches that
//! may be compromised, so a length or count field is a claim, not a
//! fact. The mutations aim at exactly that: byte flips, truncations,
//! splices of two encodings, and every 2- and 4-byte window overwritten
//! with 0, `remaining + 1` or the type's maximum, in both byte orders.
//! A decoder that sizes a buffer by such a claim before checking it
//! against the bytes left blows its allocation bound here; one that
//! indexes by it panics here.
//!
//! Allocations are counted per thread by the counting allocator in
//! `support/counting_alloc.rs`, so the harness's parallel tests do not
//! see each other's.

use livesec_net::packet::{arp_frame, icmp_frame, lldp_frame};
use livesec_net::pcap::{read_pcap, write_pcap, CapturedFrame};
use livesec_net::{
    wire, ArpPacket, Cursor, DhcpMessage, DhcpMsgType, FlowKey, IcmpMessage, LldpFrame, MacAddr,
    PacketBuilder, TcpFlags, Truncated,
};
use livesec_openflow::codec::{decode, decode_all, encode};
use livesec_openflow::message::{
    FlowRemovedReason, FlowStats, ForwardingAttestation, PacketInReason, PortStats, StatsBody,
    StatsRequestKind,
};
use livesec_openflow::{Action, Match, OfMessage, OutPort, SwitchChannel};
use livesec_services::msg::{SeMessage, ServiceType, Verdict};
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

// ---- mutations ----

/// SplitMix64: a fixed, dependency-free stream for the splices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Every mutation of `seeds`, in a fixed order.
fn mutations(seeds: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for s in seeds {
        out.push(s.clone());
        // Truncations.
        for cut in 0..s.len() {
            out.push(s[..cut].to_vec());
        }
        for i in 0..s.len() {
            // Byte flips.
            for v in [0x00, 0x7f, 0x80, 0xff, s[i] ^ 0xff, s[i].wrapping_add(1)] {
                let mut m = s.clone();
                m[i] = v;
                out.push(m);
            }
            // Length and count fields: every window, both widths, both
            // byte orders, claiming 0, one past the bytes left, or max.
            let left = s.len().saturating_sub(i + 4) as u64;
            for claim in [0, left + 1, u64::from(u32::MAX)] {
                let c32 = claim as u32;
                let c16 = claim.min(u64::from(u16::MAX)) as u16;
                for bytes in [
                    c32.to_be_bytes().to_vec(),
                    c32.to_le_bytes().to_vec(),
                    c16.to_be_bytes().to_vec(),
                    c16.to_le_bytes().to_vec(),
                ] {
                    if i + bytes.len() <= s.len() {
                        let mut m = s.clone();
                        m[i..i + bytes.len()].copy_from_slice(&bytes);
                        out.push(m);
                    }
                }
            }
        }
    }
    // Splices: a prefix of one encoding onto a suffix of another.
    let mut rng = Rng(0x11ec_5ec0);
    for _ in 0..64 * seeds.len() {
        let a = &seeds[rng.below(seeds.len())];
        let b = &seeds[rng.below(seeds.len())];
        let mut m = a[..rng.below(a.len() + 1)].to_vec();
        m.extend_from_slice(&b[rng.below(b.len() + 1)..]);
        out.push(m);
    }
    out
}

/// A decoder's allocation bound: `per_byte * len + fixed` bytes per call.
#[derive(Clone, Copy, Debug)]
struct Bound {
    per_byte: usize,
    fixed: usize,
}

impl Bound {
    fn of(&self, len: usize) -> usize {
        self.per_byte * len + self.fixed
    }
}

/// Runs `decode` over every mutation of `seeds`. Returns the number of
/// inputs, or the first one that panicked or broke `bound`.
fn fuzz(
    name: &'static str,
    seeds: &[Vec<u8>],
    bound: Bound,
    decode: impl Fn(&[u8]),
) -> Result<usize, String> {
    let inputs = mutations(seeds);
    for input in &inputs {
        let mut panicked = false;
        let bytes = counting_alloc::measure(name, || {
            panicked = catch_unwind(AssertUnwindSafe(|| decode(input))).is_err();
        })
        .bytes;
        if panicked {
            return Err(format!("{name} panicked on {input:02x?}"));
        }
        if bytes > bound.of(input.len()) {
            return Err(format!(
                "{name} allocated {bytes} bytes on a {}-byte input, over its bound {bound:?} = {}: {input:02x?}",
                input.len(),
                bound.of(input.len()),
            ));
        }
    }
    Ok(inputs.len())
}

fn assert_fuzz(name: &'static str, seeds: &[Vec<u8>], bound: Bound, decode: impl Fn(&[u8])) {
    if let Err(e) = fuzz(name, seeds, bound, decode) {
        panic!("{e}");
    }
}

// ---- seeds ----

fn mac(v: u64) -> MacAddr {
    MacAddr::from_u64(v)
}

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

fn flow() -> FlowKey {
    FlowKey {
        vlan: Some(7),
        dl_src: mac(0x11),
        dl_dst: mac(0x22),
        dl_type: 0x0800,
        nw_src: ip("10.0.0.1"),
        nw_dst: ip("10.0.0.2"),
        nw_proto: 6,
        tp_src: 1000,
        tp_dst: 80,
    }
}

fn frames() -> Vec<Vec<u8>> {
    [
        PacketBuilder::tcp(mac(1), mac(2))
            .ips(ip("10.0.0.1"), ip("10.0.0.2"))
            .ports(1234, 80)
            .tcp_flags(TcpFlags::SYN)
            .payload_bytes(b"GET / HTTP/1.1\r\n".as_ref())
            .build(),
        PacketBuilder::udp(mac(3), mac(4))
            .ips(ip("10.1.0.1"), ip("10.1.0.2"))
            .ports(5353, 53)
            .vlan(100)
            .payload_bytes(b"query".as_ref())
            .build(),
        arp_frame(ArpPacket::request(mac(9), ip("10.0.0.9"), ip("10.0.0.1"))),
        icmp_frame(
            mac(1),
            mac(2),
            ip("10.0.0.1"),
            ip("8.8.8.8"),
            IcmpMessage::echo_request(42, 7, 8),
        ),
        lldp_frame(mac(77), LldpFrame::new(0xabcdef, 12)),
    ]
    .iter()
    .map(wire::serialize)
    .collect()
}

fn of_messages() -> Vec<OfMessage> {
    let m = Match::exact(3, &flow());
    vec![
        OfMessage::FeaturesReply {
            datapath_id: 9,
            n_ports: 24,
        },
        OfMessage::PacketIn {
            in_port: 5,
            reason: PacketInReason::NoMatch,
            data: vec![1, 2, 3, 4],
        },
        OfMessage::PacketOut {
            in_port: Some(2),
            actions: vec![Action::SetDlDst(mac(9)), Action::Output(OutPort::Flood)].into(),
            data: vec![9; 8],
        },
        // One action more than an `ActionList` holds inline: `decode`
        // spills it to the heap, within the same bound.
        OfMessage::add_flow(
            m,
            vec![
                Action::SetVlan(9),
                Action::StripVlan,
                Action::SetNwSrc(ip("1.2.3.4")),
                Action::Output(OutPort::Physical(7)),
            ],
            100,
        ),
        OfMessage::FlowRemoved {
            matcher: m,
            cookie: 1,
            priority: 2,
            reason: FlowRemovedReason::IdleTimeout,
            packet_count: 3,
            byte_count: 4,
        },
        OfMessage::StatsRequest(StatsRequestKind::Flow(m)),
        OfMessage::StatsReply(StatsBody::Flow(vec![
            FlowStats {
                matcher: m,
                priority: 1,
                cookie: 2,
                packet_count: 3,
                byte_count: 4,
                duration: 5,
            };
            2
        ])),
        OfMessage::StatsReply(StatsBody::Port(vec![
            PortStats {
                port_no: 1,
                rx_packets: 2,
                tx_packets: 3,
                rx_bytes: 4,
                tx_bytes: 5,
                drops: 6,
            };
            2
        ])),
        OfMessage::StatsReply(StatsBody::Description {
            manufacturer: "LiveSec".into(),
            hardware: "sim".into(),
            software: "model".into(),
        }),
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

fn of_frames() -> Vec<Vec<u8>> {
    of_messages().iter().map(|m| encode(m, 7)).collect()
}

fn se_messages() -> Vec<Vec<u8>> {
    let event = |verdict| SeMessage::Event {
        cert: 7,
        flow: flow(),
        verdict,
    };
    [
        SeMessage::Online {
            service: ServiceType::IntrusionDetection,
            cert: 1,
            cpu: 42,
            mem: 17,
            pps: 1000,
            bps: 2000,
            total_pkts: 3000,
        },
        event(Verdict::Malicious {
            attack: "exploit".into(),
            severity: 9,
        }),
        event(Verdict::Application { app: "http".into() }),
        event(Verdict::PolicyViolation {
            policy: "dlp".into(),
        }),
        event(Verdict::ConnEstablished),
    ]
    .iter()
    .map(SeMessage::encode)
    .collect()
}

// ---- the decoders ----

#[test]
fn wire_parse_survives_mutation() {
    // The payload copy, plus a pseudo-header buffer per checksum.
    let bound = Bound {
        per_byte: 2,
        fixed: 64,
    };
    assert_fuzz("net::wire::parse", &frames(), bound, |b| {
        let _ = wire::parse(b);
    });
}

#[test]
fn dhcp_decode_survives_mutation() {
    let seeds: Vec<Vec<u8>> = [DhcpMsgType::Discover, DhcpMsgType::Ack]
        .into_iter()
        .map(|kind| {
            DhcpMessage {
                kind,
                ..DhcpMessage::discover(0xdead_beef, mac(0x42))
            }
            .encode()
        })
        .collect();
    let none = Bound {
        per_byte: 0,
        fixed: 0,
    };
    assert_fuzz("net::dhcp::DhcpMessage::decode", &seeds, none, |b| {
        let _ = DhcpMessage::decode(b);
    });
}

#[test]
fn pcap_read_survives_mutation() {
    let captured: Vec<CapturedFrame> = frames()
        .iter()
        .enumerate()
        .map(|(i, f)| CapturedFrame {
            at_nanos: i as u64 * 1_000,
            packet: wire::parse(f).unwrap(),
        })
        .collect();
    let seeds = vec![
        write_pcap(&captured),
        write_pcap(&captured[..1]),
        write_pcap(&[]),
    ];
    // A frame costs at least its 16-byte record header, so the frame
    // vector is linear in the input; each frame adds `wire::parse`'s.
    let bound = Bound {
        per_byte: 2 + 2 * std::mem::size_of::<CapturedFrame>() / 16,
        fixed: 64,
    };
    assert_fuzz("net::pcap::read_pcap", &seeds, bound, |b| {
        let _ = read_pcap(b);
    });
}

/// `codec::decode` sizes a vector by a claimed count only after
/// checking the count against the bytes left, so the worst case is one
/// element per remaining byte of the widest element type.
fn codec_bound() -> Bound {
    let widest = [
        std::mem::size_of::<Action>(),
        std::mem::size_of::<FlowStats>(),
        std::mem::size_of::<PortStats>(),
    ]
    .into_iter()
    .max()
    .unwrap();
    Bound {
        per_byte: widest + 2,
        fixed: 64,
    }
}

#[test]
fn codec_decode_survives_mutation() {
    assert_fuzz(
        "openflow::codec::decode",
        &of_frames(),
        codec_bound(),
        |b| {
            let _ = decode(b);
        },
    );
}

#[test]
fn codec_decode_all_survives_mutation() {
    let frames = of_frames();
    let batches: Vec<Vec<u8>> = frames
        .windows(3)
        .map(|w| w.concat())
        .chain([Vec::new()])
        .collect();
    // Every frame is at least its 10-byte header, and each decoded
    // message lands in the output vector.
    let per_frame = 2 * std::mem::size_of::<(OfMessage, u32)>() / 10;
    let bound = Bound {
        per_byte: codec_bound().per_byte + per_frame,
        fixed: 64,
    };
    assert_fuzz("openflow::codec::decode_all", &batches, bound, |b| {
        let _ = decode_all(b);
    });
}

#[test]
fn switch_channel_receive_survives_mutation() {
    let frames = of_frames();
    let batches: Vec<Vec<u8>> = frames
        .windows(3)
        .map(|w| w.concat())
        .chain([Vec::new()])
        .collect();
    // The check pass reads what `decode` reads (a stats reply's lists
    // and strings too), and so does the apply pass. A chore's reply is
    // at most 22 bytes for a request of at least 10.
    let bound = Bound {
        per_byte: 2 * codec_bound().per_byte + 3,
        fixed: 64,
    };
    assert_fuzz(
        "openflow::SwitchChannel::receive_all",
        &batches,
        bound,
        |b| {
            let mut channel = SwitchChannel::new(7, 4);
            let mut actions = Vec::new();
            let mut reply = |m: &OfMessage, xid| drop(encode(m, xid));
            if let Ok(mut batch) = channel.receive_all(b, &mut reply) {
                while batch.next_frame(&mut actions).is_some() {}
            }
        },
    );
}

#[test]
fn se_message_decode_survives_mutation() {
    // At most one string, copied once.
    let bound = Bound {
        per_byte: 1,
        fixed: 0,
    };
    assert_fuzz(
        "services::msg::SeMessage::decode",
        &se_messages(),
        bound,
        |b| {
            let _ = SeMessage::decode(b);
        },
    );
}

#[test]
fn policy_parse_survives_mutation() {
    let seeds = [
        include_str!("../examples/campus.lsp"),
        include_str!("../examples/campus_edit.lsp"),
    ]
    .map(|s| s.as_bytes().to_vec());
    // Tokens, the syntax tree and diagnostics, each linear in the
    // source: the worst mutation of these seeds takes ~43 bytes per
    // source byte, an empty program ~200.
    let bound = Bound {
        per_byte: 64,
        fixed: 4096,
    };
    assert_fuzz("livesec_policy::parser::parse", &seeds, bound, |b| {
        // The lossy conversion is the test's, not the parser's, but it
        // is counted: at most one copy of the input.
        let src = String::from_utf8_lossy(b);
        let _ = livesec_policy::parser::parse(&src);
    });
}

// ---- the harness checks itself ----

/// A decoder with the bug the allocation bound exists for: it sizes a
/// vector by a claimed count without checking the claim against the
/// bytes left.
fn unchecked(bytes: &[u8]) -> Result<Vec<u64>, Truncated> {
    let mut r = Cursor::new(bytes);
    let n = usize::from(r.u16()?);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

/// The same decoder with the check.
fn checked(bytes: &[u8]) -> Result<Vec<u64>, Truncated> {
    let mut r = Cursor::new(bytes);
    let n = usize::from(r.u16()?);
    if n > r.remaining() / 8 {
        return Err(Truncated);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

#[test]
fn the_harness_rejects_an_unchecked_claimed_capacity() {
    let mut seed = 2u16.to_be_bytes().to_vec();
    seed.extend_from_slice(&7u64.to_be_bytes());
    seed.extend_from_slice(&9u64.to_be_bytes());
    let bound = Bound {
        per_byte: 1,
        fixed: 0,
    };
    let verdict = fuzz("unchecked", std::slice::from_ref(&seed), bound, |b| {
        let _ = unchecked(b);
    });
    let err = verdict.expect_err("an unchecked capacity must break the bound");
    assert!(err.contains("over its bound"), "{err}");
    assert!(fuzz("checked", &[seed], bound, |b| {
        let _ = checked(b);
    })
    .is_ok());
}

#[test]
fn the_harness_reports_a_panic() {
    let verdict = fuzz(
        "indexing",
        &[vec![4, 0, 0]],
        Bound {
            per_byte: 0,
            fixed: 0,
        },
        |b| {
            if let Some(&i) = b.first() {
                let _ = b[usize::from(i)];
            }
        },
    );
    assert!(verdict.expect_err("must panic").contains("panicked"));
}
