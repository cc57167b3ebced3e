//! On-wire serialization and parsing of [`Packet`]s.
//!
//! The simulator moves structured [`Packet`]s for speed, but OpenFlow
//! `PacketIn`/`PacketOut` messages carry real frame bytes, exactly as
//! on a physical network. This module is that boundary: a faithful
//! Ethernet/ARP/IPv4/TCP/UDP/ICMP/LLDP codec with real IPv4 and
//! transport checksums.
//!
//! Serialization does **not** pad to the 64-byte Ethernet minimum;
//! padding is a link-accounting concern handled by
//! [`Packet::wire_len`].
//!
//! A [`Payload::Synthetic`] payload serializes as zeros and parses back
//! as [`Payload::Data`] of the same length, so round-trips preserve
//! flow keys and lengths but not the synthetic marker.

#![warn(clippy::indexing_slicing)]

use crate::arp::{ArpOp, ArpPacket};
use crate::cursor::{Cursor, Truncated};
use crate::ethernet::{EtherType, EthernetHeader, VlanTag};
use crate::icmp::{IcmpMessage, IcmpType};
use crate::ipv4::{Ipv4Header, Ipv4Packet, Transport};
use crate::lldp::LldpFrame;
use crate::packet::{Body, Packet, Payload};
use crate::tcp::{TcpFlags, TcpSegment};
use crate::udp::UdpDatagram;
use bytes::Bytes;
use std::fmt;
use std::net::Ipv4Addr;

/// Error returned when a byte buffer cannot be parsed as a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer ended before the indicated structure was complete.
    Truncated,
    /// The IPv4 version field was not 4, or the IHL was below 5.
    BadIpHeader,
    /// A checksum did not verify.
    BadChecksum {
        /// Which layer failed ("ipv4", "tcp", "udp", "icmp").
        layer: &'static str,
    },
    /// The ARP body was not Ethernet/IPv4 or had an unknown opcode.
    BadArp,
    /// The LLDP TLV structure was malformed.
    BadLldp,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "unexpected end of packet"),
            ParseError::BadIpHeader => write!(f, "invalid IPv4 header"),
            ParseError::BadChecksum { layer } => write!(f, "bad {layer} checksum"),
            ParseError::BadArp => write!(f, "unsupported ARP body"),
            ParseError::BadLldp => write!(f, "malformed LLDP frame"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<Truncated> for ParseError {
    fn from(_: Truncated) -> Self {
        ParseError::Truncated
    }
}

/// Computes the Internet checksum (RFC 1071) of `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    fold(word_sum(data))
}

/// The sum of `data` as big-endian 16-bit words, an odd last byte
/// padded with zero.
fn word_sum(data: &[u8]) -> u64 {
    let (pairs, odd) = data.as_chunks::<2>();
    let mut sum: u64 = pairs
        .iter()
        .map(|&pair| u64::from(u16::from_be_bytes(pair)))
        .sum();
    if let [last] = odd {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// The one's complement of the end-around-carry fold of `sum`.
fn fold(mut sum: u64) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// The transport checksum of `segment` under the IPv4 pseudo-header.
/// The pseudo-header is an even 12 bytes, so its words sum apart from
/// the segment's and nothing is copied.
fn checksum_with_pseudo(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, segment: &[u8]) -> u16 {
    let [s0, s1, s2, s3] = src.octets();
    let [d0, d1, d2, d3] = dst.octets();
    let [l0, l1] = (segment.len() as u16).to_be_bytes();
    let pseudo = [s0, s1, s2, s3, d0, d1, d2, d3, 0, proto, l0, l1];
    fold(word_sum(&pseudo) + word_sum(segment))
}

/// Sums `out[from..]` and stores the checksum big-endian `slot` bytes
/// into it, where the serializer left two zero bytes for it.
fn fill_checksum(out: &mut [u8], from: usize, slot: usize, sum: impl FnOnce(&[u8]) -> u16) {
    let Some(region) = out.get_mut(from..) else {
        return;
    };
    let csum = sum(region).to_be_bytes();
    if let Some(dst) = region.get_mut(slot..slot + 2) {
        dst.copy_from_slice(&csum);
    }
}

fn put_payload(out: &mut Vec<u8>, payload: &Payload) {
    match payload {
        Payload::Empty => {}
        Payload::Synthetic(n) => out.resize(out.len() + *n as usize, 0),
        Payload::Data(b) => out.extend_from_slice(b),
    }
}

/// Serializes a packet to its on-wire byte form (without FCS/padding).
pub fn serialize(pkt: &Packet) -> Vec<u8> {
    let mut out = Vec::with_capacity(pkt.wire_len());
    serialize_into(pkt, &mut out);
    out
}

/// The number of bytes [`serialize`] writes for `pkt`: its frame
/// without FCS or padding.
pub fn serialized_len(pkt: &Packet) -> usize {
    pkt.eth.wire_len() + pkt.body.wire_len()
}

/// Appends the on-wire byte form of `pkt` to `out`, leaving what `out`
/// already holds as it was: the bytes [`serialize`] returns.
pub fn serialize_into(pkt: &Packet, out: &mut Vec<u8>) {
    out.extend_from_slice(&pkt.eth.dst.octets());
    out.extend_from_slice(&pkt.eth.src.octets());
    if let Some(tag) = pkt.eth.vlan {
        out.extend_from_slice(&EtherType::Vlan.as_u16().to_be_bytes());
        out.extend_from_slice(&tag.tci().to_be_bytes());
    }
    out.extend_from_slice(&pkt.eth.ethertype.as_u16().to_be_bytes());
    match &pkt.body {
        Body::Arp(arp) => serialize_arp(out, arp),
        Body::Ipv4(ip) => serialize_ipv4(out, ip),
        Body::Lldp(lldp) => serialize_lldp(out, lldp),
        Body::Raw(payload) => put_payload(out, payload),
    }
}

fn serialize_arp(out: &mut Vec<u8>, arp: &ArpPacket) {
    out.extend_from_slice(&1u16.to_be_bytes()); // htype: Ethernet
    out.extend_from_slice(&0x0800u16.to_be_bytes()); // ptype: IPv4
    out.push(6); // hlen
    out.push(4); // plen
    out.extend_from_slice(&arp.op.as_u16().to_be_bytes());
    out.extend_from_slice(&arp.sha.octets());
    out.extend_from_slice(&arp.spa.octets());
    out.extend_from_slice(&arp.tha.octets());
    out.extend_from_slice(&arp.tpa.octets());
}

fn serialize_ipv4(out: &mut Vec<u8>, ip: &Ipv4Packet) {
    let start = out.len();
    let total_len = ip.wire_len() as u16;
    out.push(0x45); // version 4, IHL 5
    out.push(ip.header.dscp << 2);
    out.extend_from_slice(&total_len.to_be_bytes());
    out.extend_from_slice(&ip.header.ident.to_be_bytes());
    out.extend_from_slice(&0x4000u16.to_be_bytes()); // DF, no fragment
    out.push(ip.header.ttl);
    out.push(ip.transport.proto().as_u8());
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&ip.header.src.octets());
    out.extend_from_slice(&ip.header.dst.octets());
    fill_checksum(out, start, 10, internet_checksum);

    let tstart = out.len();
    match &ip.transport {
        Transport::Tcp(tcp) => {
            out.extend_from_slice(&tcp.src_port.to_be_bytes());
            out.extend_from_slice(&tcp.dst_port.to_be_bytes());
            out.extend_from_slice(&tcp.seq.to_be_bytes());
            out.extend_from_slice(&tcp.ack.to_be_bytes());
            out.push(5 << 4); // data offset 5 words
            out.push(tcp.flags.bits());
            out.extend_from_slice(&0xffffu16.to_be_bytes()); // window
            out.extend_from_slice(&[0, 0]); // checksum placeholder
            out.extend_from_slice(&[0, 0]); // urgent pointer
            put_payload(out, &tcp.payload);
            fill_checksum(out, tstart, 16, |seg| {
                checksum_with_pseudo(ip.header.src, ip.header.dst, 6, seg)
            });
        }
        Transport::Udp(udp) => {
            out.extend_from_slice(&udp.src_port.to_be_bytes());
            out.extend_from_slice(&udp.dst_port.to_be_bytes());
            out.extend_from_slice(&(udp.wire_len() as u16).to_be_bytes());
            out.extend_from_slice(&[0, 0]); // checksum placeholder
            put_payload(out, &udp.payload);
            fill_checksum(out, tstart, 6, |seg| {
                checksum_with_pseudo(ip.header.src, ip.header.dst, 17, seg)
            });
        }
        Transport::Icmp(icmp) => {
            out.push(icmp.kind.as_u8());
            out.push(0); // code
            out.extend_from_slice(&[0, 0]); // checksum placeholder
            out.extend_from_slice(&icmp.ident.to_be_bytes());
            out.extend_from_slice(&icmp.seq.to_be_bytes());
            out.resize(out.len() + icmp.data_len as usize, 0);
            fill_checksum(out, tstart, 2, internet_checksum);
        }
        Transport::Other { payload, .. } => put_payload(out, payload),
    }
}

fn serialize_lldp(out: &mut Vec<u8>, lldp: &LldpFrame) {
    // Chassis-id TLV: type 1, length 9 (subtype 7 "locally assigned" + 8 id bytes).
    out.extend_from_slice(&(((1u16) << 9) | 9).to_be_bytes());
    out.push(7);
    out.extend_from_slice(&lldp.chassis_id.to_be_bytes());
    // Port-id TLV: type 2, length 5 (subtype 7 + 4 port bytes).
    out.extend_from_slice(&(((2u16) << 9) | 5).to_be_bytes());
    out.push(7);
    out.extend_from_slice(&lldp.port_id.to_be_bytes());
    // TTL TLV: type 3, length 2.
    out.extend_from_slice(&(((3u16) << 9) | 2).to_be_bytes());
    out.extend_from_slice(&120u16.to_be_bytes());
    // End TLV.
    out.extend_from_slice(&[0, 0]);
}

/// Parses an on-wire frame back into a [`Packet`].
///
/// # Errors
///
/// Returns [`ParseError`] for truncated buffers, malformed headers or
/// checksum failures.
pub fn parse(bytes: &[u8]) -> Result<Packet, ParseError> {
    let (mut pkt, content) = parse_in_place(bytes)?;
    let payload = match &mut pkt.body {
        Body::Raw(payload) => payload,
        Body::Ipv4(ip) => match &mut ip.transport {
            Transport::Tcp(TcpSegment { payload, .. })
            | Transport::Udp(UdpDatagram { payload, .. })
            | Transport::Other { payload, .. } => payload,
            Transport::Icmp(_) => return Ok(pkt),
        },
        Body::Arp(_) | Body::Lldp(_) => return Ok(pkt),
    };
    if let Payload::Synthetic(_) = payload {
        *payload = Payload::Data(Bytes::copy_from_slice(content));
    }
    Ok(pkt)
}

/// Parses an on-wire frame in place, copying nothing: the packet's
/// headers, with its payload standing as a length only
/// ([`Payload::Synthetic`]; [`Payload::Empty`] for an empty TCP or UDP
/// payload), and the payload's bytes borrowed from `bytes` (empty for
/// bodies that carry none). Serializing the packet would write zeros
/// for the content; a caller that forwards the frame forwards `bytes`.
/// [`parse`] is this plus a copy of the content.
///
/// # Errors
///
/// As [`parse`].
pub fn parse_in_place(bytes: &[u8]) -> Result<(Packet, &[u8]), ParseError> {
    let mut r = Cursor::new(bytes);
    let dst = r.mac()?;
    let src = r.mac()?;
    let mut ethertype = EtherType::from(r.u16()?);
    let mut vlan = None;
    if ethertype == EtherType::Vlan {
        vlan = Some(VlanTag::from_tci(r.u16()?));
        ethertype = EtherType::from(r.u16()?);
    }
    let mut eth = EthernetHeader::new(src, dst, ethertype);
    eth.vlan = vlan;
    let (body, content) = match ethertype {
        EtherType::Arp => (Body::Arp(parse_arp(&mut r)?), &[][..]),
        EtherType::Ipv4 => {
            let (ip, content) = parse_ipv4(&mut r)?;
            (Body::Ipv4(ip), content)
        }
        EtherType::Lldp => (Body::Lldp(parse_lldp(&mut r)?), &[][..]),
        _ => {
            let rest = r.rest();
            (Body::Raw(held(rest)), rest)
        }
    };
    Ok((Packet::new(eth, body), content))
}

/// A payload of `content`'s length, its bytes left where they are.
fn held(content: &[u8]) -> Payload {
    Payload::Synthetic(content.len() as u32)
}

/// A TCP or UDP payload of `content`'s length: none when it is empty.
fn held_or_empty(content: &[u8]) -> Payload {
    if content.is_empty() {
        Payload::Empty
    } else {
        held(content)
    }
}

fn parse_arp(r: &mut Cursor<'_>) -> Result<ArpPacket, ParseError> {
    let htype = r.u16()?;
    let ptype = r.u16()?;
    let hlen = r.u8()?;
    let plen = r.u8()?;
    if htype != 1 || ptype != 0x0800 || hlen != 6 || plen != 4 {
        return Err(ParseError::BadArp);
    }
    let op = ArpOp::from_u16(r.u16()?).ok_or(ParseError::BadArp)?;
    Ok(ArpPacket {
        op,
        sha: r.mac()?,
        spa: r.ipv4()?,
        tha: r.mac()?,
        tpa: r.ipv4()?,
    })
}

/// The IPv4 packet at `r` and its transport payload's bytes.
fn parse_ipv4<'a>(r: &mut Cursor<'a>) -> Result<(Ipv4Packet, &'a [u8]), ParseError> {
    // Trailing bytes past `total_len` (Ethernet padding) are ignored.
    let packet = r.rest();
    let mut h = Cursor::new(packet);
    let ver_ihl = h.u8()?;
    if ver_ihl >> 4 != 4 || ver_ihl & 0x0f < 5 {
        return Err(ParseError::BadIpHeader);
    }
    let ihl = usize::from(ver_ihl & 0x0f) * 4;
    let dscp = h.u8()? >> 2;
    let total_len = usize::from(h.u16()?);
    let ident = h.u16()?;
    let _flags_frag = h.u16()?;
    let ttl = h.u8()?;
    let proto = h.u8()?;
    let _checksum = h.u16()?;
    let src = h.ipv4()?;
    let dst = h.ipv4()?;
    let header = packet.get(..ihl).ok_or(ParseError::Truncated)?;
    if internet_checksum(header) != 0 {
        return Err(ParseError::BadChecksum { layer: "ipv4" });
    }
    let seg = packet.get(ihl..total_len).ok_or(ParseError::Truncated)?;

    let (transport, content) = match proto {
        6 => {
            if seg.len() < TcpSegment::HEADER_LEN {
                return Err(ParseError::Truncated);
            }
            if checksum_with_pseudo(src, dst, 6, seg) != 0 {
                return Err(ParseError::BadChecksum { layer: "tcp" });
            }
            let mut t = Cursor::new(seg);
            let src_port = t.u16()?;
            let dst_port = t.u16()?;
            let seq = t.u32()?;
            let ack = t.u32()?;
            let offset = usize::from(t.u8()? >> 4) * 4;
            let flags = TcpFlags::from_bits(t.u8()?);
            let _window = t.u16()?;
            let _csum = t.u16()?;
            let _urg = t.u16()?;
            if offset < TcpSegment::HEADER_LEN {
                return Err(ParseError::Truncated);
            }
            let content = seg.get(offset..).ok_or(ParseError::Truncated)?;
            let tcp = TcpSegment {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                payload: held_or_empty(content),
            };
            (Transport::Tcp(tcp), content)
        }
        17 => {
            if seg.len() < UdpDatagram::HEADER_LEN {
                return Err(ParseError::Truncated);
            }
            if checksum_with_pseudo(src, dst, 17, seg) != 0 {
                return Err(ParseError::BadChecksum { layer: "udp" });
            }
            let mut u = Cursor::new(seg);
            let src_port = u.u16()?;
            let dst_port = u.u16()?;
            let len = usize::from(u.u16()?);
            let _csum = u.u16()?;
            let content = seg
                .get(UdpDatagram::HEADER_LEN..len)
                .ok_or(ParseError::Truncated)?;
            let udp = UdpDatagram::new(src_port, dst_port, held_or_empty(content));
            (Transport::Udp(udp), content)
        }
        1 => {
            if seg.len() < IcmpMessage::HEADER_LEN {
                return Err(ParseError::Truncated);
            }
            if internet_checksum(seg) != 0 {
                return Err(ParseError::BadChecksum { layer: "icmp" });
            }
            let mut i = Cursor::new(seg);
            let kind = IcmpType::from(i.u8()?);
            let _code = i.u8()?;
            let _csum = i.u16()?;
            let ident = i.u16()?;
            let seq = i.u16()?;
            let icmp = IcmpMessage {
                kind,
                ident,
                seq,
                data_len: (seg.len() - IcmpMessage::HEADER_LEN) as u16,
            };
            (Transport::Icmp(icmp), &[][..])
        }
        other => {
            let payload = held(seg);
            (
                Transport::Other {
                    proto: other,
                    payload,
                },
                seg,
            )
        }
    };
    let header = Ipv4Header {
        src,
        dst,
        ttl,
        dscp,
        ident,
    };
    Ok((Ipv4Packet { header, transport }, content))
}

fn parse_lldp(r: &mut Cursor<'_>) -> Result<LldpFrame, ParseError> {
    let mut chassis_id = None;
    let mut port_id = None;
    loop {
        let header = r.u16()?;
        let tlv_type = header >> 9;
        let tlv_len = (header & 0x1ff) as usize;
        if tlv_type == 0 {
            break;
        }
        let mut value = Cursor::new(r.take(tlv_len)?);
        match (tlv_type, tlv_len) {
            // Subtype byte, then the id.
            (1, 9) => {
                value.u8()?;
                chassis_id = Some(value.u64()?);
            }
            (2, 5) => {
                value.u8()?;
                port_id = Some(value.u32()?);
            }
            (1 | 2, _) => return Err(ParseError::BadLldp),
            _ => {} // TTL and anything else: skip
        }
    }
    match (chassis_id, port_id) {
        (Some(c), Some(p)) => Ok(LldpFrame::new(c, p)),
        _ => Err(ParseError::BadLldp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowKey;
    use crate::mac::MacAddr;
    use crate::packet::{arp_frame, icmp_frame, lldp_frame, PacketBuilder};

    fn mac(v: u64) -> MacAddr {
        MacAddr::from_u64(v)
    }

    #[test]
    fn tcp_roundtrip_exact() {
        let pkt = PacketBuilder::tcp(mac(1), mac(2))
            .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .ports(1234, 80)
            .seq_ack(5, 6)
            .tcp_flags(TcpFlags::SYN)
            .payload_bytes(b"GET / HTTP/1.1\r\n".as_ref())
            .build();
        let back = parse(&serialize(&pkt)).unwrap();
        assert_eq!(back, pkt);
    }

    #[test]
    fn udp_vlan_roundtrip() {
        let pkt = PacketBuilder::udp(mac(3), mac(4))
            .ips("10.1.0.1".parse().unwrap(), "10.1.0.2".parse().unwrap())
            .ports(5353, 53)
            .vlan(100)
            .payload_bytes(b"query".as_ref())
            .build();
        let back = parse(&serialize(&pkt)).unwrap();
        assert_eq!(back, pkt);
        assert_eq!(back.eth.vlan.unwrap().vid, 100);
    }

    #[test]
    fn synthetic_payload_preserves_key_and_len() {
        let pkt = PacketBuilder::udp(mac(1), mac(2))
            .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .ports(9, 10)
            .payload_len(777)
            .build();
        let back = parse(&serialize(&pkt)).unwrap();
        assert_eq!(FlowKey::of(&back), FlowKey::of(&pkt));
        assert_eq!(back.wire_len(), pkt.wire_len());
    }

    #[test]
    fn arp_roundtrip() {
        let pkt = arp_frame(ArpPacket::request(
            mac(9),
            "10.0.0.9".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
        ));
        assert_eq!(parse(&serialize(&pkt)).unwrap(), pkt);
    }

    #[test]
    fn lldp_roundtrip() {
        let pkt = lldp_frame(mac(77), LldpFrame::new(0xabcdef, 12));
        assert_eq!(parse(&serialize(&pkt)).unwrap(), pkt);
        assert_eq!(serialize(&pkt).len(), 14 + LldpFrame::WIRE_LEN);
    }

    #[test]
    fn icmp_roundtrip() {
        let pkt = icmp_frame(
            mac(1),
            mac(2),
            "10.0.0.1".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            IcmpMessage::echo_request(42, 7, 56),
        );
        assert_eq!(parse(&serialize(&pkt)).unwrap(), pkt);
    }

    #[test]
    fn serialized_len_is_what_serialize_writes() {
        let ip = |s: &str| s.parse().unwrap();
        let pkts = [
            PacketBuilder::tcp(mac(1), mac(2))
                .ips(ip("10.0.0.1"), ip("10.0.0.2"))
                .payload_bytes(vec![7; 1400])
                .build(),
            PacketBuilder::udp(mac(3), mac(4))
                .ips(ip("10.1.0.1"), ip("10.1.0.2"))
                .vlan(100)
                .payload_len(3)
                .build(),
            arp_frame(ArpPacket::request(mac(9), ip("10.0.0.9"), ip("10.0.0.1"))),
            lldp_frame(mac(77), LldpFrame::new(0xabcdef, 12)),
            icmp_frame(
                mac(1),
                mac(2),
                ip("10.0.0.1"),
                ip("8.8.8.8"),
                IcmpMessage::echo_request(42, 7, 56),
            ),
        ];
        for pkt in &pkts {
            assert_eq!(serialized_len(pkt), serialize(pkt).len(), "{pkt:?}");
        }
    }

    #[test]
    fn corrupt_ip_checksum_rejected() {
        let pkt = PacketBuilder::tcp(mac(1), mac(2))
            .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .ports(1, 2)
            .build();
        let mut bytes = serialize(&pkt);
        bytes[16] ^= 0xff; // flip a byte in the IPv4 header (total_len area)
        assert!(parse(&bytes).is_err());
    }

    #[test]
    fn corrupt_tcp_payload_rejected() {
        let pkt = PacketBuilder::tcp(mac(1), mac(2))
            .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .ports(1, 2)
            .payload_bytes(b"hello".as_ref())
            .build();
        let mut bytes = serialize(&pkt);
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        assert_eq!(parse(&bytes), Err(ParseError::BadChecksum { layer: "tcp" }));
    }

    #[test]
    fn truncated_rejected() {
        let pkt = PacketBuilder::udp(mac(1), mac(2))
            .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .ports(1, 2)
            .payload_len(100)
            .build();
        let bytes = serialize(&pkt);
        for cut in [0, 5, 13, 20, 40] {
            assert!(parse(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example-style check: sum of a buffer and its checksum is 0.
        let data = [0x45u8, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11];
        let c = internet_checksum(&data);
        let mut with = data.to_vec();
        with.extend_from_slice(&c.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn pseudo_header_checksum_is_the_checksum_of_the_concatenation() {
        let (src, dst) = (
            "10.0.0.1".parse().unwrap(),
            "192.168.7.254".parse().unwrap(),
        );
        for len in [0, 1, 2, 7, 20, 1401] {
            let segment: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8 ^ 0xa5).collect();
            let mut whole = Vec::new();
            whole.extend_from_slice(&Ipv4Addr::octets(&src));
            whole.extend_from_slice(&Ipv4Addr::octets(&dst));
            whole.extend_from_slice(&[0, 17]);
            whole.extend_from_slice(&(len as u16).to_be_bytes());
            whole.extend_from_slice(&segment);
            assert_eq!(
                checksum_with_pseudo(src, dst, 17, &segment),
                internet_checksum(&whole),
                "{len}-byte segment"
            );
        }
    }
}
