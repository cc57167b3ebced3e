//! The top-level [`Packet`] type and its builder.

use crate::arp::ArpPacket;
use crate::ethernet::{EtherType, EthernetHeader, VlanTag};
use crate::icmp::IcmpMessage;
use crate::ipv4::{Ipv4Header, Ipv4Packet, Transport};
use crate::lldp::LldpFrame;
use crate::mac::MacAddr;
use crate::tcp::{TcpFlags, TcpSegment};
use crate::udp::UdpDatagram;
use bytes::Bytes;
use std::net::Ipv4Addr;

/// An application payload.
///
/// Bulk traffic in a throughput experiment does not need real bytes —
/// only a length — while security service elements (IDS, protocol
/// identification) need actual content to scan. `Payload` keeps both
/// cheap: [`Payload::Synthetic`] carries only a length, and
/// [`Payload::Data`] shares its bytes via [`Bytes`] so cloning a packet
/// through a ten-switch path never copies the content.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Payload {
    /// No payload.
    #[default]
    Empty,
    /// `n` bytes of filler; serialized as zeros, never scanned.
    Synthetic(u32),
    /// Real content (shared, cheap to clone).
    Data(Bytes),
}

impl Payload {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Empty => 0,
            Payload::Synthetic(n) => *n as usize,
            Payload::Data(b) => b.len(),
        }
    }

    /// Returns `true` if the payload carries zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scannable content: real bytes for [`Payload::Data`], the
    /// empty slice otherwise. Security elements match on this.
    pub fn content(&self) -> &[u8] {
        match self {
            Payload::Data(b) => b,
            _ => &[],
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::Data(Bytes::copy_from_slice(v))
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::Data(Bytes::from(v))
    }
}

impl From<Bytes> for Payload {
    fn from(v: Bytes) -> Self {
        Payload::Data(v)
    }
}

/// The body of an Ethernet frame.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Body {
    /// An ARP packet.
    Arp(ArpPacket),
    /// An IPv4 packet.
    Ipv4(Ipv4Packet),
    /// An LLDP discovery frame.
    Lldp(LldpFrame),
    /// Any other EtherType, carried opaquely.
    Raw(Payload),
}

impl Body {
    /// On-wire length of the body in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            Body::Arp(_) => ArpPacket::WIRE_LEN,
            Body::Ipv4(p) => p.wire_len(),
            Body::Lldp(_) => LldpFrame::WIRE_LEN,
            Body::Raw(p) => p.len(),
        }
    }

    /// The EtherType this body implies.
    pub fn ethertype(&self) -> Option<EtherType> {
        match self {
            Body::Arp(_) => Some(EtherType::Arp),
            Body::Ipv4(_) => Some(EtherType::Ipv4),
            Body::Lldp(_) => Some(EtherType::Lldp),
            Body::Raw(_) => None,
        }
    }
}

/// A complete layer-2 packet: Ethernet header plus body.
///
/// This is the unit the simulator moves across links and the unit
/// switches match on.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Packet {
    /// The Ethernet header.
    pub eth: EthernetHeader,
    /// The frame body.
    pub body: Body,
}

impl Packet {
    /// Minimum Ethernet frame length; shorter frames are padded on wire.
    pub const MIN_WIRE_LEN: usize = 64;

    /// Assembles a packet; the header's EtherType must agree with the
    /// body (use [`PacketBuilder`] to avoid this footgun).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the EtherType contradicts the body.
    pub fn new(eth: EthernetHeader, body: Body) -> Self {
        if let Some(t) = body.ethertype() {
            debug_assert_eq!(eth.ethertype, t, "EtherType does not match body");
        }
        Packet { eth, body }
    }

    /// On-wire frame length in bytes, including Ethernet padding to the
    /// 64-byte minimum (FCS included in the minimum, as on real wire).
    pub fn wire_len(&self) -> usize {
        (self.eth.wire_len() + self.body.wire_len() + 4).max(Self::MIN_WIRE_LEN)
    }

    /// The IPv4 layer, if this is an IPv4 packet.
    pub fn ipv4(&self) -> Option<&Ipv4Packet> {
        match &self.body {
            Body::Ipv4(p) => Some(p),
            _ => None,
        }
    }

    /// The ARP layer, if this is an ARP packet.
    pub fn arp(&self) -> Option<&ArpPacket> {
        match &self.body {
            Body::Arp(a) => Some(a),
            _ => None,
        }
    }

    /// The LLDP frame, if this is an LLDP probe.
    pub fn lldp(&self) -> Option<&LldpFrame> {
        match &self.body {
            Body::Lldp(l) => Some(l),
            _ => None,
        }
    }

    /// The UDP datagram, if this is IPv4/UDP.
    pub fn udp(&self) -> Option<&UdpDatagram> {
        match self.ipv4()? {
            Ipv4Packet {
                transport: Transport::Udp(u),
                ..
            } => Some(u),
            _ => None,
        }
    }

    /// The TCP segment, if this is IPv4/TCP.
    pub fn tcp(&self) -> Option<&TcpSegment> {
        match self.ipv4()? {
            Ipv4Packet {
                transport: Transport::Tcp(t),
                ..
            } => Some(t),
            _ => None,
        }
    }
}

/// Fluent constructor for [`Packet`]s.
///
/// ```rust
/// use livesec_net::prelude::*;
/// let pkt = PacketBuilder::udp(MacAddr::from_u64(1), MacAddr::from_u64(2))
///     .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
///     .ports(5000, 53)
///     .payload_len(120)
///     .build();
/// assert_eq!(pkt.udp().unwrap().dst_port, 53);
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    vlan: Option<VlanTag>,
    kind: BuilderKind,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    ttl: u8,
    payload: Payload,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BuilderKind {
    Tcp,
    Udp,
}

impl PacketBuilder {
    fn base(src_mac: MacAddr, dst_mac: MacAddr, kind: BuilderKind) -> Self {
        PacketBuilder {
            src_mac,
            dst_mac,
            vlan: None,
            kind,
            src_ip: Ipv4Addr::UNSPECIFIED,
            dst_ip: Ipv4Addr::UNSPECIFIED,
            src_port: 0,
            dst_port: 0,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            ttl: 64,
            payload: Payload::Empty,
        }
    }

    /// Starts a TCP packet between the given MACs.
    pub fn tcp(src_mac: MacAddr, dst_mac: MacAddr) -> Self {
        Self::base(src_mac, dst_mac, BuilderKind::Tcp)
    }

    /// Starts a UDP packet between the given MACs.
    pub fn udp(src_mac: MacAddr, dst_mac: MacAddr) -> Self {
        Self::base(src_mac, dst_mac, BuilderKind::Udp)
    }

    /// Sets source and destination IPv4 addresses.
    pub fn ips(mut self, src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        self.src_ip = src;
        self.dst_ip = dst;
        self
    }

    /// Sets source and destination transport ports.
    pub fn ports(mut self, src: u16, dst: u16) -> Self {
        self.src_port = src;
        self.dst_port = dst;
        self
    }

    /// Tags the frame with a VLAN id.
    pub fn vlan(mut self, vid: u16) -> Self {
        self.vlan = Some(VlanTag::new(vid));
        self
    }

    /// Sets TCP flags (ignored for UDP).
    pub fn tcp_flags(mut self, flags: TcpFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Sets TCP sequence/ack numbers (ignored for UDP).
    pub fn seq_ack(mut self, seq: u32, ack: u32) -> Self {
        self.seq = seq;
        self.ack = ack;
        self
    }

    /// Sets the IP TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Attaches a synthetic payload of `len` bytes.
    pub fn payload_len(mut self, len: u32) -> Self {
        self.payload = Payload::Synthetic(len);
        self
    }

    /// Attaches a real payload (for content to be scanned by SEs).
    pub fn payload_bytes(mut self, bytes: impl Into<Payload>) -> Self {
        self.payload = bytes.into();
        self
    }

    /// Builds the packet.
    pub fn build(self) -> Packet {
        let mut header = Ipv4Header::new(self.src_ip, self.dst_ip);
        header.ttl = self.ttl;
        let transport = match self.kind {
            BuilderKind::Tcp => Transport::Tcp(TcpSegment {
                src_port: self.src_port,
                dst_port: self.dst_port,
                seq: self.seq,
                ack: self.ack,
                flags: self.flags,
                payload: self.payload,
            }),
            BuilderKind::Udp => {
                Transport::Udp(UdpDatagram::new(self.src_port, self.dst_port, self.payload))
            }
        };
        let mut eth = EthernetHeader::new(self.src_mac, self.dst_mac, EtherType::Ipv4);
        eth.vlan = self.vlan;
        Packet::new(eth, Body::Ipv4(Ipv4Packet::new(header, transport)))
    }
}

/// Builds an ARP packet wrapped in its Ethernet frame (broadcast for
/// requests, unicast for replies).
pub fn arp_frame(arp: ArpPacket) -> Packet {
    let dst = match arp.op {
        crate::arp::ArpOp::Request => MacAddr::BROADCAST,
        crate::arp::ArpOp::Reply => arp.tha,
    };
    Packet::new(
        EthernetHeader::new(arp.sha, dst, EtherType::Arp),
        Body::Arp(arp),
    )
}

/// Builds an LLDP probe frame (sent to the LLDP multicast address).
pub fn lldp_frame(src: MacAddr, lldp: LldpFrame) -> Packet {
    // 01:80:c2:00:00:0e is the standard LLDP multicast address.
    let dst = MacAddr::new([0x01, 0x80, 0xc2, 0x00, 0x00, 0x0e]);
    Packet::new(
        EthernetHeader::new(src, dst, EtherType::Lldp),
        Body::Lldp(lldp),
    )
}

/// Builds an ICMP echo packet.
pub fn icmp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    msg: IcmpMessage,
) -> Packet {
    Packet::new(
        EthernetHeader::new(src_mac, dst_mac, EtherType::Ipv4),
        Body::Ipv4(Ipv4Packet::new(
            Ipv4Header::new(src_ip, dst_ip),
            Transport::Icmp(msg),
        )),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arp::ArpOp;

    #[test]
    fn payload_content_only_for_data() {
        assert_eq!(Payload::Empty.content(), b"");
        assert_eq!(Payload::Synthetic(100).content(), b"");
        assert_eq!(Payload::from(b"abc".as_ref()).content(), b"abc");
        assert!(Payload::Empty.is_empty());
        assert!(!Payload::Synthetic(1).is_empty());
    }

    #[test]
    fn builder_produces_matching_layers() {
        let pkt = PacketBuilder::tcp(MacAddr::from_u64(1), MacAddr::from_u64(2))
            .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .ports(1234, 80)
            .payload_len(512)
            .build();
        assert_eq!(pkt.eth.ethertype, EtherType::Ipv4);
        let tcp = pkt.tcp().unwrap();
        assert_eq!(tcp.dst_port, 80);
        assert_eq!(tcp.payload.len(), 512);
        assert!(pkt.udp().is_none());
    }

    #[test]
    fn min_frame_padding() {
        let tiny = PacketBuilder::udp(MacAddr::from_u64(1), MacAddr::from_u64(2))
            .ports(1, 2)
            .build();
        assert_eq!(tiny.wire_len(), Packet::MIN_WIRE_LEN);
        let big = PacketBuilder::udp(MacAddr::from_u64(1), MacAddr::from_u64(2))
            .ports(1, 2)
            .payload_len(1400)
            .build();
        assert_eq!(big.wire_len(), 14 + 20 + 8 + 1400 + 4);
    }

    #[test]
    fn arp_request_is_broadcast() {
        let req = ArpPacket::request(
            MacAddr::from_u64(5),
            "10.0.0.5".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
        );
        let frame = arp_frame(req);
        assert!(frame.eth.dst.is_broadcast());
        assert_eq!(frame.arp().unwrap().op, ArpOp::Request);
    }

    #[test]
    fn arp_reply_is_unicast() {
        let req = ArpPacket::request(
            MacAddr::from_u64(5),
            "10.0.0.5".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
        );
        let rep = ArpPacket::reply_to(&req, MacAddr::from_u64(1));
        let frame = arp_frame(rep);
        assert_eq!(frame.eth.dst, MacAddr::from_u64(5));
    }

    #[test]
    fn lldp_frame_goes_to_multicast() {
        let f = lldp_frame(MacAddr::from_u64(9), LldpFrame::new(1, 2));
        assert!(f.eth.dst.is_multicast());
        assert_eq!(f.lldp().unwrap().chassis_id, 1);
    }
}
