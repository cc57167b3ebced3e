//! IPv4 header and packet containers.

use crate::icmp::IcmpMessage;
use crate::packet::Payload;
use crate::tcp::TcpSegment;
use crate::udp::UdpDatagram;
use std::fmt;
use std::net::Ipv4Addr;

/// An IP protocol number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Any other protocol.
    Other(u8),
}

impl IpProto {
    /// The numeric protocol value.
    pub const fn as_u8(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }
}

impl From<u8> for IpProto {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

impl From<IpProto> for u8 {
    fn from(p: IpProto) -> u8 {
        p.as_u8()
    }
}

impl fmt::Display for IpProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProto::Icmp => write!(f, "icmp"),
            IpProto::Tcp => write!(f, "tcp"),
            IpProto::Udp => write!(f, "udp"),
            IpProto::Other(v) => write!(f, "proto-{v}"),
        }
    }
}

/// An IPv4 header (no options).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Time to live.
    pub ttl: u8,
    /// Differentiated services code point (the paper's flows don't use
    /// QoS marking, but OpenFlow 1.0 matches on it).
    pub dscp: u8,
    /// IP identification field (used only for wire round-trips).
    pub ident: u16,
}

impl Ipv4Header {
    /// On-wire length of an option-less IPv4 header.
    pub const WIRE_LEN: usize = 20;

    /// Creates a header with TTL 64 and zeroed DSCP/ident.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        Ipv4Header {
            src,
            dst,
            ttl: 64,
            dscp: 0,
            ident: 0,
        }
    }
}

/// The transport payload of an IPv4 packet.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Transport {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// An ICMP message.
    Icmp(IcmpMessage),
    /// Any other protocol, carried opaquely.
    Other {
        /// IP protocol number.
        proto: u8,
        /// Opaque payload.
        payload: Payload,
    },
}

impl Transport {
    /// The IP protocol number of this transport.
    pub fn proto(&self) -> IpProto {
        match self {
            Transport::Tcp(_) => IpProto::Tcp,
            Transport::Udp(_) => IpProto::Udp,
            Transport::Icmp(_) => IpProto::Icmp,
            Transport::Other { proto, .. } => IpProto::Other(*proto),
        }
    }

    /// On-wire length of the transport header plus payload.
    pub fn wire_len(&self) -> usize {
        match self {
            Transport::Tcp(t) => t.wire_len(),
            Transport::Udp(u) => u.wire_len(),
            Transport::Icmp(i) => i.wire_len(),
            Transport::Other { payload, .. } => payload.len(),
        }
    }

    /// The application payload carried by this transport, if any.
    pub fn payload(&self) -> Option<&Payload> {
        match self {
            Transport::Tcp(t) => Some(&t.payload),
            Transport::Udp(u) => Some(&u.payload),
            Transport::Icmp(_) => None,
            Transport::Other { payload, .. } => Some(payload),
        }
    }

    /// Source and destination transport ports, if the protocol has them.
    pub fn ports(&self) -> Option<(u16, u16)> {
        match self {
            Transport::Tcp(t) => Some((t.src_port, t.dst_port)),
            Transport::Udp(u) => Some((u.src_port, u.dst_port)),
            _ => None,
        }
    }
}

/// A full IPv4 packet: header plus transport.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Ipv4Packet {
    /// The IPv4 header.
    pub header: Ipv4Header,
    /// The transport-layer contents.
    pub transport: Transport,
}

impl Ipv4Packet {
    /// Creates a packet from a header and transport.
    pub fn new(header: Ipv4Header, transport: Transport) -> Self {
        Ipv4Packet { header, transport }
    }

    /// Total on-wire length (IPv4 header + transport).
    pub fn wire_len(&self) -> usize {
        Ipv4Header::WIRE_LEN + self.transport.wire_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;

    #[test]
    fn proto_roundtrip() {
        for v in [1u8, 6, 17, 89] {
            assert_eq!(IpProto::from(v).as_u8(), v);
        }
        assert_eq!(IpProto::from(6), IpProto::Tcp);
        assert_eq!(IpProto::from(17), IpProto::Udp);
        assert_eq!(IpProto::from(1), IpProto::Icmp);
    }

    #[test]
    fn transport_lengths() {
        let tcp = Transport::Tcp(TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            payload: Payload::Synthetic(100),
        });
        assert_eq!(tcp.wire_len(), 20 + 100);
        assert_eq!(tcp.proto(), IpProto::Tcp);
        assert_eq!(tcp.ports(), Some((1, 2)));

        let other = Transport::Other {
            proto: 89,
            payload: Payload::Synthetic(8),
        };
        assert_eq!(other.wire_len(), 8);
        assert_eq!(other.ports(), None);
    }

    #[test]
    fn packet_wire_len_includes_header() {
        let pkt = Ipv4Packet::new(
            Ipv4Header::new("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()),
            Transport::Other {
                proto: 50,
                payload: Payload::Synthetic(30),
            },
        );
        assert_eq!(pkt.wire_len(), 50);
    }
}
