//! Flow identification: the paper's "9-tuple".
//!
//! LiveSec identifies an end-to-end flow by nine header fields (paper
//! §III-C.3): VLAN id, the two MAC addresses and EtherType from layer 2,
//! the two IP addresses and protocol from layer 3, and the two transport
//! ports from layer 4. [`FlowKey`] is that tuple; [`SessionKey`] is its
//! direction-normalized form, used when the controller handles both
//! directions of a connection as one session.

use crate::ethernet::EtherType;
use crate::mac::MacAddr;
use crate::packet::{Body, Packet};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// The 9-tuple identifying a unidirectional flow.
///
/// `Ord` is part of the determinism contract: controller state keyed
/// by `FlowKey` lives in ordered maps so that iteration (and thus
/// event, flow-mod and history order) is identical across same-seed
/// runs. See `DESIGN.md` §6.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct FlowKey {
    /// VLAN id, or `None` for untagged traffic.
    pub vlan: Option<u16>,
    /// Source MAC address.
    pub dl_src: MacAddr,
    /// Destination MAC address.
    pub dl_dst: MacAddr,
    /// EtherType.
    pub dl_type: u16,
    /// Source IPv4 address.
    pub nw_src: Ipv4Addr,
    /// Destination IPv4 address.
    pub nw_dst: Ipv4Addr,
    /// IP protocol number.
    pub nw_proto: u8,
    /// Source transport port (0 for port-less protocols).
    pub tp_src: u16,
    /// Destination transport port (0 for port-less protocols).
    pub tp_dst: u16,
}

impl FlowKey {
    /// Extracts the flow key from an IPv4 packet; returns `None` for
    /// non-IP frames (ARP, LLDP, raw).
    pub fn of(pkt: &Packet) -> Option<FlowKey> {
        let ip = match &pkt.body {
            Body::Ipv4(ip) => ip,
            _ => return None,
        };
        let (tp_src, tp_dst) = ip.transport.ports().unwrap_or((0, 0));
        Some(FlowKey {
            vlan: pkt.eth.vlan.map(|t| t.vid),
            dl_src: pkt.eth.src,
            dl_dst: pkt.eth.dst,
            dl_type: EtherType::Ipv4.as_u16(),
            nw_src: ip.header.src,
            nw_dst: ip.header.dst,
            nw_proto: ip.transport.proto().as_u8(),
            tp_src,
            tp_dst,
        })
    }

    /// The key of the reverse-direction flow.
    ///
    /// Per the paper (§III-C.3), the controller constructs the reply
    /// flow's 9-tuple from the request flow's so both directions of a
    /// session can be provisioned from a single packet-in.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            vlan: self.vlan,
            dl_src: self.dl_dst,
            dl_dst: self.dl_src,
            dl_type: self.dl_type,
            nw_src: self.nw_dst,
            nw_dst: self.nw_src,
            nw_proto: self.nw_proto,
            tp_src: self.tp_dst,
            tp_dst: self.tp_src,
        }
    }

    /// The direction-normalized session key for this flow.
    pub fn session(&self) -> SessionKey {
        SessionKey::of(self)
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            self.nw_src, self.tp_src, self.nw_dst, self.tp_dst, self.nw_proto
        )
    }
}

/// A direction-normalized flow identity: both directions of a
/// connection map to the same `SessionKey`.
///
/// Normalization orders the `(ip, port, mac)` endpoint triples so the
/// lexicographically smaller endpoint comes first.
///
/// `Ord` for the same reason as [`FlowKey`]: session-keyed state must
/// be iterable in a run-stable order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SessionKey {
    /// VLAN id shared by both directions.
    pub vlan: Option<u16>,
    /// EtherType shared by both directions.
    pub dl_type: u16,
    /// IP protocol shared by both directions.
    pub nw_proto: u8,
    /// The smaller endpoint (ip, port, mac).
    pub lo: (Ipv4Addr, u16, MacAddr),
    /// The larger endpoint (ip, port, mac).
    pub hi: (Ipv4Addr, u16, MacAddr),
}

impl SessionKey {
    /// Normalizes `key` into a session identity.
    pub fn of(key: &FlowKey) -> SessionKey {
        let a = (key.nw_src, key.tp_src, key.dl_src);
        let b = (key.nw_dst, key.tp_dst, key.dl_dst);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        SessionKey {
            vlan: key.vlan,
            dl_type: key.dl_type,
            nw_proto: key.nw_proto,
            lo,
            hi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    fn sample() -> Packet {
        PacketBuilder::tcp(MacAddr::from_u64(1), MacAddr::from_u64(2))
            .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .ports(4000, 80)
            .build()
    }

    #[test]
    fn extracts_nine_fields() {
        let key = FlowKey::of(&sample()).unwrap();
        assert_eq!(key.dl_src, MacAddr::from_u64(1));
        assert_eq!(key.dl_dst, MacAddr::from_u64(2));
        assert_eq!(key.dl_type, 0x0800);
        assert_eq!(key.nw_proto, 6);
        assert_eq!(key.tp_src, 4000);
        assert_eq!(key.tp_dst, 80);
        assert_eq!(key.vlan, None);
    }

    #[test]
    fn vlan_captured() {
        let pkt = PacketBuilder::udp(MacAddr::from_u64(1), MacAddr::from_u64(2))
            .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .ports(1, 2)
            .vlan(33)
            .build();
        assert_eq!(FlowKey::of(&pkt).unwrap().vlan, Some(33));
    }

    #[test]
    fn non_ip_has_no_key() {
        let arp = crate::packet::arp_frame(crate::arp::ArpPacket::request(
            MacAddr::from_u64(1),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
        ));
        assert!(FlowKey::of(&arp).is_none());
    }

    #[test]
    fn reverse_is_involution() {
        let key = FlowKey::of(&sample()).unwrap();
        assert_eq!(key.reversed().reversed(), key);
        assert_ne!(key.reversed(), key);
    }

    #[test]
    fn session_key_direction_invariant() {
        let key = FlowKey::of(&sample()).unwrap();
        assert_eq!(key.session(), key.reversed().session());
    }

    #[test]
    fn different_flows_different_sessions() {
        let k1 = FlowKey::of(&sample()).unwrap();
        let mut k2 = k1;
        k2.tp_src = 4001;
        assert_ne!(k1.session(), k2.session());
    }
}
