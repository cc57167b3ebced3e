//! ARP packets.
//!
//! ARP is load-bearing in LiveSec: the controller's *location
//! discovery* (paper §III-C.2) learns host positions from the first ARP
//! packet seen at each Access-Switching ingress port, and the directory
//! proxy answers ARP requests centrally instead of flooding them
//! through the legacy core.

use crate::mac::MacAddr;
use std::net::Ipv4Addr;

/// The ARP operation field.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArpOp {
    /// Who-has request (1).
    Request,
    /// Is-at reply (2).
    Reply,
}

impl ArpOp {
    /// The numeric operation code.
    pub const fn as_u16(self) -> u16 {
        match self {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        }
    }

    /// Parses an operation code; returns `None` for anything but 1 or 2.
    pub const fn from_u16(v: u16) -> Option<Self> {
        match v {
            1 => Some(ArpOp::Request),
            2 => Some(ArpOp::Reply),
            _ => None,
        }
    }
}

/// An ARP packet for IPv4 over Ethernet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArpPacket {
    /// Request or reply.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sha: MacAddr,
    /// Sender protocol (IPv4) address.
    pub spa: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub tha: MacAddr,
    /// Target protocol (IPv4) address.
    pub tpa: Ipv4Addr,
}

impl ArpPacket {
    /// On-wire length of an Ethernet/IPv4 ARP body.
    pub const WIRE_LEN: usize = 28;

    /// Builds a who-has request from `(sha, spa)` asking for `tpa`.
    pub fn request(sha: MacAddr, spa: Ipv4Addr, tpa: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sha,
            spa,
            tha: MacAddr::ZERO,
            tpa,
        }
    }

    /// Builds the reply answering `request` on behalf of `(sha, spa)`.
    pub fn reply_to(request: &ArpPacket, sha: MacAddr) -> Self {
        ArpPacket {
            op: ArpOp::Reply,
            sha,
            spa: request.tpa,
            tha: request.sha,
            tpa: request.spa,
        }
    }

    /// Builds a gratuitous ARP announcing `(sha, spa)`.
    ///
    /// Hosts emit one of these on joining the network, which is what
    /// drives the controller's location discovery.
    pub fn gratuitous(sha: MacAddr, spa: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sha,
            spa,
            tha: MacAddr::ZERO,
            tpa: spa,
        }
    }

    /// Returns `true` if this is a gratuitous announcement (target
    /// protocol address equals sender protocol address).
    pub fn is_gratuitous(&self) -> bool {
        self.spa == self.tpa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(v: u64) -> MacAddr {
        MacAddr::from_u64(v)
    }

    #[test]
    fn op_codes() {
        assert_eq!(ArpOp::Request.as_u16(), 1);
        assert_eq!(ArpOp::Reply.as_u16(), 2);
        assert_eq!(ArpOp::from_u16(1), Some(ArpOp::Request));
        assert_eq!(ArpOp::from_u16(2), Some(ArpOp::Reply));
        assert_eq!(ArpOp::from_u16(3), None);
    }

    #[test]
    fn reply_mirrors_request() {
        let req = ArpPacket::request(
            mac(1),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
        );
        let rep = ArpPacket::reply_to(&req, mac(2));
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sha, mac(2));
        assert_eq!(rep.spa, req.tpa);
        assert_eq!(rep.tha, req.sha);
        assert_eq!(rep.tpa, req.spa);
    }

    #[test]
    fn gratuitous_detection() {
        let g = ArpPacket::gratuitous(mac(7), "10.0.0.7".parse().unwrap());
        assert!(g.is_gratuitous());
        let req = ArpPacket::request(
            mac(1),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
        );
        assert!(!req.is_gratuitous());
    }
}
