//! Minimal DHCP messages.
//!
//! The paper (§III-C.2) routes ARP *and DHCP* resolution through a
//! dedicated directory proxy instead of broadcasting through the legacy
//! core. We model the four-message DORA exchange with just enough
//! fields for the proxy to hand out deterministic leases.

#![warn(clippy::indexing_slicing)]

use crate::cursor::Cursor;
use crate::mac::MacAddr;
use std::net::Ipv4Addr;

/// The DHCP message type option (option 53).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DhcpMsgType {
    /// Client broadcast looking for servers.
    Discover,
    /// Server offer of a lease.
    Offer,
    /// Client request for the offered lease.
    Request,
    /// Server acknowledgement: lease granted.
    Ack,
    /// Server refusal.
    Nak,
}

/// A DHCP message, carried in UDP 68→67 / 67→68.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DhcpMessage {
    /// Message type.
    pub kind: DhcpMsgType,
    /// Transaction id chosen by the client.
    pub xid: u32,
    /// Client hardware address.
    pub chaddr: MacAddr,
    /// "Your" address: the offered/assigned lease (zero in Discover).
    pub yiaddr: Ipv4Addr,
}

impl DhcpMessage {
    /// Nominal on-wire length of a BOOTP-framed DHCP message.
    pub const WIRE_LEN: usize = 300;

    /// Client port (bootpc).
    pub const CLIENT_PORT: u16 = 68;
    /// Server port (bootps).
    pub const SERVER_PORT: u16 = 67;

    /// Builds a client Discover.
    pub fn discover(xid: u32, chaddr: MacAddr) -> Self {
        DhcpMessage {
            kind: DhcpMsgType::Discover,
            xid,
            chaddr,
            yiaddr: Ipv4Addr::UNSPECIFIED,
        }
    }

    /// Builds the server Offer answering `discover` with `lease`.
    pub fn offer(discover: &DhcpMessage, lease: Ipv4Addr) -> Self {
        DhcpMessage {
            kind: DhcpMsgType::Offer,
            xid: discover.xid,
            chaddr: discover.chaddr,
            yiaddr: lease,
        }
    }

    /// Builds the client Request accepting `offer`.
    pub fn request(offer: &DhcpMessage) -> Self {
        DhcpMessage {
            kind: DhcpMsgType::Request,
            ..*offer
        }
    }

    /// Builds the server Ack confirming `request`.
    pub fn ack(request: &DhcpMessage) -> Self {
        DhcpMessage {
            kind: DhcpMsgType::Ack,
            ..*request
        }
    }

    /// Encodes the message into the compact byte form carried as a UDP
    /// payload in the simulator (15 bytes: kind, xid, chaddr, yiaddr).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(15);
        out.push(match self.kind {
            DhcpMsgType::Discover => 1,
            DhcpMsgType::Offer => 2,
            DhcpMsgType::Request => 3,
            DhcpMsgType::Ack => 5,
            DhcpMsgType::Nak => 6,
        });
        out.extend_from_slice(&self.xid.to_be_bytes());
        out.extend_from_slice(&self.chaddr.octets());
        out.extend_from_slice(&self.yiaddr.octets());
        out
    }

    /// Decodes a message previously produced by [`DhcpMessage::encode`].
    /// Returns `None` for malformed input.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Cursor::new(bytes);
        let kind = match r.u8().ok()? {
            1 => DhcpMsgType::Discover,
            2 => DhcpMsgType::Offer,
            3 => DhcpMsgType::Request,
            5 => DhcpMsgType::Ack,
            6 => DhcpMsgType::Nak,
            _ => return None,
        };
        let xid = r.u32().ok()?;
        let chaddr = r.mac().ok()?;
        let yiaddr = r.ipv4().ok()?;
        Some(DhcpMessage {
            kind,
            xid,
            chaddr,
            yiaddr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let msg = DhcpMessage {
            kind: DhcpMsgType::Offer,
            xid: 0xdead_beef,
            chaddr: MacAddr::from_u64(0x0016_3e00_0001),
            yiaddr: "10.0.1.44".parse().unwrap(),
        };
        assert_eq!(DhcpMessage::decode(&msg.encode()), Some(msg));
        assert_eq!(DhcpMessage::decode(b"short"), None);
        assert_eq!(DhcpMessage::decode(&[9; 15]), None);
    }

    #[test]
    fn dora_exchange_threads_xid_and_lease() {
        let mac = MacAddr::from_u64(0x42);
        let lease: Ipv4Addr = "10.0.0.99".parse().unwrap();
        let d = DhcpMessage::discover(7, mac);
        assert_eq!(d.yiaddr, Ipv4Addr::UNSPECIFIED);
        let o = DhcpMessage::offer(&d, lease);
        let r = DhcpMessage::request(&o);
        let a = DhcpMessage::ack(&r);
        assert_eq!(a.kind, DhcpMsgType::Ack);
        assert_eq!(a.xid, 7);
        assert_eq!(a.chaddr, mac);
        assert_eq!(a.yiaddr, lease);
    }
}
