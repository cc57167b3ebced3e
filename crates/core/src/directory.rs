//! The centralized ARP/DHCP directory proxy (paper §III-C.2).
//!
//! Broadcasting ARP and DHCP through the legacy fabric would load
//! every link and make every AS switch re-handle the broadcast, so
//! LiveSec resolves both centrally: the controller answers ARP
//! requests from its global location table, and this module's lease
//! allocator backs a DHCP server behind the same packet-in path.

use livesec_net::{DhcpMessage, DhcpMsgType, Ipv4Net, MacAddr};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A deterministic DHCP lease allocator over an address pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectoryProxy {
    pool: Ipv4Net,
    /// First host index handed out (skips network/gateway addresses).
    next_index: u32,
    leases: BTreeMap<MacAddr, Ipv4Addr>,
}

impl DirectoryProxy {
    /// Creates a proxy leasing from `pool`, starting at host index
    /// `first_index` (use it to reserve low addresses for static
    /// assignment).
    pub fn new(pool: Ipv4Net, first_index: u32) -> Self {
        DirectoryProxy {
            pool,
            next_index: first_index,
            leases: BTreeMap::new(),
        }
    }

    /// The lease currently held by `mac`, if any.
    pub fn lease_of(&self, mac: MacAddr) -> Option<Ipv4Addr> {
        self.leases.get(&mac).copied()
    }

    /// Number of active leases.
    pub fn lease_count(&self) -> usize {
        self.leases.len()
    }

    /// Allocates (or returns the existing) lease for `mac`; `None` if
    /// the pool is exhausted.
    pub fn allocate(&mut self, mac: MacAddr) -> Option<Ipv4Addr> {
        if let Some(ip) = self.leases.get(&mac) {
            return Some(*ip);
        }
        let host_bits = 32 - self.pool.prefix_len() as u32;
        let capacity: u64 = if host_bits >= 32 {
            u64::MAX
        } else {
            1u64 << host_bits
        };
        if u64::from(self.next_index) >= capacity.saturating_sub(1) {
            return None; // keep the broadcast address out of the pool
        }
        let ip = self.pool.nth(self.next_index);
        self.next_index += 1;
        self.leases.insert(mac, ip);
        Some(ip)
    }

    /// Handles one client DHCP message, producing the server reply (or
    /// `None` when the pool is exhausted or the message needs no
    /// reply).
    pub fn handle(&mut self, msg: &DhcpMessage) -> Option<DhcpMessage> {
        match msg.kind {
            DhcpMsgType::Discover => {
                let lease = self.allocate(msg.chaddr)?;
                Some(DhcpMessage::offer(msg, lease))
            }
            DhcpMsgType::Request => {
                // Honor the requested address if it matches our lease.
                match self.leases.get(&msg.chaddr) {
                    Some(ip) if *ip == msg.yiaddr => Some(DhcpMessage::ack(msg)),
                    _ => Some(DhcpMessage {
                        kind: DhcpMsgType::Nak,
                        ..*msg
                    }),
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(v: u64) -> MacAddr {
        MacAddr::from_u64(v)
    }

    fn proxy() -> DirectoryProxy {
        DirectoryProxy::new("10.0.0.0/24".parse().unwrap(), 10)
    }

    #[test]
    fn allocation_is_deterministic_and_stable() {
        let mut p = proxy();
        let a = p.allocate(mac(1)).unwrap();
        let b = p.allocate(mac(2)).unwrap();
        assert_eq!(a, "10.0.0.10".parse::<Ipv4Addr>().unwrap());
        assert_eq!(b, "10.0.0.11".parse::<Ipv4Addr>().unwrap());
        assert_eq!(p.allocate(mac(1)), Some(a), "same MAC keeps its lease");
        assert_eq!(p.lease_count(), 2);
    }

    #[test]
    fn full_dora_exchange() {
        let mut p = proxy();
        let d = DhcpMessage::discover(7, mac(1));
        let offer = p.handle(&d).unwrap();
        assert_eq!(offer.kind, DhcpMsgType::Offer);
        let req = DhcpMessage::request(&offer);
        let ack = p.handle(&req).unwrap();
        assert_eq!(ack.kind, DhcpMsgType::Ack);
        assert_eq!(ack.yiaddr, offer.yiaddr);
        assert_eq!(p.lease_of(mac(1)), Some(offer.yiaddr));
    }

    #[test]
    fn request_for_foreign_address_nacked() {
        let mut p = proxy();
        let mut req = DhcpMessage::discover(7, mac(1));
        req.kind = DhcpMsgType::Request;
        req.yiaddr = "10.0.0.200".parse().unwrap();
        let reply = p.handle(&req).unwrap();
        assert_eq!(reply.kind, DhcpMsgType::Nak);
    }

    #[test]
    fn pool_exhaustion() {
        // /30 pool: 4 addresses, indices 1..=2 usable (skip bcast).
        let mut p = DirectoryProxy::new("10.0.0.0/30".parse().unwrap(), 1);
        assert!(p.allocate(mac(1)).is_some());
        assert!(p.allocate(mac(2)).is_some());
        assert_eq!(p.allocate(mac(3)), None, "pool exhausted");
        // Existing lease still answered.
        assert!(p.allocate(mac(1)).is_some());
    }

    #[test]
    fn offer_replies_preserve_xid() {
        let mut p = proxy();
        let d = DhcpMessage::discover(0xfeed, mac(4));
        let offer = p.handle(&d).unwrap();
        assert_eq!(offer.xid, 0xfeed);
        assert_eq!(offer.chaddr, mac(4));
    }
}
