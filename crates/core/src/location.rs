//! Host location discovery (paper §III-C.2).
//!
//! The controller learns where every host lives from the packets it
//! sends at an Access-Switching ingress port: the routing table maps
//! MAC → (switch, port, IP). The first sighting places a host, any
//! later one refreshes it, and only an ARP moves it (user/VM
//! mobility). Entries age out when a host is silent past the ARP
//! timeout — that is how user departure is detected — and go when
//! their port or switch does.

use livesec_net::MacAddr;
use livesec_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Where a host is attached.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Location {
    /// The AS switch's datapath id.
    pub dpid: u64,
    /// The Network-Periphery port on that switch.
    pub port: u32,
    /// The host's IP address.
    pub ip: Ipv4Addr,
    /// Last time traffic from the host was seen.
    pub last_seen: SimTime,
}

/// What [`LocationTable::learn`] observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LearnOutcome {
    /// First sighting of this MAC.
    New,
    /// Same place, refreshed timestamp.
    Refreshed,
    /// The host moved; the previous location is returned.
    Moved {
        /// Where it was before.
        from: (u64, u32),
    },
}

/// The controller's routing table: MAC → location, with an IP index
/// for the directory proxy.
#[derive(Debug, Default)]
pub struct LocationTable {
    by_mac: BTreeMap<MacAddr, Location>,
    by_ip: BTreeMap<Ipv4Addr, MacAddr>,
}

impl LocationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learns a host's location from a sighting at `(dpid, port)`. A
    /// known host is only marked seen, unless the sighting `may_move`
    /// it (an ARP): then it also takes the new place and address.
    pub fn learn(
        &mut self,
        mac: MacAddr,
        ip: Ipv4Addr,
        (dpid, port): (u64, u32),
        now: SimTime,
        may_move: bool,
    ) -> LearnOutcome {
        match self.by_mac.get_mut(&mac) {
            None => {
                self.by_mac.insert(
                    mac,
                    Location {
                        dpid,
                        port,
                        ip,
                        last_seen: now,
                    },
                );
                self.by_ip.insert(ip, mac);
                LearnOutcome::New
            }
            Some(loc) if !may_move => {
                loc.last_seen = now;
                LearnOutcome::Refreshed
            }
            Some(loc) => {
                let before = (loc.dpid, loc.port);
                let moved = before != (dpid, port);
                if loc.ip != ip {
                    unindex(&mut self.by_ip, loc.ip, mac);
                    self.by_ip.insert(ip, mac);
                }
                loc.dpid = dpid;
                loc.port = port;
                loc.ip = ip;
                loc.last_seen = now;
                if moved {
                    LearnOutcome::Moved { from: before }
                } else {
                    LearnOutcome::Refreshed
                }
            }
        }
    }

    /// Looks up a host by MAC.
    pub fn lookup(&self, mac: MacAddr) -> Option<&Location> {
        self.by_mac.get(&mac)
    }

    /// Looks up a host by IP (the directory proxy's query).
    pub fn lookup_ip(&self, ip: Ipv4Addr) -> Option<(MacAddr, &Location)> {
        let mac = *self.by_ip.get(&ip)?;
        Some((mac, self.by_mac.get(&mac)?))
    }

    /// Evicts hosts silent for longer than `timeout` (the paper's ARP
    /// timeout); returns the departed MACs.
    pub fn expire(&mut self, now: SimTime, timeout: SimDuration) -> Vec<MacAddr> {
        self.remove_where(|loc| now.saturating_since(loc.last_seen) > timeout)
    }

    /// Removes every host attached to `port` of `dpid` (port failure),
    /// or to any of its ports when `port` is `None` (a dead switch);
    /// returns them.
    pub fn evict(&mut self, dpid: u64, port: Option<u32>) -> Vec<MacAddr> {
        self.remove_where(|loc| loc.dpid == dpid && port.is_none_or(|p| p == loc.port))
    }

    /// Removes every host whose location satisfies `gone`; returns them
    /// in MAC order.
    fn remove_where(&mut self, gone: impl Fn(&Location) -> bool) -> Vec<MacAddr> {
        let dead: Vec<MacAddr> = self
            .by_mac
            .iter()
            .filter(|(_, loc)| gone(loc))
            .map(|(mac, _)| *mac)
            .collect();
        for &mac in &dead {
            if let Some(loc) = self.by_mac.remove(&mac) {
                unindex(&mut self.by_ip, loc.ip, mac);
            }
        }
        dead
    }

    /// Number of known hosts.
    pub fn len(&self) -> usize {
        self.by_mac.len()
    }

    /// Whether no hosts are known.
    pub fn is_empty(&self) -> bool {
        self.by_mac.is_empty()
    }

    /// All `(mac, location)` pairs in MAC order.
    pub fn iter(&self) -> impl Iterator<Item = (&MacAddr, &Location)> {
        self.by_mac.iter()
    }
}

/// Drops `ip`'s index entry while it still names `mac`: once another
/// host has taken the address over, the entry is that host's.
fn unindex(by_ip: &mut BTreeMap<Ipv4Addr, MacAddr>, ip: Ipv4Addr, mac: MacAddr) {
    if by_ip.get(&ip) == Some(&mac) {
        by_ip.remove(&ip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(v: u64) -> MacAddr {
        MacAddr::from_u64(v)
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn learn_new_refresh_move() {
        let mut lt = LocationTable::new();
        assert_eq!(
            lt.learn(mac(1), ip(1), (1, 2), t(0), true),
            LearnOutcome::New
        );
        assert_eq!(
            lt.learn(mac(1), ip(1), (1, 2), t(5), true),
            LearnOutcome::Refreshed
        );
        assert_eq!(
            lt.learn(mac(1), ip(1), (2, 3), t(10), true),
            LearnOutcome::Moved { from: (1, 2) }
        );
        let loc = lt.lookup(mac(1)).unwrap();
        assert_eq!((loc.dpid, loc.port), (2, 3));
        assert_eq!(loc.last_seen, t(10));
    }

    #[test]
    fn ip_index_follows_changes() {
        let mut lt = LocationTable::new();
        lt.learn(mac(1), ip(1), (1, 2), t(0), true);
        assert_eq!(lt.lookup_ip(ip(1)).unwrap().0, mac(1));
        // DHCP renumbering: same MAC, new IP.
        lt.learn(mac(1), ip(9), (1, 2), t(1), true);
        assert!(lt.lookup_ip(ip(1)).is_none());
        assert_eq!(lt.lookup_ip(ip(9)).unwrap().0, mac(1));
    }

    #[test]
    fn departure_keeps_a_taken_over_ip() {
        let mut lt = LocationTable::new();
        lt.learn(mac(1), ip(7), (1, 2), t(0), true);
        lt.learn(mac(2), ip(7), (1, 3), t(900), true);
        assert_eq!(
            lt.expire(t(1000), SimDuration::from_millis(500)),
            vec![mac(1)]
        );
        assert_eq!(lt.lookup_ip(ip(7)).unwrap().0, mac(2));
    }

    #[test]
    fn renumbering_keeps_a_taken_over_ip() {
        let mut lt = LocationTable::new();
        lt.learn(mac(1), ip(7), (1, 2), t(0), true);
        lt.learn(mac(2), ip(7), (1, 3), t(1), true);
        lt.learn(mac(1), ip(9), (1, 2), t(2), true);
        assert_eq!(lt.lookup_ip(ip(7)).unwrap().0, mac(2));
        assert_eq!(lt.lookup_ip(ip(9)).unwrap().0, mac(1));
    }

    #[test]
    fn expiry_detects_departure() {
        let mut lt = LocationTable::new();
        lt.learn(mac(1), ip(1), (1, 2), t(0), true);
        lt.learn(mac(2), ip(2), (1, 3), t(0), true);
        lt.learn(mac(2), ip(2), (1, 3), t(900), false);
        let gone = lt.expire(t(1000), SimDuration::from_millis(500));
        assert_eq!(gone, vec![mac(1)]);
        assert_eq!(lt.len(), 1);
        assert!(lt.lookup(mac(1)).is_none());
        assert!(lt.lookup_ip(ip(1)).is_none());
    }

    #[test]
    fn only_a_sighting_that_may_move_moves() {
        let mut lt = LocationTable::new();
        assert_eq!(
            lt.learn(mac(5), ip(5), (1, 2), t(0), false),
            LearnOutcome::New
        );
        assert_eq!(
            lt.learn(mac(5), ip(6), (2, 3), t(1), false),
            LearnOutcome::Refreshed
        );
        let loc = lt.lookup(mac(5)).unwrap();
        assert_eq!(
            (loc.dpid, loc.port, loc.ip, loc.last_seen),
            (1, 2, ip(5), t(1))
        );
        assert!(lt.lookup_ip(ip(6)).is_none());
    }

    #[test]
    fn evicting_a_port_removes_its_hosts() {
        let mut lt = LocationTable::new();
        lt.learn(mac(1), ip(1), (1, 2), t(0), true);
        lt.learn(mac(2), ip(2), (1, 3), t(0), true);
        lt.learn(mac(3), ip(3), (2, 2), t(0), true);
        let gone = lt.evict(1, Some(2));
        assert_eq!(gone, vec![mac(1)]);
        assert_eq!(lt.len(), 2);
    }

    #[test]
    fn evicting_a_switch_removes_all_its_hosts() {
        let mut lt = LocationTable::new();
        lt.learn(mac(1), ip(1), (1, 2), t(0), true);
        lt.learn(mac(2), ip(2), (1, 3), t(0), true);
        lt.learn(mac(3), ip(3), (2, 2), t(0), true);
        let gone = lt.evict(1, None);
        assert_eq!(gone, vec![mac(1), mac(2)]);
        assert_eq!(lt.len(), 1);
        assert!(lt.lookup_ip(ip(2)).is_none(), "ip index cleaned");
    }

    #[test]
    fn iteration_is_mac_ordered() {
        let mut lt = LocationTable::new();
        lt.learn(mac(3), ip(3), (1, 1), t(0), true);
        lt.learn(mac(1), ip(1), (1, 2), t(0), true);
        let order: Vec<MacAddr> = lt.iter().map(|(m, _)| *m).collect();
        assert_eq!(order, vec![mac(1), mac(3)]);
    }
}
