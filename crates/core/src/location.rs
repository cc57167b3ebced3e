//! Host location discovery (paper §III-C.2) and the service-element
//! registry (§IV-B): one table owns everything the controller knows
//! about a located MAC.
//!
//! The controller learns where every host lives from the packets it
//! sends at an Access-Switching ingress port: the routing table maps
//! MAC → (switch, port, IP). The first sighting places a host, any
//! later one refreshes it, and only an ARP moves it (user/VM
//! mobility). Entries age out when a host is silent past the ARP
//! timeout — that is how user departure is detected — and go when
//! their port or switch does.
//!
//! A located MAC whose heartbeat arrived is also a service element:
//! the table holds its [`SeView`], which the balancer picks from. A
//! heartbeat from a MAC located nowhere registers nothing, and
//! [`LocationTable::remove`], the one way out, drops the location, its
//! IP index entry and the element view together: no element is known
//! and nowhere.

use crate::balance::SeView;
use crate::routing::Hop;
use livesec_net::MacAddr;
use livesec_services::{SeMessage, ServiceType};
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
/// for the directory proxy and the view of every located element.
#[derive(Debug, Default)]
pub struct LocationTable {
    by_mac: BTreeMap<MacAddr, Location>,
    by_ip: BTreeMap<Ipv4Addr, MacAddr>,
    /// The element views; every key is also in `by_mac`. A map of its
    /// own, so a pick scans the elements, not every host. Ordered: picks
    /// and the expiry sweep iterate it, and the resulting SeOffline and
    /// cleanup order is observable in history (DESIGN.md §6).
    elements: BTreeMap<MacAddr, SeView>,
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

    /// The steering hop of a located MAC.
    pub fn hop(&self, mac: MacAddr) -> Option<Hop> {
        let loc = self.by_mac.get(&mac)?;
        Some(Hop {
            mac,
            dpid: loc.dpid,
            port: loc.port,
        })
    }

    /// Looks up a host by IP (the directory proxy's query).
    pub fn lookup_ip(&self, ip: Ipv4Addr) -> Option<(MacAddr, &Location)> {
        let mac = *self.by_ip.get(&ip)?;
        Some((mac, self.by_mac.get(&mac)?))
    }

    /// The tick's sweep. Returns the hosts silent past `arp_timeout`
    /// (the paper's ARP timeout), for the caller to [`Self::remove`],
    /// then the elements not among them whose last heartbeat is older
    /// than `se_timeout`, now offline; each list in MAC order.
    pub fn expire(
        &mut self,
        now: SimTime,
        arp_timeout: SimDuration,
        se_timeout: SimDuration,
    ) -> (Vec<MacAddr>, Vec<MacAddr>) {
        let silent = |loc: &Location| now.saturating_since(loc.last_seen) > arp_timeout;
        let departed = self.macs_where(silent);
        let mut offline = Vec::new();
        for v in self.elements.values_mut() {
            let stays = self.by_mac.get(&v.mac).is_some_and(|loc| !silent(loc));
            if v.online && stays && now.saturating_since(v.last_seen) > se_timeout {
                v.online = false;
                offline.push(v.mac);
            }
        }
        (departed, offline)
    }

    /// The hosts attached to `port` of `dpid` (port failure), or to any
    /// of its ports when `port` is `None` (a dead switch), in MAC order.
    pub fn attached(&self, dpid: u64, port: Option<u32>) -> Vec<MacAddr> {
        self.macs_where(|loc| loc.dpid == dpid && port.is_none_or(|p| p == loc.port))
    }

    fn macs_where(&self, pick: impl Fn(&Location) -> bool) -> Vec<MacAddr> {
        self.by_mac
            .iter()
            .filter(|(_, loc)| pick(loc))
            .map(|(mac, _)| *mac)
            .collect()
    }

    /// The one way out: drops `mac`'s location, its IP index entry and
    /// its element view. Returns whether it was an online element.
    pub fn remove(&mut self, mac: MacAddr) -> bool {
        if let Some(loc) = self.by_mac.remove(&mac) {
            unindex(&mut self.by_ip, loc.ip, mac);
        }
        self.elements.remove(&mac).is_some_and(|v| v.online)
    }

    /// Ingests an `Online` heartbeat from `mac` at time `now`: the
    /// element's view takes the reported load and is online. A MAC
    /// located nowhere registers nothing. Returns whether the element
    /// just came online.
    pub fn heartbeat(&mut self, mac: MacAddr, msg: &SeMessage, now: SimTime) -> bool {
        let SeMessage::Online {
            service,
            cpu,
            mem,
            pps,
            bps,
            total_pkts,
            ..
        } = *msg
        else {
            return false;
        };
        if !self.by_mac.contains_key(&mac) {
            return false;
        }
        let outstanding_flows = self.elements.get(&mac).map_or(0, |v| v.outstanding_flows);
        let view = SeView {
            mac,
            service,
            cpu,
            mem,
            pps,
            total_pkts,
            bps,
            outstanding_flows,
            recent_assignments: 0, // fresh load figures
            last_seen: now,
            online: true,
        };
        self.elements.insert(mac, view).is_none_or(|v| !v.online)
    }

    /// The view of one element.
    pub fn get(&self, mac: MacAddr) -> Option<&SeView> {
        self.elements.get(&mac)
    }

    /// Every element view, in MAC order.
    pub fn elements(&self) -> impl Iterator<Item = &SeView> {
        self.elements.values()
    }

    /// Online elements of `service`, in MAC order.
    pub fn online_of(&self, service: ServiceType) -> impl Iterator<Item = &SeView> {
        self.elements
            .values()
            .filter(move |e| e.online && e.service == service)
    }

    /// Adjusts an element's outstanding-flow count. Positive deltas
    /// also count toward its since-last-report assignment pressure.
    pub fn adjust_outstanding(&mut self, mac: MacAddr, delta: i32) {
        if let Some(v) = self.elements.get_mut(&mac) {
            v.outstanding_flows = v.outstanding_flows.saturating_add_signed(delta);
            if delta > 0 {
                v.recent_assignments = v.recent_assignments.saturating_add(delta as u32);
            }
        }
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

    /// The sweep at `now` with a 500 ms ARP timeout and a 100 ms
    /// heartbeat timeout.
    fn expire(lt: &mut LocationTable, now: SimTime) -> (Vec<MacAddr>, Vec<MacAddr>) {
        let ms = SimDuration::from_millis;
        lt.expire(now, ms(500), ms(100))
    }

    fn online(service: ServiceType) -> SeMessage {
        SeMessage::Online {
            service,
            cert: 0,
            cpu: 10,
            mem: 20,
            pps: 30,
            bps: 40,
            total_pkts: 30,
        }
    }

    /// Locates `mac` at `at` and brings it online as an IDS at `now`.
    fn element(lt: &mut LocationTable, m: u64, at: (u64, u32), now: SimTime) {
        lt.learn(mac(m), ip(m as u8), at, now, true);
        assert!(lt.heartbeat(mac(m), &online(ServiceType::IntrusionDetection), now));
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
        assert_eq!(expire(&mut lt, t(1000)).0, vec![mac(1)]);
        lt.remove(mac(1));
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
        let (gone, _) = expire(&mut lt, t(1000));
        assert_eq!(gone, vec![mac(1)]);
        assert!(!lt.remove(mac(1)), "a host is no element");
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
        assert_eq!(lt.attached(1, Some(2)), vec![mac(1)]);
        lt.remove(mac(1));
        assert_eq!(lt.len(), 2);
    }

    #[test]
    fn evicting_a_switch_removes_all_its_hosts() {
        let mut lt = LocationTable::new();
        lt.learn(mac(1), ip(1), (1, 2), t(0), true);
        lt.learn(mac(2), ip(2), (1, 3), t(0), true);
        lt.learn(mac(3), ip(3), (2, 2), t(0), true);
        for mac in lt.attached(1, None) {
            lt.remove(mac);
        }
        assert_eq!(lt.len(), 1);
        assert!(lt.lookup(mac(2)).is_none());
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

    #[test]
    fn heartbeat_brings_an_element_online_until_it_expires() {
        let mut lt = LocationTable::new();
        element(&mut lt, 1, (1, 2), t(0));
        let ids = online(ServiceType::IntrusionDetection);
        assert!(!lt.heartbeat(mac(1), &ids, t(0)), "not new");
        assert_eq!(lt.online_of(ServiceType::IntrusionDetection).count(), 1);
        assert_eq!(lt.online_of(ServiceType::Firewall).count(), 0);

        lt.learn(mac(1), ip(1), (1, 2), t(200), false);
        assert_eq!(expire(&mut lt, t(200)), (vec![], vec![mac(1)]));
        assert_eq!(lt.online_of(ServiceType::IntrusionDetection).next(), None);
        assert!(lt.get(mac(1)).is_some(), "still located, so still known");
        assert!(lt.heartbeat(mac(1), &ids, t(300)), "back online");
    }

    #[test]
    fn heartbeat_ignores_event_messages() {
        let mut lt = LocationTable::new();
        lt.learn(mac(1), ip(1), (1, 2), t(0), true);
        let event = SeMessage::Event {
            cert: 0,
            flow: livesec_net::FlowKey {
                vlan: None,
                dl_src: mac(2),
                dl_dst: mac(1),
                dl_type: 0x0800,
                nw_src: ip(2),
                nw_dst: ip(1),
                nw_proto: 6,
                tp_src: 1,
                tp_dst: 80,
            },
            verdict: livesec_services::Verdict::Application { app: "x".into() },
        };
        assert!(!lt.heartbeat(mac(1), &event, t(0)));
        assert_eq!(lt.elements().count(), 0);
    }

    /// An element has no record of its own: a heartbeat from a MAC
    /// located nowhere registers nothing. Kills a registry that keeps
    /// elements apart from their locations.
    #[test]
    fn a_heartbeat_from_an_unlocated_mac_registers_nothing() {
        let mut lt = LocationTable::new();
        let ids = online(ServiceType::IntrusionDetection);
        assert!(!lt.heartbeat(mac(1), &ids, t(0)));
        assert!(lt.get(mac(1)).is_none());
        assert_eq!(lt.online_of(ServiceType::IntrusionDetection).count(), 0);
    }

    /// Removing an element's port takes its view with its location and
    /// reports that it was online; an offline element's removal does
    /// not. Kills a removal that leaves an offline ghost behind.
    #[test]
    fn evicting_an_elements_port_removes_its_view() {
        let mut lt = LocationTable::new();
        element(&mut lt, 1, (1, 2), t(0));
        element(&mut lt, 2, (1, 3), t(0));
        assert_eq!(lt.attached(1, Some(2)), vec![mac(1)]);
        assert!(lt.remove(mac(1)), "was online");
        assert!(lt.get(mac(1)).is_none());
        assert!(lt.lookup(mac(1)).is_none());

        lt.learn(mac(2), ip(2), (1, 3), t(200), false);
        assert_eq!(expire(&mut lt, t(200)).1, vec![mac(2)]);
        assert!(!lt.remove(mac(2)), "already offline");
        assert_eq!(lt.elements().count(), 0);
    }

    /// The sweep lists silent hosts first, then the elements still
    /// located whose heartbeat went stale, each in MAC order; a silent
    /// element is a departure only, still online for its removal to
    /// report. Kills a sweep that takes a departing element offline
    /// before it departs.
    #[test]
    fn expire_lists_departures_before_heartbeat_offlines() {
        let mut lt = LocationTable::new();
        element(&mut lt, 4, (1, 4), t(0));
        element(&mut lt, 3, (1, 3), t(0));
        lt.learn(mac(2), ip(2), (1, 2), t(0), true);
        element(&mut lt, 1, (1, 1), t(0));
        for m in [3, 4] {
            lt.learn(mac(m), ip(m as u8), (1, m as u32), t(900), false);
        }
        assert_eq!(
            expire(&mut lt, t(1000)),
            (vec![mac(1), mac(2)], vec![mac(3), mac(4)])
        );
        assert!(lt.remove(mac(1)), "departs online");
        assert!(!lt.remove(mac(2)), "a host");
    }
}
