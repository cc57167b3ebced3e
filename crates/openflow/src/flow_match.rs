//! The OpenFlow 1.0 match structure.

use livesec_net::{ArpPacket, Body, EtherType, FlowKey, Ipv4Net, MacAddr, Packet};
use std::fmt;

/// How a match constrains the VLAN tag.
///
/// OpenFlow 1.0 treats "untagged" as a matchable value
/// (`OFP_VLAN_NONE`), distinct from wildcarding the field.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VlanMatch {
    /// Match only untagged frames.
    Untagged,
    /// Match frames tagged with this VID.
    Tagged(u16),
}

impl VlanMatch {
    /// The VLAN value of a flow key, as a `VlanMatch`.
    pub fn of_key(vlan: Option<u16>) -> Self {
        match vlan {
            None => VlanMatch::Untagged,
            Some(vid) => VlanMatch::Tagged(vid),
        }
    }

    /// Whether a flow key's VLAN value satisfies this constraint.
    pub fn accepts(self, vlan: Option<u16>) -> bool {
        self == Self::of_key(vlan)
    }
}

/// An OpenFlow 1.0 match: the physical ingress port plus the paper's
/// 9-tuple, each field either exact (`Some`) or wildcarded (`None`).
/// IP addresses support CIDR prefixes.
///
/// It is the one header selector in the system: flow entries, policy
/// rules, firewall rules and IDS rule headers all select with it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Match {
    /// Ingress port constraint.
    pub in_port: Option<u32>,
    /// Source MAC constraint.
    pub dl_src: Option<MacAddr>,
    /// Destination MAC constraint.
    pub dl_dst: Option<MacAddr>,
    /// VLAN constraint.
    pub dl_vlan: Option<VlanMatch>,
    /// EtherType constraint.
    pub dl_type: Option<u16>,
    /// Source IP prefix constraint.
    pub nw_src: Option<Ipv4Net>,
    /// Destination IP prefix constraint.
    pub nw_dst: Option<Ipv4Net>,
    /// IP protocol constraint (ARP opcode for ARP, per OF 1.0).
    pub nw_proto: Option<u8>,
    /// Source transport port constraint.
    pub tp_src: Option<u16>,
    /// Destination transport port constraint.
    pub tp_dst: Option<u16>,
}

impl Match {
    /// The match that wildcards every field (matches everything).
    pub fn any() -> Self {
        Match::default()
    }

    /// An exact match on ingress port and all nine key fields.
    ///
    /// This is the entry shape LiveSec installs for end-to-end routing
    /// and service steering (paper §III-C.3, §IV-A).
    pub fn exact(in_port: u32, key: &FlowKey) -> Self {
        Match {
            in_port: Some(in_port),
            dl_src: Some(key.dl_src),
            dl_dst: Some(key.dl_dst),
            dl_vlan: Some(VlanMatch::of_key(key.vlan)),
            dl_type: Some(key.dl_type),
            nw_src: Some(Ipv4Net::host(key.nw_src)),
            nw_dst: Some(Ipv4Net::host(key.nw_dst)),
            nw_proto: Some(key.nw_proto),
            tp_src: Some(key.tp_src),
            tp_dst: Some(key.tp_dst),
        }
    }

    /// Like [`Match::exact`] but wildcarding the ingress port.
    pub fn exact_any_port(key: &FlowKey) -> Self {
        Match {
            in_port: None,
            ..Match::exact(0, key)
        }
    }

    /// Sets the ingress port constraint.
    pub fn with_in_port(mut self, port: u32) -> Self {
        self.in_port = Some(port);
        self
    }

    /// Sets the destination MAC constraint.
    pub fn with_dl_dst(mut self, mac: MacAddr) -> Self {
        self.dl_dst = Some(mac);
        self
    }

    /// Sets the source MAC constraint.
    pub fn with_dl_src(mut self, mac: MacAddr) -> Self {
        self.dl_src = Some(mac);
        self
    }

    /// Sets the EtherType constraint.
    pub fn with_dl_type(mut self, t: u16) -> Self {
        self.dl_type = Some(t);
        self
    }

    /// Sets the IP protocol constraint.
    pub fn with_nw_proto(mut self, p: u8) -> Self {
        self.nw_proto = Some(p);
        self
    }

    /// Sets the source IP prefix constraint. A `/0` prefix accepts
    /// every address, so it normalizes to the wildcard.
    pub fn with_nw_src(mut self, net: Ipv4Net) -> Self {
        self.nw_src = (net.prefix_len() > 0).then_some(net);
        self
    }

    /// Sets the destination IP prefix constraint. A `/0` prefix
    /// accepts every address, so it normalizes to the wildcard.
    pub fn with_nw_dst(mut self, net: Ipv4Net) -> Self {
        self.nw_dst = (net.prefix_len() > 0).then_some(net);
        self
    }

    /// Sets the destination transport port constraint.
    pub fn with_tp_dst(mut self, p: u16) -> Self {
        self.tp_dst = Some(p);
        self
    }

    /// Whether a packet that arrived on `in_port` with header fields
    /// `key` satisfies this match.
    pub fn matches(&self, in_port: u32, key: &FlowKey) -> bool {
        if let Some(p) = self.in_port {
            if p != in_port {
                return false;
            }
        }
        if let Some(m) = self.dl_src {
            if m != key.dl_src {
                return false;
            }
        }
        if let Some(m) = self.dl_dst {
            if m != key.dl_dst {
                return false;
            }
        }
        if let Some(v) = self.dl_vlan {
            if !v.accepts(key.vlan) {
                return false;
            }
        }
        if let Some(t) = self.dl_type {
            if t != key.dl_type {
                return false;
            }
        }
        if let Some(n) = self.nw_src {
            if !n.contains(key.nw_src) {
                return false;
            }
        }
        if let Some(n) = self.nw_dst {
            if !n.contains(key.nw_dst) {
                return false;
            }
        }
        if let Some(p) = self.nw_proto {
            if p != key.nw_proto {
                return false;
            }
        }
        if let Some(p) = self.tp_src {
            if p != key.tp_src {
                return false;
            }
        }
        if let Some(p) = self.tp_dst {
            if p != key.tp_dst {
                return false;
            }
        }
        true
    }

    /// Whether every packet matched by `other` is also matched by
    /// `self` (used for non-strict flow deletion, per OF 1.0).
    pub fn subsumes(&self, other: &Match) -> bool {
        fn field<T: PartialEq>(a: &Option<T>, b: &Option<T>) -> bool {
            match (a, b) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(x), Some(y)) => x == y,
            }
        }
        let nets = |a: &Option<Ipv4Net>, b: &Option<Ipv4Net>| match (a, b) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(x), Some(y)) => x.contains_net(y),
        };
        field(&self.in_port, &other.in_port)
            && field(&self.dl_src, &other.dl_src)
            && field(&self.dl_dst, &other.dl_dst)
            && field(&self.dl_vlan, &other.dl_vlan)
            && field(&self.dl_type, &other.dl_type)
            && nets(&self.nw_src, &other.nw_src)
            && nets(&self.nw_dst, &other.nw_dst)
            && field(&self.nw_proto, &other.nw_proto)
            && field(&self.tp_src, &other.tp_src)
            && field(&self.tp_dst, &other.tp_dst)
    }

    /// Whether the nine header fields are all exact with host-precision
    /// IPs (the ingress port may still be wildcarded). Such entries are
    /// eligible for the flow table's hash fast-path.
    pub fn is_exact_headers(&self) -> bool {
        self.dl_src.is_some()
            && self.dl_dst.is_some()
            && self.dl_vlan.is_some()
            && self.dl_type.is_some()
            && self.nw_src.is_some_and(|n| n.prefix_len() == 32)
            && self.nw_dst.is_some_and(|n| n.prefix_len() == 32)
            && self.nw_proto.is_some()
            && self.tp_src.is_some()
            && self.tp_dst.is_some()
    }

    /// For a header-exact match, the [`FlowKey`] it pins down.
    pub fn exact_key(&self) -> Option<FlowKey> {
        if !self.is_exact_headers() {
            return None;
        }
        Some(FlowKey {
            vlan: match self.dl_vlan.expect("checked") {
                VlanMatch::Untagged => None,
                VlanMatch::Tagged(v) => Some(v),
            },
            dl_src: self.dl_src.expect("checked"),
            dl_dst: self.dl_dst.expect("checked"),
            dl_type: self.dl_type.expect("checked"),
            nw_src: self.nw_src.expect("checked").addr(),
            nw_dst: self.nw_dst.expect("checked").addr(),
            nw_proto: self.nw_proto.expect("checked"),
            tp_src: self.tp_src.expect("checked"),
            tp_dst: self.tp_dst.expect("checked"),
        })
    }

    /// Canonicalizes constraints that accept everything: a `/0` IP
    /// prefix matches every address, so `Some(0.0.0.0/0)` is the
    /// wildcard wearing a concrete-looking residue. Two matches that
    /// accept the same packets must compare (and hash) equal for the
    /// verifier's header-space algebra, so the builders, the codec
    /// decoder, and [`Match::intersect`] all route through here.
    #[must_use]
    pub fn normalized(mut self) -> Self {
        if self.nw_src.is_some_and(|n| n.prefix_len() == 0) {
            self.nw_src = None;
        }
        if self.nw_dst.is_some_and(|n| n.prefix_len() == 0) {
            self.nw_dst = None;
        }
        self
    }

    /// The match accepting exactly the packets accepted by both `self`
    /// and `other`, or `None` when no packet satisfies both.
    ///
    /// Field-wise meet is exact here because every field constraint is
    /// an interval (a point or a CIDR prefix): two prefixes are either
    /// nested or disjoint, so the intersection of two matches is again
    /// a single match.
    pub fn intersect(&self, other: &Match) -> Option<Match> {
        fn meet<T: PartialEq + Copy>(a: Option<T>, b: Option<T>) -> Result<Option<T>, ()> {
            match (a, b) {
                (None, x) | (x, None) => Ok(x),
                (Some(x), Some(y)) if x == y => Ok(Some(x)),
                _ => Err(()),
            }
        }
        fn meet_net(a: Option<Ipv4Net>, b: Option<Ipv4Net>) -> Result<Option<Ipv4Net>, ()> {
            match (a, b) {
                (None, x) | (x, None) => Ok(x),
                (Some(x), Some(y)) if x.contains_net(&y) => Ok(Some(y)),
                (Some(x), Some(y)) if y.contains_net(&x) => Ok(Some(x)),
                _ => Err(()),
            }
        }
        let a = self.normalized();
        let b = other.normalized();
        let met = Match {
            in_port: meet(a.in_port, b.in_port).ok()?,
            dl_src: meet(a.dl_src, b.dl_src).ok()?,
            dl_dst: meet(a.dl_dst, b.dl_dst).ok()?,
            dl_vlan: meet(a.dl_vlan, b.dl_vlan).ok()?,
            dl_type: meet(a.dl_type, b.dl_type).ok()?,
            nw_src: meet_net(a.nw_src, b.nw_src).ok()?,
            nw_dst: meet_net(a.nw_dst, b.nw_dst).ok()?,
            nw_proto: meet(a.nw_proto, b.nw_proto).ok()?,
            tp_src: meet(a.tp_src, b.tp_src).ok()?,
            tp_dst: meet(a.tp_dst, b.tp_dst).ok()?,
        };
        Some(met)
    }

    /// Whether some packet satisfies both matches.
    pub fn overlaps(&self, other: &Match) -> bool {
        self.intersect(other).is_some()
    }

    /// Whether every packet matched by `other` is also matched by
    /// `self` — [`Match::subsumes`] under its header-space name, but
    /// insensitive to `/0`-prefix residue on either side.
    pub fn covers(&self, other: &Match) -> bool {
        self.normalized().subsumes(&other.normalized())
    }
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(p) = self.in_port {
            parts.push(format!("in_port={p}"));
        }
        if let Some(m) = self.dl_src {
            parts.push(format!("dl_src={m}"));
        }
        if let Some(m) = self.dl_dst {
            parts.push(format!("dl_dst={m}"));
        }
        if let Some(v) = self.dl_vlan {
            parts.push(match v {
                VlanMatch::Untagged => "vlan=none".to_owned(),
                VlanMatch::Tagged(vid) => format!("vlan={vid}"),
            });
        }
        if let Some(t) = self.dl_type {
            parts.push(format!("dl_type=0x{t:04x}"));
        }
        if let Some(n) = self.nw_src {
            parts.push(format!("nw_src={n}"));
        }
        if let Some(n) = self.nw_dst {
            parts.push(format!("nw_dst={n}"));
        }
        if let Some(p) = self.nw_proto {
            parts.push(format!("nw_proto={p}"));
        }
        if let Some(p) = self.tp_src {
            parts.push(format!("tp_src={p}"));
        }
        if let Some(p) = self.tp_dst {
            parts.push(format!("tp_dst={p}"));
        }
        if parts.is_empty() {
            write!(f, "<any>")
        } else {
            write!(f, "{}", parts.join(","))
        }
    }
}

/// The EtherTypes [`lookup_key`] keys: IPv4 and ARP.
pub const LOOKUP_TYPES: [u16; 2] = [EtherType::Ipv4.as_u16(), EtherType::Arp.as_u16()];

/// Whether a switch looks frames of this EtherType up in its table; it
/// punts the others to the controller.
pub fn is_lookup_type(dl_type: u16) -> bool {
    LOOKUP_TYPES.contains(&dl_type)
}

/// Builds the table-lookup key for a packet, per OpenFlow 1.0: IPv4
/// packets use their real header fields; ARP packets map the opcode to
/// `nw_proto` and the protocol addresses to `nw_src`/`nw_dst`. LLDP and
/// unknown EtherTypes yield `None` (always sent to the controller), so
/// every key has a `dl_type` that [`is_lookup_type`] accepts.
pub fn lookup_key(pkt: &Packet) -> Option<FlowKey> {
    match &pkt.body {
        Body::Ipv4(_) => FlowKey::of(pkt),
        Body::Arp(ArpPacket { op, spa, tpa, .. }) => Some(FlowKey {
            vlan: pkt.eth.vlan.map(|t| t.vid),
            dl_src: pkt.eth.src,
            dl_dst: pkt.eth.dst,
            dl_type: EtherType::Arp.as_u16(),
            nw_src: *spa,
            nw_dst: *tpa,
            nw_proto: op.as_u16() as u8,
            tp_src: 0,
            tp_dst: 0,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_net::PacketBuilder;

    fn key() -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "10.0.0.2".parse().unwrap(),
            nw_proto: 6,
            tp_src: 555,
            tp_dst: 80,
        }
    }

    #[test]
    fn any_matches_everything() {
        assert!(Match::any().matches(3, &key()));
    }

    #[test]
    fn exact_matches_only_same_key() {
        let m = Match::exact(1, &key());
        assert!(m.matches(1, &key()));
        assert!(!m.matches(2, &key()), "wrong in_port");
        let mut other = key();
        other.tp_dst = 81;
        assert!(!m.matches(1, &other));
    }

    #[test]
    fn vlan_untagged_vs_tagged() {
        let mut k = key();
        let m = Match {
            dl_vlan: Some(VlanMatch::Untagged),
            ..Match::any()
        };
        assert!(m.matches(1, &k));
        k.vlan = Some(7);
        assert!(!m.matches(1, &k));
        let m7 = Match {
            dl_vlan: Some(VlanMatch::Tagged(7)),
            ..Match::any()
        };
        assert!(m7.matches(1, &k));
        k.vlan = Some(8);
        assert!(!m7.matches(1, &k));
    }

    #[test]
    fn prefix_matching() {
        let m = Match::any().with_nw_dst("10.0.0.0/24".parse().unwrap());
        assert!(m.matches(1, &key()));
        let mut far = key();
        far.nw_dst = "10.0.1.2".parse().unwrap();
        assert!(!m.matches(1, &far));
    }

    #[test]
    fn subsumption_rules() {
        let wide = Match::any().with_dl_type(0x0800);
        let narrow = Match::exact(1, &key());
        assert!(Match::any().subsumes(&wide));
        assert!(wide.subsumes(&narrow));
        assert!(!narrow.subsumes(&wide));
        assert!(narrow.subsumes(&narrow));

        let cidr_wide = Match::any().with_nw_dst("10.0.0.0/8".parse().unwrap());
        let cidr_narrow = Match::any().with_nw_dst("10.1.0.0/16".parse().unwrap());
        assert!(cidr_wide.subsumes(&cidr_narrow));
        assert!(!cidr_narrow.subsumes(&cidr_wide));
    }

    #[test]
    fn exact_headers_and_key_roundtrip() {
        let m = Match::exact(1, &key());
        assert!(m.is_exact_headers());
        assert_eq!(m.exact_key(), Some(key()));

        let m2 = Match::exact_any_port(&key());
        assert!(m2.is_exact_headers());
        assert_eq!(m2.in_port, None);

        let wild = Match::any().with_dl_type(0x0800);
        assert!(!wild.is_exact_headers());
        assert_eq!(wild.exact_key(), None);

        let cidr = Match {
            nw_src: Some("10.0.0.0/24".parse().unwrap()),
            ..Match::exact(1, &key())
        };
        assert!(!cidr.is_exact_headers());
    }

    #[test]
    fn lookup_key_ipv4_and_arp() {
        let ip_pkt = PacketBuilder::tcp(MacAddr::from_u64(1), MacAddr::from_u64(2))
            .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .ports(555, 80)
            .build();
        assert_eq!(lookup_key(&ip_pkt), Some(key()));

        let arp = livesec_net::packet::arp_frame(ArpPacket::request(
            MacAddr::from_u64(1),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
        ));
        let k = lookup_key(&arp).unwrap();
        assert_eq!(k.dl_type, 0x0806);
        assert!(is_lookup_type(k.dl_type) && is_lookup_type(0x0800));
        assert_eq!(k.nw_proto, 1); // ARP request opcode
        assert_eq!(k.nw_src, "10.0.0.1".parse::<std::net::Ipv4Addr>().unwrap());

        let lldp = livesec_net::packet::lldp_frame(
            MacAddr::from_u64(3),
            livesec_net::LldpFrame::new(1, 2),
        );
        assert_eq!(lookup_key(&lldp), None);
        assert!(!is_lookup_type(lldp.eth.ethertype.as_u16()));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Match::any().to_string(), "<any>");
        let m = Match::any().with_in_port(3).with_tp_dst(80);
        assert_eq!(m.to_string(), "in_port=3,tp_dst=80");
    }
}
