//! Header-space algebra over [`Match`] — the difference-of-cubes
//! representation a VeriFlow-style dataplane verifier needs.
//!
//! A single [`Match`] is a *cube*: each field is either pinned (to a
//! point or a CIDR prefix) or free. Cubes are closed under
//! intersection ([`Match::intersect`]) but not under subtraction, so
//! set-valued reasoning uses [`HeaderClass`]: one cube minus a list
//! of exclusion cubes.
//!
//! The representation is *lazy*: subtraction just records exclusions.
//! Emptiness and membership questions are answered by
//! [`HeaderClass::witness`], a complete concretization procedure that
//! either produces an actual `(in_port, FlowKey)` packet inside the
//! class or proves none exists. Completeness rests on two facts:
//!
//! * For a field the base leaves free, a value *different from every
//!   exclusion's pin* for that field falsifies all those exclusions
//!   at once, so only "fresh" and "equal to some pin" are ever
//!   distinguishable choices.
//! * CIDR prefixes form a laminar family, so the complement of a
//!   union of prefixes inside a base prefix is itself a union of
//!   prefixes, each of which is the sibling of an ancestor of some
//!   excluded prefix (or the base itself). Enumerating those
//!   siblings' addresses — plus each exclusion's own address —
//!   therefore hits every distinguishable cell of the partition.

use crate::flow_match::{Match, VlanMatch};
use livesec_net::{FlowKey, Ipv4Net, MacAddr};
use std::fmt;
use std::net::Ipv4Addr;

/// One difference-of-cubes term: every packet matched by `base` and
/// by none of `except`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HeaderClass {
    /// The enclosing cube.
    pub base: Match,
    /// Cubes carved out of `base` (stored pre-intersected with it).
    pub except: Vec<Match>,
}

impl HeaderClass {
    /// The class of every packet matched by `m`.
    pub fn of(m: Match) -> Self {
        HeaderClass {
            base: m.normalized(),
            except: Vec::new(),
        }
    }

    /// Removes `m`'s packets from the class. A no-op when `m` does
    /// not overlap the base cube.
    pub fn subtract(&mut self, m: &Match) {
        if let Some(cut) = self.base.intersect(m) {
            if !self.except.contains(&cut) {
                self.except.push(cut);
            }
        }
    }

    /// Whether a concrete packet lies in the class.
    pub fn contains(&self, in_port: u32, key: &FlowKey) -> bool {
        self.base.matches(in_port, key) && self.except.iter().all(|e| !e.matches(in_port, key))
    }

    /// Produces a concrete packet inside the class, or `None` when
    /// the class is provably empty (the procedure is complete, so
    /// `None` *is* an emptiness proof).
    pub fn witness(&self) -> Option<(u32, FlowKey)> {
        // Phase 1: pin every non-IP field — the base's value when
        // pinned, otherwise a fresh value disagreeing with every
        // exclusion's pin for that field (which falsifies those
        // exclusions outright).
        let b = &self.base;
        let in_port = b
            .in_port
            .unwrap_or_else(|| fresh_u32(1, self.except.iter().filter_map(|e| e.in_port)));
        let dl_src = b
            .dl_src
            .unwrap_or_else(|| fresh_mac(0xaa01, self.except.iter().filter_map(|e| e.dl_src)));
        let dl_dst = b
            .dl_dst
            .unwrap_or_else(|| fresh_mac(0xbb02, self.except.iter().filter_map(|e| e.dl_dst)));
        let vlan = match b.dl_vlan {
            Some(VlanMatch::Untagged) => None,
            Some(VlanMatch::Tagged(v)) => Some(v),
            None => fresh_vlan(self.except.iter().filter_map(|e| e.dl_vlan)),
        };
        let dl_type = b
            .dl_type
            .unwrap_or_else(|| fresh_u16(0x0800, self.except.iter().filter_map(|e| e.dl_type)));
        let nw_proto = b
            .nw_proto
            .unwrap_or_else(|| fresh_u8(6, self.except.iter().filter_map(|e| e.nw_proto)));
        let tp_src = b
            .tp_src
            .unwrap_or_else(|| fresh_u16(40_000, self.except.iter().filter_map(|e| e.tp_src)));
        let tp_dst = b
            .tp_dst
            .unwrap_or_else(|| fresh_u16(80, self.except.iter().filter_map(|e| e.tp_dst)));

        let mut key = FlowKey {
            vlan,
            dl_src,
            dl_dst,
            dl_type,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: Ipv4Addr::UNSPECIFIED,
            nw_proto,
            tp_src,
            tp_dst,
        };

        // Phase 2: exclusions still alive after phase 1 can only be
        // evaded through the IP fields. Try every distinguishable
        // source address; for each, every distinguishable destination.
        let base_src = b.nw_src.unwrap_or_else(Ipv4Net::any);
        let base_dst = b.nw_dst.unwrap_or_else(Ipv4Net::any);
        let ip_live: Vec<&Match> = self
            .except
            .iter()
            // An exclusion stays live when it accepts the packet with
            // its two IP constraints lifted.
            .filter(|e| {
                Match {
                    nw_src: None,
                    nw_dst: None,
                    ..**e
                }
                .matches(in_port, &key)
            })
            .collect();
        for src in prefix_candidates(base_src, ip_live.iter().filter_map(|e| e.nw_src)) {
            key.nw_src = src;
            let dst_live: Vec<&&Match> = ip_live
                .iter()
                .filter(|e| e.nw_src.is_none_or(|n| n.contains(src)))
                .collect();
            for dst in prefix_candidates(base_dst, dst_live.iter().filter_map(|e| e.nw_dst)) {
                key.nw_dst = dst;
                if self.contains(in_port, &key) {
                    return Some((in_port, key));
                }
            }
        }
        None
    }

    /// Whether the class contains no packet at all.
    pub fn is_empty(&self) -> bool {
        self.witness().is_none()
    }
}

impl fmt::Display for HeaderClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        for e in &self.except {
            write!(f, " \\ ({e})")?;
        }
        Ok(())
    }
}

fn fresh_u32(preferred: u32, pinned: impl Iterator<Item = u32> + Clone) -> u32 {
    (preferred..)
        .find(|v| !pinned.clone().any(|p| p == *v))
        .unwrap_or(preferred)
}

fn fresh_u16(preferred: u16, pinned: impl Iterator<Item = u16> + Clone) -> u16 {
    let mut v = preferred;
    loop {
        if !pinned.clone().any(|p| p == v) {
            return v;
        }
        v = v.wrapping_add(1);
    }
}

fn fresh_u8(preferred: u8, pinned: impl Iterator<Item = u8> + Clone) -> u8 {
    let mut v = preferred;
    loop {
        if !pinned.clone().any(|p| p == v) {
            return v;
        }
        v = v.wrapping_add(1);
    }
}

fn fresh_mac(seed: u64, pinned: impl Iterator<Item = MacAddr> + Clone) -> MacAddr {
    (seed..)
        .map(MacAddr::from_u64)
        .find(|m| !pinned.clone().any(|p| p == *m))
        .unwrap_or_else(|| MacAddr::from_u64(seed))
}

fn fresh_vlan(pinned: impl Iterator<Item = VlanMatch> + Clone) -> Option<u16> {
    if !pinned.clone().any(|v| v == VlanMatch::Untagged) {
        return None;
    }
    (1u16..)
        .find(|v| !pinned.clone().any(|p| p == VlanMatch::Tagged(*v)))
        .map(Some)
        .unwrap_or(None)
}

/// Candidate addresses inside `base` sufficient to distinguish every
/// cell of the partition the excluded prefixes induce: the base's own
/// address, each exclusion's address, and the address of the sibling
/// of every ancestor (within `base`) of each exclusion.
fn prefix_candidates(base: Ipv4Net, excluded: impl Iterator<Item = Ipv4Net>) -> Vec<Ipv4Addr> {
    let mut out = vec![base.addr()];
    for p in excluded {
        if !base.contains_net(&p) {
            continue;
        }
        out.push(p.addr());
        let bits = u32::from(p.addr());
        for len in (base.prefix_len() + 1)..=p.prefix_len() {
            // Sibling of p's ancestor at `len`: flip the bit that
            // distinguishes the two halves, clear everything deeper.
            let flip = bits ^ (1u32 << (32 - len));
            out.push(Ipv4Net::new(Ipv4Addr::from(flip), len).addr());
        }
    }
    out.retain(|a| base.contains(*a));
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn universe_has_witness() {
        let (p, k) = HeaderClass::of(Match::any()).witness().expect("non-empty");
        assert!(Match::any().matches(p, &k));
    }

    #[test]
    fn subtracting_exact_leaves_rest() {
        let mut c = HeaderClass::of(Match::any());
        c.subtract(&Match::exact(1, &key()));
        let (p, k) = c.witness().expect("almost everything remains");
        assert!(c.contains(p, &k));
        assert!(!(p == 1 && k == key()));
    }

    #[test]
    fn exact_minus_itself_is_empty() {
        let mut c = HeaderClass::of(Match::exact(1, &key()));
        c.subtract(&Match::exact(1, &key()));
        assert!(c.is_empty());
    }

    #[test]
    fn covering_prefix_split_is_empty() {
        // 10.0.0.0/24 minus its two /25 halves is empty.
        let base = Match::any().with_nw_src(Ipv4Net::new("10.0.0.0".parse().unwrap(), 24));
        let mut c = HeaderClass::of(base);
        c.subtract(&Match::any().with_nw_src(Ipv4Net::new("10.0.0.0".parse().unwrap(), 25)));
        c.subtract(&Match::any().with_nw_src(Ipv4Net::new("10.0.0.128".parse().unwrap(), 25)));
        assert!(c.is_empty());
    }

    #[test]
    fn partial_prefix_cover_finds_the_gap() {
        // /0 minus 0.0.0.0/2: witness must land in the other 3/4.
        let mut c = HeaderClass::of(Match::any());
        c.subtract(&Match::any().with_nw_src(Ipv4Net::new("0.0.0.0".parse().unwrap(), 2)));
        let (_, k) = c.witness().expect("gap exists");
        assert!(u32::from(k.nw_src) >= 1 << 30);
    }

    #[test]
    fn cross_field_evasion_is_found() {
        // Exclusions cover all of src-space and all of dst-space
        // separately, but each only together with a pinned port —
        // evading on the port leaves a witness.
        let mut c = HeaderClass::of(Match::any());
        c.subtract(&Match::any().with_tp_dst(80));
        let (_, k) = c.witness().expect("other ports remain");
        assert_ne!(k.tp_dst, 80);

        // Src halves excluded under different dst constraints: a
        // witness needs src in one half and dst outside that half's
        // companion constraint.
        let mut c2 = HeaderClass::of(Match::any());
        c2.subtract(
            &Match::any()
                .with_nw_src(Ipv4Net::new("0.0.0.0".parse().unwrap(), 1))
                .with_nw_dst(Ipv4Net::new("0.0.0.0".parse().unwrap(), 1)),
        );
        c2.subtract(&Match::any().with_nw_src(Ipv4Net::new("128.0.0.0".parse().unwrap(), 1)));
        let (p, k) = c2.witness().expect("low src with high dst survives");
        assert!(c2.contains(p, &k));
        assert!(u32::from(k.nw_src) < 1 << 31);
        assert!(u32::from(k.nw_dst) >= 1 << 31);
    }
}
