//! Property tests: match semantics, flow-table lookup vs a naive
//! model, and message-codec round-trips.

use livesec_net::{FlowKey, Ipv4Net, MacAddr};
use livesec_openflow::{
    codec, Action, FlowEntry, FlowModCommand, FlowTable, HeaderClass, Match, OfMessage, OutPort,
    PacketInReason, VlanMatch,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    // A small MAC universe makes wildcard/exact collisions likely.
    (0u64..8).prop_map(MacAddr::from_u64)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    (0u32..16).prop_map(|v| Ipv4Addr::from(0x0a00_0000 | v))
}

prop_compose! {
    fn arb_key()(
        dl_src in arb_mac(),
        dl_dst in arb_mac(),
        vlan in proptest::option::of(0u16..4),
        nw_src in arb_ip(),
        nw_dst in arb_ip(),
        nw_proto in prop_oneof![Just(6u8), Just(17u8), Just(1u8)],
        tp_src in 0u16..4,
        tp_dst in 0u16..4,
    ) -> FlowKey {
        FlowKey {
            vlan,
            dl_src,
            dl_dst,
            dl_type: 0x0800,
            nw_src,
            nw_dst,
            nw_proto,
            tp_src,
            tp_dst,
        }
    }
}

prop_compose! {
    fn arb_match()(
        in_port in proptest::option::of(1u32..4),
        dl_src in proptest::option::of(arb_mac()),
        dl_dst in proptest::option::of(arb_mac()),
        dl_vlan in proptest::option::of(prop_oneof![
            Just(VlanMatch::Untagged),
            (0u16..4).prop_map(VlanMatch::Tagged),
        ]),
        dl_type in proptest::option::of(Just(0x0800u16)),
        nw_src in proptest::option::of((arb_ip(), 24u8..=32).prop_map(|(ip, l)| Ipv4Net::new(ip, l))),
        nw_dst in proptest::option::of((arb_ip(), 24u8..=32).prop_map(|(ip, l)| Ipv4Net::new(ip, l))),
        nw_proto in proptest::option::of(prop_oneof![Just(6u8), Just(17u8)]),
        tp_src in proptest::option::of(0u16..4),
        tp_dst in proptest::option::of(0u16..4),
    ) -> Match {
        Match { in_port, dl_src, dl_dst, dl_vlan, dl_type, nw_src, nw_dst, nw_proto, tp_src, tp_dst }
    }
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u32..8).prop_map(|p| Action::Output(OutPort::Physical(p))),
        Just(Action::Output(OutPort::Flood)),
        Just(Action::Output(OutPort::Controller)),
        Just(Action::Output(OutPort::InPort)),
        arb_mac().prop_map(Action::SetDlSrc),
        arb_mac().prop_map(Action::SetDlDst),
        arb_ip().prop_map(Action::SetNwSrc),
        arb_ip().prop_map(Action::SetNwDst),
        any::<u16>().prop_map(Action::SetTpSrc),
        any::<u16>().prop_map(Action::SetTpDst),
        (0u16..4096).prop_map(Action::SetVlan),
        Just(Action::StripVlan),
    ]
}

proptest! {
    /// If `a` subsumes `b`, everything `b` matches, `a` matches.
    #[test]
    fn subsumption_is_sound(a in arb_match(), b in arb_match(), key in arb_key(), in_port in 1u32..4) {
        if a.subsumes(&b) && b.matches(in_port, &key) {
            prop_assert!(a.matches(in_port, &key));
        }
    }

    #[test]
    fn subsumption_is_reflexive_and_any_is_top(m in arb_match()) {
        prop_assert!(m.subsumes(&m));
        prop_assert!(Match::any().subsumes(&m));
    }

    #[test]
    fn exact_match_key_roundtrip(key in arb_key(), in_port in 1u32..4) {
        let m = Match::exact(in_port, &key);
        prop_assert!(m.matches(in_port, &key));
        prop_assert_eq!(m.exact_key(), Some(key));
    }

    /// FlowTable::lookup agrees with a naive linear model.
    #[test]
    fn table_lookup_matches_naive_model(
        entries in proptest::collection::vec((arb_match(), 0u16..4, 1u32..4), 0..12),
        probes in proptest::collection::vec((arb_key(), 1u32..4), 0..12),
    ) {
        let mut table = FlowTable::new();
        let mut model: Vec<(Match, u16, u32, usize)> = Vec::new();
        for (i, (m, prio, out)) in entries.iter().enumerate() {
            table.insert(FlowEntry::new(
                *m,
                vec![Action::Output(OutPort::Physical(*out))],
                *prio,
            ));
            // OpenFlow ADD replaces identical (match, priority).
            model.retain(|(em, ep, _, _)| !(em == m && ep == prio));
            model.push((*m, *prio, *out, i));
        }
        prop_assert_eq!(table.len(), model.len());
        for (key, in_port) in probes {
            let expected = model
                .iter()
                .filter(|(m, _, _, _)| m.matches(in_port, &key))
                .max_by(|a, b| (a.1, std::cmp::Reverse(a.3)).cmp(&(b.1, std::cmp::Reverse(b.3))))
                .map(|(_, _, out, _)| *out);
            let got = table.peek(in_port, &key).map(|e| match e.actions[0] {
                Action::Output(OutPort::Physical(p)) => p,
                _ => unreachable!("entries only output"),
            });
            prop_assert_eq!(got, expected);
        }
    }

    /// Timeout eviction never loses or duplicates entries.
    #[test]
    fn expiry_conserves_entries(
        keys in proptest::collection::vec(arb_key(), 1..10),
        idle in proptest::collection::vec(proptest::option::of(1u64..100), 1..10),
    ) {
        let mut table = FlowTable::new();
        let mut inserted = 0usize;
        for (key, idle) in keys.iter().zip(idle.iter()) {
            let mut e = FlowEntry::new(Match::exact(1, key), vec![], 1);
            e.idle_timeout = *idle;
            if table.insert_at(e, 0) == livesec_openflow::InsertOutcome::Added {
                inserted += 1;
            }
        }
        let evicted = table.expire(1_000).len();
        prop_assert_eq!(evicted + table.len(), inserted);
        // A second sweep finds nothing new.
        prop_assert!(table.expire(1_000).is_empty());
    }

    /// Every message the codec can produce decodes to itself.
    #[test]
    fn codec_roundtrip_flow_mod(
        m in arb_match(),
        actions in proptest::collection::vec(arb_action(), 0..6),
        prio in any::<u16>(),
        idle in proptest::option::of(any::<u64>()),
        hard in proptest::option::of(any::<u64>()),
        cookie in any::<u64>(),
        notify in any::<bool>(),
        xid in any::<u32>(),
    ) {
        let msg = OfMessage::FlowMod {
            command: FlowModCommand::Add,
            matcher: m,
            priority: prio,
            actions,
            idle_timeout: idle,
            hard_timeout: hard,
            cookie,
            notify_removed: notify,
        };
        let (back, back_xid) = codec::decode(&codec::encode(&msg, xid)).unwrap();
        prop_assert_eq!(back, msg);
        prop_assert_eq!(back_xid, xid);
    }

    #[test]
    fn codec_roundtrip_packet_in(data in proptest::collection::vec(any::<u8>(), 0..256), port in any::<u32>()) {
        let msg = OfMessage::PacketIn {
            in_port: port,
            reason: PacketInReason::NoMatch,
            data,
        };
        let (back, _) = codec::decode(&codec::encode(&msg, 1)).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// The meet is the AND of the operands: `a ∩ b` matches a packet
    /// exactly when both do, and a `None` meet means no packet
    /// satisfies both.
    #[test]
    fn intersection_is_the_meet(
        a in arb_match(),
        b in arb_match(),
        key in arb_key(),
        in_port in 1u32..4,
    ) {
        let both = a.matches(in_port, &key) && b.matches(in_port, &key);
        match a.intersect(&b) {
            Some(i) => {
                prop_assert_eq!(i.matches(in_port, &key), both);
                // The meet sits below both operands.
                prop_assert!(a.covers(&i));
                prop_assert!(b.covers(&i));
            }
            None => prop_assert!(!both),
        }
    }

    #[test]
    fn intersection_is_commutative_and_idempotent(a in arb_match(), b in arb_match()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.intersect(&a), Some(a.normalized()));
        prop_assert_eq!(a.intersect(&Match::any()), Some(a.normalized()));
    }

    /// `covers` is sound against concrete packets and agrees with
    /// `overlaps` on the easy direction.
    #[test]
    fn covers_is_sound(a in arb_match(), b in arb_match(), key in arb_key(), in_port in 1u32..4) {
        if a.covers(&b) {
            if b.matches(in_port, &key) {
                prop_assert!(a.matches(in_port, &key));
            }
            prop_assert!(a.overlaps(&b));
        }
    }

    /// Normalization never changes which packets a match accepts.
    #[test]
    fn normalization_preserves_semantics(m in arb_match(), key in arb_key(), in_port in 1u32..4) {
        prop_assert_eq!(m.normalized().matches(in_port, &key), m.matches(in_port, &key));
    }

    /// Difference-of-cubes subtraction is set difference: after
    /// `D = a - b`, a packet is in `D` exactly when `a` matches it
    /// and `b` does not; and any witness `D` extracts really is in
    /// `D`.
    #[test]
    fn header_class_subtraction_is_set_difference(
        a in arb_match(),
        b in arb_match(),
        key in arb_key(),
        in_port in 1u32..4,
    ) {
        let mut d = HeaderClass::of(a);
        d.subtract(&b);
        let expected = a.matches(in_port, &key) && !b.matches(in_port, &key);
        prop_assert_eq!(d.contains(in_port, &key), expected);
        if let Some((wp, wk)) = d.witness() {
            prop_assert!(d.contains(wp, &wk));
            prop_assert!(a.matches(wp, &wk));
            prop_assert!(!b.matches(wp, &wk));
        } else {
            // No witness claims emptiness: the sampled packet must
            // not be in the difference either.
            prop_assert!(!expected);
        }
    }

    /// Subtracting a region and re-adding the removed overlap
    /// recovers the original coverage: `(a - b) ∪ (a ∩ b) = a`.
    #[test]
    fn subtract_then_readd_recovers_coverage(
        a in arb_match(),
        b in arb_match(),
        key in arb_key(),
        in_port in 1u32..4,
    ) {
        let mut d = HeaderClass::of(a);
        d.subtract(&b);
        let readded = a.intersect(&b).is_some_and(|i| i.matches(in_port, &key));
        prop_assert_eq!(d.contains(in_port, &key) || readded, a.matches(in_port, &key));
    }

    #[test]
    fn codec_never_panics_on_corruption(
        m in arb_match(),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = codec::encode(&OfMessage::add_flow(m, vec![], 5), 9);
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        let _ = codec::decode(&bytes);
    }
}
