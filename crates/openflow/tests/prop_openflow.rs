//! Property tests: match semantics, flow-table lookup vs a naive
//! model, the key walk against the frame walk, `ActionList` against
//! the `Vec<Action>` it replaces, message-codec round-trips (with
//! action lists inline and spilled), the in-place encoders' wire
//! identity with `codec::encode`, and the switch channel's in-place
//! receive path against `codec::decode_all`.

use livesec_net::packet::{arp_frame, icmp_frame, lldp_frame};
use livesec_net::{
    wire, ArpPacket, FlowKey, IcmpMessage, Ipv4Net, LldpFrame, MacAddr, Packet, PacketBuilder,
    VlanTag,
};
use livesec_openflow::codec::FlowModRef;
use livesec_openflow::{
    apply_actions_owned, apply_actions_to_key, codec, lookup_key, Action, ActionList, FlowEntry,
    FlowModCommand, FlowRemovedReason, FlowStats, FlowTable, ForwardingAttestation, HeaderClass,
    Match, OfMessage, OutPort, PacketInReason, PortStats, PortStatusReason, StatsBody,
    StatsRequestKind, SwitchChannel, VlanMatch, INLINE_ACTIONS,
};
use proptest::collection::vec;
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

/// A list of 0–8 actions, on both sides of [`INLINE_ACTIONS`], stored
/// inline or boxed: a boxed list keeps its allocation whatever its
/// length.
fn arb_action_list() -> impl Strategy<Value = ActionList> {
    (vec(arb_action(), 0..=8), any::<bool>()).prop_map(|(actions, boxed)| {
        if boxed {
            ActionList::from(actions.into_boxed_slice())
        } else {
            ActionList::from(actions)
        }
    })
}

fn arb_command() -> impl Strategy<Value = FlowModCommand> {
    prop_oneof![
        Just(FlowModCommand::Add),
        Just(FlowModCommand::Modify),
        Just(FlowModCommand::ModifyStrict),
        Just(FlowModCommand::Delete),
        Just(FlowModCommand::DeleteStrict),
    ]
}

fn arb_string() -> impl Strategy<Value = String> {
    vec(32u8..127, 0..12).prop_map(|b| b.into_iter().map(char::from).collect())
}

prop_compose! {
    fn arb_flow_mod()(
        command in arb_command(),
        matcher in arb_match(),
        priority in any::<u16>(),
        actions in arb_action_list(),
        idle_timeout in proptest::option::of(any::<u64>()),
        hard_timeout in proptest::option::of(any::<u64>()),
        cookie in any::<u64>(),
        notify_removed in any::<bool>(),
    ) -> OfMessage {
        OfMessage::FlowMod {
            command, matcher, priority, actions, idle_timeout, hard_timeout, cookie, notify_removed,
        }
    }
}

prop_compose! {
    fn arb_flow_stats()(
        matcher in arb_match(),
        priority in any::<u16>(),
        cookie in any::<u64>(),
        packet_count in any::<u64>(),
        byte_count in any::<u64>(),
        duration in any::<u64>(),
    ) -> FlowStats {
        FlowStats { matcher, priority, cookie, packet_count, byte_count, duration }
    }
}

prop_compose! {
    fn arb_port_stats()(
        port_no in any::<u32>(),
        rx_packets in any::<u64>(),
        tx_packets in any::<u64>(),
        rx_bytes in any::<u64>(),
        tx_bytes in any::<u64>(),
        drops in any::<u64>(),
    ) -> PortStats {
        PortStats { port_no, rx_packets, tx_packets, rx_bytes, tx_bytes, drops }
    }
}

prop_compose! {
    fn arb_attestation()(
        dpid in any::<u64>(),
        in_port in any::<u32>(),
        out_port in any::<u32>(),
        cookie in any::<u64>(),
        flow in arb_key(),
        pkt_tag in any::<u64>(),
        tag in any::<u64>(),
    ) -> OfMessage {
        OfMessage::Attestation(ForwardingAttestation {
            dpid, in_port, out_port, cookie, flow, pkt_tag, tag,
        })
    }
}

/// A message of any kind the codec frames, every sub-kind included.
fn arb_message() -> impl Strategy<Value = OfMessage> {
    let bytes = || vec(any::<u8>(), 0..64);
    prop_oneof![
        Just(OfMessage::Hello),
        any::<u64>().prop_map(OfMessage::EchoRequest),
        any::<u64>().prop_map(OfMessage::EchoReply),
        Just(OfMessage::FeaturesRequest),
        (any::<u64>(), any::<u32>()).prop_map(|(datapath_id, n_ports)| {
            OfMessage::FeaturesReply {
                datapath_id,
                n_ports,
            }
        }),
        (any::<u32>(), any::<bool>(), bytes()).prop_map(|(in_port, action, data)| {
            let reason = if action {
                PacketInReason::Action
            } else {
                PacketInReason::NoMatch
            };
            OfMessage::PacketIn {
                in_port,
                reason,
                data,
            }
        }),
        (
            arb_match(),
            any::<u64>(),
            any::<u16>(),
            0u8..3,
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(matcher, cookie, priority, r, packet_count, byte_count)| {
                OfMessage::FlowRemoved {
                    matcher,
                    cookie,
                    priority,
                    reason: [
                        FlowRemovedReason::IdleTimeout,
                        FlowRemovedReason::HardTimeout,
                        FlowRemovedReason::Delete,
                    ][usize::from(r)],
                    packet_count,
                    byte_count,
                }
            }),
        (0u8..3, any::<u32>()).prop_map(|(r, port_no)| OfMessage::PortStatus {
            reason: [
                PortStatusReason::Add,
                PortStatusReason::Delete,
                PortStatusReason::Modify
            ][usize::from(r)],
            port_no,
        }),
        (
            proptest::option::of(any::<u32>()),
            arb_action_list(),
            bytes()
        )
            .prop_map(|(in_port, actions, data)| OfMessage::PacketOut {
                in_port,
                actions,
                data
            }),
        arb_flow_mod(),
        prop_oneof![
            arb_match().prop_map(StatsRequestKind::Flow),
            proptest::option::of(any::<u32>()).prop_map(StatsRequestKind::Port),
            Just(StatsRequestKind::Description),
        ]
        .prop_map(OfMessage::StatsRequest),
        prop_oneof![
            vec(arb_flow_stats(), 0..4).prop_map(StatsBody::Flow),
            vec(arb_port_stats(), 0..4).prop_map(StatsBody::Port),
            (arb_string(), arb_string(), arb_string()).prop_map(
                |(manufacturer, hardware, software)| StatsBody::Description {
                    manufacturer,
                    hardware,
                    software,
                }
            ),
        ]
        .prop_map(OfMessage::StatsReply),
        Just(OfMessage::BarrierRequest),
        Just(OfMessage::BarrierReply),
        arb_attestation(),
    ]
}

/// A frame of every body kind `wire::serialize` writes: TCP and UDP
/// (tagged or not, payloads up to a full segment), ICMP, ARP and LLDP.
fn arb_packet() -> impl Strategy<Value = Packet> {
    let macs = || (arb_mac(), arb_mac());
    prop_oneof![
        (
            macs(),
            arb_ip(),
            arb_ip(),
            any::<u16>(),
            vec(any::<u8>(), 0..1400),
            any::<bool>()
        )
            .prop_map(|((s, d), si, di, port, payload, tagged)| {
                let b = PacketBuilder::tcp(s, d).ips(si, di).ports(port, 80);
                let b = if tagged { b.vlan(port % 4094 + 1) } else { b };
                b.payload_bytes(payload).build()
            }),
        (macs(), arb_ip(), arb_ip(), 0u32..1500).prop_map(|((s, d), si, di, len)| {
            PacketBuilder::udp(s, d)
                .ips(si, di)
                .ports(53, 5353)
                .payload_len(len)
                .build()
        }),
        (macs(), arb_ip(), arb_ip(), 0u16..64).prop_map(|((s, d), si, di, len)| {
            icmp_frame(s, d, si, di, IcmpMessage::echo_request(7, 1, len))
        }),
        (arb_mac(), arb_ip(), arb_ip())
            .prop_map(|(m, si, di)| arp_frame(ArpPacket::request(m, si, di))),
        (arb_mac(), any::<u64>(), any::<u32>())
            .prop_map(|(m, chassis, port)| lldp_frame(m, LldpFrame::new(chassis, port))),
    ]
}

/// A frame the switch looks up — TCP, UDP, ICMP or ARP, tagged or not
/// — as it arrives: serialized and parsed back, so its body is what
/// `wire` decodes (no `Transport::Other` carrying TCP's or UDP's
/// protocol number).
fn arb_lookup_frame() -> impl Strategy<Value = Packet> {
    let macs = || (arb_mac(), arb_mac());
    let ips = || (arb_ip(), arb_ip());
    let ports = || (0u16..4, 0u16..4);
    let frame = prop_oneof![
        (macs(), ips(), ports()).prop_map(|((s, d), (si, di), (sp, dp))| {
            PacketBuilder::tcp(s, d).ips(si, di).ports(sp, dp).build()
        }),
        (macs(), ips(), ports()).prop_map(|((s, d), (si, di), (sp, dp))| {
            PacketBuilder::udp(s, d).ips(si, di).ports(sp, dp).build()
        }),
        (macs(), ips()).prop_map(|((s, d), (si, di))| {
            icmp_frame(s, d, si, di, IcmpMessage::echo_request(7, 1, 8))
        }),
        (arb_mac(), ips()).prop_map(|(m, (si, di))| arp_frame(ArpPacket::request(m, si, di))),
    ];
    (frame, proptest::option::of(1u16..4094)).prop_map(|(mut pkt, vid)| {
        pkt.eth.vlan = vid.map(VlanTag::new);
        wire::parse(&wire::serialize(&pkt)).expect("wire parses what it writes")
    })
}

/// What a fresh switch channel (dpid 7, 4 ports) answers to `bytes`,
/// and what it surfaces, rebuilt as owned messages.
fn receive(bytes: &[u8]) -> (Vec<Vec<u8>>, Result<Vec<OfMessage>, codec::CodecError>) {
    let mut replies = Vec::new();
    let up = SwitchChannel::new(7, 4)
        .receive_all(bytes, &mut |m, xid| replies.push(codec::encode(m, xid)))
        .map(|mut batch| {
            let (mut up, mut actions) = (Vec::new(), Vec::new());
            while let Some(frame) = batch.next_frame(&mut actions) {
                up.push(frame.into_message(ActionList::from(actions.as_slice())));
            }
            up
        });
    (replies, up)
}

proptest! {
    /// The key walk is the frame walk seen through `lookup_key`: at
    /// every output, in list order, `apply_actions_to_key` emits the
    /// lookup key of the frame `apply_actions_owned` emits there.
    /// Each case walks 32 pairs, so that a guard missing for one
    /// frame kind and one action is hit in every run.
    #[test]
    fn key_walk_agrees_with_the_frame_walk(
        walks in vec((arb_lookup_frame(), vec(arb_action(), 0..=5)), 32),
    ) {
        for (pkt, actions) in walks {
            let key = lookup_key(&pkt).expect("IPv4 and ARP frames are looked up");
            let mut frames = Vec::new();
            apply_actions_owned(pkt, &actions, |dest, out| frames.push((dest, lookup_key(&out))));
            let mut keys = Vec::new();
            apply_actions_to_key(key, &actions, |dest, out| keys.push((dest, Some(out))));
            prop_assert_eq!(frames, keys, "{actions:?}");
        }
    }

    /// An `ActionList` behaves as the `Vec<Action>` of its actions, on
    /// both sides of `INLINE_ACTIONS`, however it is stored: built from
    /// a slice (inline while it fits), boxed, collected or pushed, the
    /// lists compare equal to each other and to the `Vec`; a
    /// flow-mod carrying one encodes to the same bytes, and decodes to
    /// an equal list that re-encodes byte for byte; and both action
    /// walks emit what they emit over the `Vec`.
    #[test]
    fn an_action_list_behaves_like_its_vec(
        actions in vec(arb_action(), 0..=8),
        pkt in arb_lookup_frame(),
        xid in any::<u32>(),
    ) {
        let long = actions.len() > INLINE_ACTIONS;
        let copied = ActionList::from(actions.as_slice());
        let boxed = ActionList::from(actions.clone().into_boxed_slice());
        let collected: ActionList = actions.iter().copied().collect();
        let mut pushed = ActionList::new();
        for a in &actions {
            pushed.push(*a);
        }
        prop_assert_eq!(copied.is_spilled(), long);
        prop_assert_eq!(collected.is_spilled(), long);
        prop_assert!(boxed.is_spilled());
        for list in [&copied, &boxed, &collected, &pushed] {
            prop_assert_eq!(list, &actions);
            prop_assert_eq!(list, &copied);
            prop_assert_eq!(list.as_slice(), actions.as_slice());
        }

        let frame = codec::encode(&OfMessage::add_flow(Match::any(), copied.clone(), 9), xid);
        prop_assert_eq!(
            &codec::encode(&OfMessage::add_flow(Match::any(), boxed.clone(), 9), xid),
            &frame
        );
        let (back, _) = codec::decode(&frame).unwrap();
        let OfMessage::FlowMod { actions: decoded, .. } = &back else {
            unreachable!("a flow-mod decodes to a flow-mod")
        };
        prop_assert_eq!(decoded, &actions);
        prop_assert_eq!(decoded.is_spilled(), long);
        prop_assert_eq!(codec::encode(&back, xid), frame);

        let frames = |list: &[Action]| {
            let mut out = Vec::new();
            apply_actions_owned(pkt.clone(), list, |dest, p| out.push((dest, p.into_owned())));
            out
        };
        let key = lookup_key(&pkt).expect("IPv4 and ARP frames are looked up");
        let keys = |list: &[Action]| {
            let mut out = Vec::new();
            apply_actions_to_key(key, list, |dest, k| out.push((dest, k)));
            out
        };
        for list in [&copied, &boxed] {
            prop_assert_eq!(frames(list), frames(&actions));
            prop_assert_eq!(keys(list), keys(&actions));
        }
    }

    /// `encode_into` appends exactly the frame `encode` returns, after
    /// whatever the buffer already holds and without touching it;
    /// `encode`'s buffer is exactly the frame; and `decode_all` of the
    /// appended frames returns the messages in order.
    #[test]
    fn encode_into_appends_the_frame_encode_returns(
        prefix in vec(any::<u8>(), 0..32),
        msgs in vec(arb_message(), 1..12),
        xid in any::<u32>(),
    ) {
        let mut buf = prefix.clone();
        for (i, m) in msgs.iter().enumerate() {
            let at = buf.len();
            codec::encode_into(m, xid ^ i as u32, &mut buf);
            let frame = codec::encode(m, xid ^ i as u32);
            prop_assert_eq!(frame.capacity(), frame.len(), "{:?}", m);
            prop_assert_eq!(&buf[at..], &frame[..], "{:?}", m);
            prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
        }
        let back = codec::decode_all(&buf[prefix.len()..]).unwrap();
        let want: Vec<(OfMessage, u32)> =
            msgs.into_iter().enumerate().map(|(i, m)| (m, xid ^ i as u32)).collect();
        prop_assert_eq!(back, want);
    }

    /// The borrowed set-up encoders write the bytes of their owned
    /// message: a `FlowModRef` those of its `OfMessage::FlowMod`, and
    /// `encode_packet_out_into` those of the `PacketOut` carrying
    /// `wire::serialize(pkt)`.
    #[test]
    fn borrowed_encoders_write_the_bytes_of_their_owned_message(
        prefix in vec(any::<u8>(), 0..32),
        flow_mod in arb_flow_mod(),
        in_port in proptest::option::of(any::<u32>()),
        pkt in arb_packet(),
        xid in any::<u32>(),
    ) {
        let OfMessage::FlowMod {
            command, matcher, priority, ref actions, idle_timeout, hard_timeout, cookie,
            notify_removed,
        } = flow_mod else {
            unreachable!("arb_flow_mod makes flow-mods")
        };
        let fm = FlowModRef {
            command, matcher: &matcher, priority, actions, idle_timeout, hard_timeout, cookie,
            notify_removed,
        };
        let mut buf = prefix.clone();
        fm.encode_into(xid, &mut buf);
        prop_assert_eq!(&buf[prefix.len()..], &codec::encode(&flow_mod, xid)[..]);
        prop_assert_eq!(fm.to_message(), flow_mod.clone());

        let owned = OfMessage::PacketOut {
            in_port,
            actions: actions.clone(),
            data: wire::serialize(&pkt),
        };
        let mut buf = prefix.clone();
        codec::encode_packet_out_into(in_port, actions, &pkt, xid, &mut buf);
        prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&buf[prefix.len()..], &codec::encode(&owned, xid)[..]);
    }

    /// The switch's packet-in writes the bytes of its owned message:
    /// `encode_packet_in_into` appends what `encode` makes of the
    /// `PacketIn` carrying `wire::serialize(pkt)`, after a prefix it
    /// leaves alone, and into an empty buffer at exactly that size.
    #[test]
    fn the_in_place_packet_in_writes_the_bytes_of_its_owned_message(
        prefix in vec(any::<u8>(), 0..32),
        in_port in any::<u32>(),
        action in any::<bool>(),
        pkt in arb_packet(),
        xid in any::<u32>(),
    ) {
        let reason = if action { PacketInReason::Action } else { PacketInReason::NoMatch };
        let owned = OfMessage::PacketIn { in_port, reason, data: wire::serialize(&pkt) };
        let mut buf = prefix.clone();
        codec::encode_packet_in_into(in_port, reason, &pkt, xid, &mut buf);
        prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&buf[prefix.len()..], &codec::encode(&owned, xid)[..]);
        let mut frame = Vec::new();
        codec::encode_packet_in_into(in_port, reason, &pkt, xid, &mut frame);
        prop_assert_eq!(frame.capacity(), frame.len());
    }

    /// The switch's in-place receive path reads what `decode_all`
    /// reads: each chore is answered as its decoded message asks, and
    /// every other message is surfaced with the fields and actions
    /// `decode` gives it, both in arrival order. With one byte changed,
    /// the channel refuses the batch exactly when `decode_all` does,
    /// and then answers nothing.
    #[test]
    fn the_channel_reads_what_decode_reads(
        msgs in vec(arb_message(), 1..12),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut payload = Vec::new();
        for (xid, m) in (0..).zip(&msgs) {
            codec::encode_into(m, xid, &mut payload);
        }
        let (mut want_replies, mut want_up) = (Vec::new(), Vec::new());
        for (msg, xid) in codec::decode_all(&payload).unwrap() {
            let answer = match msg {
                OfMessage::EchoRequest(v) => OfMessage::EchoReply(v),
                OfMessage::FeaturesRequest => {
                    OfMessage::FeaturesReply { datapath_id: 7, n_ports: 4 }
                }
                OfMessage::BarrierRequest => OfMessage::BarrierReply,
                OfMessage::Hello | OfMessage::EchoReply(_) => continue,
                other => {
                    want_up.push(other);
                    continue;
                }
            };
            want_replies.push(codec::encode(&answer, xid));
        }
        let (replies, up) = receive(&payload);
        prop_assert_eq!(replies, want_replies);
        prop_assert_eq!(up, Ok(want_up));

        let mut bad = payload.clone();
        bad[at % payload.len()] ^= flip;
        let (replies, up) = receive(&bad);
        prop_assert_eq!(up.is_ok(), codec::decode_all(&bad).is_ok());
        if up.is_err() {
            prop_assert!(replies.is_empty());
        }
    }

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
        actions in arb_action_list(),
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
