//! Differential model test: `FlowTable` against a naive reference.
//!
//! The reference keeps entries in a `Vec` in install order and answers
//! every operation by linear scan with the documented OpenFlow 1.0
//! semantics. Random operation sequences drive both in lock-step; after
//! every step the return values, `len()` and the full table contents
//! must agree. The real table takes strict operations through its hash
//! index, so any entry filed in — or looked for in — the wrong bucket
//! shows up here as a disagreement. After every step a probe packet
//! also checks the table's hash-indexed lookup against `winner`, the
//! winning-entry rule a verifier applies to the table's contents.

use livesec_net::{FlowKey, Ipv4Net, MacAddr};
use livesec_openflow::table::Nanos;
use livesec_openflow::{
    winner, Action, FlowEntry, FlowRemovedReason, FlowTable, InsertOutcome, Match, OutPort,
    RemovedEntry,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Sequences per proptest case: 64 default cases x 32 = 2048 sequences.
const SEQUENCES_PER_CASE: usize = 32;

/// The reference: entries in install order, oldest first.
#[derive(Default)]
struct Model(Vec<FlowEntry>);

impl Model {
    fn insert_at(&mut self, mut e: FlowEntry, now: Nanos) -> InsertOutcome {
        e.created_at = now;
        e.last_used = now;
        let twin = |o: &FlowEntry| o.matcher == e.matcher && o.priority == e.priority;
        let outcome = match self.0.iter().position(twin) {
            Some(i) => {
                self.0.remove(i);
                InsertOutcome::Replaced
            }
            None => InsertOutcome::Added,
        };
        self.0.push(e); // a replacement is the newest entry
        outcome
    }

    /// Removes the entries `reason_for` names, oldest first.
    fn evict(
        &mut self,
        reason_for: impl Fn(&FlowEntry) -> Option<FlowRemovedReason>,
    ) -> Vec<(View, FlowRemovedReason)> {
        let out = (self.0.iter())
            .filter_map(|e| reason_for(e).map(|r| (view(e), r)))
            .collect();
        self.0.retain(|e| reason_for(e).is_none());
        out
    }

    fn selects(matcher: &Match, strict: bool, priority: Option<u16>, e: &FlowEntry) -> bool {
        if strict {
            e.matcher == *matcher && priority.is_none_or(|p| p == e.priority)
        } else {
            matcher.subsumes(&e.matcher)
        }
    }

    fn lookup_counting(
        &mut self,
        in_port: u32,
        key: &FlowKey,
        now: Nanos,
        bytes: u64,
    ) -> Option<View> {
        // Highest priority wins; ties go to the earliest-installed.
        let mut best: Option<usize> = None;
        for (i, e) in self.0.iter().enumerate() {
            if e.matcher.matches(in_port, key)
                && best.is_none_or(|b| e.priority > self.0[b].priority)
            {
                best = Some(i);
            }
        }
        let e = &mut self.0[best?];
        e.packet_count += 1;
        e.byte_count += bytes;
        e.last_used = now;
        Some(view(e))
    }
}

/// Every public field of an entry (`FlowEntry: PartialEq` also compares
/// the private install sequence number, which the model cannot see).
type View = (
    Match,
    Vec<Action>,
    u16,
    Option<Nanos>,
    Option<Nanos>,
    u64,
    bool,
    u64,
    u64,
    Nanos,
    Nanos,
);

fn view(e: &FlowEntry) -> View {
    (
        e.matcher,
        e.actions.to_vec(),
        e.priority,
        e.idle_timeout,
        e.hard_timeout,
        e.cookie,
        e.notify_removed,
        e.packet_count,
        e.byte_count,
        e.created_at,
        e.last_used,
    )
}

fn views(removed: Vec<RemovedEntry>) -> Vec<(View, FlowRemovedReason)> {
    removed.iter().map(|r| (view(&r.entry), r.reason)).collect()
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Match, u16, u32, Option<Nanos>, Option<Nanos>),
    Remove(Match, bool, Option<u16>),
    Modify(Match, bool, u32),
    Lookup(u32, FlowKey, u64),
    Expire,
}

/// Four flow keys: two differ in one port only, one in the source IP.
fn arb_key() -> impl Strategy<Value = FlowKey> {
    (0u32..2, 0u16..2).prop_map(|(ip, port)| FlowKey {
        vlan: None,
        dl_src: MacAddr::from_u64(1),
        dl_dst: MacAddr::from_u64(2),
        dl_type: 0x0800,
        nw_src: Ipv4Addr::from(0x0a00_0000 | ip),
        nw_dst: Ipv4Addr::new(10, 0, 1, 1),
        nw_proto: 6,
        tp_src: 555,
        tp_dst: 80 + port,
    })
}

/// Matchers over a universe small enough that every relation occurs:
/// the same exact match again, the same headers on another `in_port` or
/// none (same hash bucket), a near-exact match with one field wild or a
/// shorter prefix (wildcard list, but subsuming exact entries), and
/// plain wildcards.
fn arb_matcher() -> impl Strategy<Value = Match> {
    let exact = || (1u32..3, arb_key()).prop_map(|(p, k)| Match::exact(p, &k));
    prop_oneof![
        exact(),
        exact(),
        arb_key().prop_map(|k| Match::exact_any_port(&k)),
        exact().prop_map(|m| Match { tp_dst: None, ..m }),
        exact().prop_map(|m| m.with_nw_src(Ipv4Net::new(Ipv4Addr::new(10, 0, 0, 0), 31))),
        (80u16..82).prop_map(|p| Match::any().with_tp_dst(p)),
        Just(Match::any().with_dl_type(0x0800)),
        Just(Match::any()),
    ]
}

/// No timeout, a short one, or the largest a flow-mod can carry.
fn arb_timeout() -> impl Strategy<Value = Option<Nanos>> {
    prop_oneof![Just(None), (1u64..60).prop_map(Some), Just(Some(u64::MAX))]
}

fn arb_op() -> impl Strategy<Value = Op> {
    let prio = || 0u16..3;
    let insert = || {
        (arb_matcher(), prio(), 1u32..9, arb_timeout(), arb_timeout())
            .prop_map(|(m, p, out, idle, hard)| Op::Insert(m, p, out, idle, hard))
    };
    prop_oneof![
        insert(),
        insert(),
        insert(),
        (arb_matcher(), any::<bool>(), proptest::option::of(prio()))
            .prop_map(|(m, strict, p)| Op::Remove(m, strict, p)),
        (arb_matcher(), any::<bool>(), 1u32..9)
            .prop_map(|(m, strict, out)| Op::Modify(m, strict, out)),
        (1u32..3, arb_key(), 0u64..1500).prop_map(|(p, k, b)| Op::Lookup(p, k, b)),
        (1u32..3, arb_key(), 0u64..1500).prop_map(|(p, k, b)| Op::Lookup(p, k, b)),
        Just(Op::Expire),
    ]
}

fn out(port: u32) -> Vec<Action> {
    vec![Action::Output(OutPort::Physical(port))]
}

fn run_sequence(ops: Vec<(Op, Nanos, (u32, FlowKey))>) -> Result<(), TestCaseError> {
    let mut table = FlowTable::new();
    let mut model = Model::default();
    let mut now: Nanos = 0;
    for (step, (op, dt, (in_port, probe))) in ops.into_iter().enumerate() {
        now += dt;
        match op.clone() {
            Op::Insert(m, prio, port, idle, hard) => {
                let mut e = FlowEntry::new(m, out(port), prio).with_cookie(step as u64);
                e.idle_timeout = idle;
                e.hard_timeout = hard;
                prop_assert_eq!(
                    table.insert_at(e.clone(), now),
                    model.insert_at(e, now),
                    "{op:?}"
                );
            }
            Op::Remove(m, strict, prio) => {
                let expected = model.evict(|e| {
                    Model::selects(&m, strict, prio, e).then_some(FlowRemovedReason::Delete)
                });
                prop_assert_eq!(views(table.remove(&m, strict, prio)), expected, "{op:?}");
            }
            Op::Modify(m, strict, port) => {
                let mut expected = 0;
                for e in model
                    .0
                    .iter_mut()
                    .filter(|e| Model::selects(&m, strict, None, e))
                {
                    e.actions = out(port).into();
                    expected += 1;
                }
                prop_assert_eq!(
                    table.modify_actions(&m, strict, &out(port)),
                    expected,
                    "{op:?}"
                );
            }
            Op::Lookup(in_port, key, bytes) => {
                let got = table.lookup_counting(in_port, &key, now, bytes).map(view);
                prop_assert_eq!(
                    got,
                    model.lookup_counting(in_port, &key, now, bytes),
                    "{op:?}"
                );
            }
            Op::Expire => {
                let expected = model.evict(|e| {
                    let due = |from: Nanos, t: Option<Nanos>| {
                        t.is_some_and(|t| now >= from.saturating_add(t))
                    };
                    if due(e.created_at, e.hard_timeout) {
                        Some(FlowRemovedReason::HardTimeout)
                    } else if due(e.last_used, e.idle_timeout) {
                        Some(FlowRemovedReason::IdleTimeout)
                    } else {
                        None
                    }
                });
                prop_assert_eq!(views(table.expire(now)), expected, "{op:?}");
            }
        }
        prop_assert_eq!(table.len(), model.0.len(), "len after {op:?}");
        let real: Vec<View> = table
            .entries_in_install_order()
            .into_iter()
            .map(view)
            .collect();
        let reference: Vec<View> = model.0.iter().map(view).collect();
        prop_assert_eq!(real, reference, "contents after {op:?}");
        prop_assert_eq!(
            winner(table.entries_in_install_order(), in_port, &probe),
            table.peek(in_port, &probe),
            "winner after {op:?}"
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn flow_table_agrees_with_naive_model(
        sequences in proptest::collection::vec(
            proptest::collection::vec((arb_op(), 0u64..25, (1u32..3, arb_key())), 0..48),
            SEQUENCES_PER_CASE,
        ),
    ) {
        for ops in sequences {
            run_sequence(ops)?;
        }
    }
}
