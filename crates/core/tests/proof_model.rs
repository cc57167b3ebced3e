//! Differential model test: the accountability detector against the
//! implementation it replaced.
//!
//! The reference below is the previous detector, kept as it was: each
//! path proof is a copy of its program's hops, filed in a per-signature
//! `Vec` that registration retains and pushes. The real detector keeps
//! the program itself, shared, in one inline slot per proof source, and
//! derives the hops on demand. Random programs (wild and exact in-ports,
//! drop entries, rewrites before the output), register / retire /
//! re-register sequences under an advancing clock (inside and past the
//! grace window, the chain deadline and the turbulence window), honest,
//! perturbed and forged attestations, sweeps and turbulence drive both
//! in lock-step; every `observe` verdict, every `sweep` verdict list
//! **in order**, `stats()` and `pending_chains()` must agree after
//! every step.

use livesec::accountability::{flow_sig, AccountabilityDetector, PathProof, ProofHop, ProofSource};
use livesec::routing::{SteeringProgram, SwitchEntry};
use livesec_net::{FlowKey, MacAddr};
use livesec_openflow::{
    attestation_tag, packet_tag, Action, ForwardingAttestation, Match, OutPort,
};
use livesec_sim::SimTime;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Sequences per proptest case: 64 default cases x 16 = 1024 sequences.
const SEQUENCES_PER_CASE: usize = 16;

/// The previous detector, verbatim but for its name, the note of a
/// quarantine this test never makes, and the types it shares with the
/// real module (`ProofHop`, `Deviation`, `AccountabilityStats`, which
/// did not change).
mod reference {
    use livesec::accountability::{
        flow_sig, AccountabilityStats, Deviation, FlowSig, ProofHop, ProofSource,
    };
    use livesec::monitor::DeviationKind;
    use livesec::routing::SteeringProgram;
    use livesec_net::FlowKey;
    use livesec_openflow::{attestation_tag, Action, ForwardingAttestation, OutPort};
    use livesec_sim::{SimDuration, SimTime};
    use std::collections::btree_map::Entry;
    use std::collections::{BTreeMap, BTreeSet};

    /// The controller-issued forwarding proof for one direction of one
    /// flow.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct PathProof {
        /// Which program this proof mirrors.
        pub source: ProofSource,
        /// Expected hops, ingress-first.
        pub hops: Vec<ProofHop>,
        /// When the program was (re)installed. Mismatches within
        /// `PROOF_GRACE` of this are discarded as in-flight stragglers
        /// of the previous program, not deviations.
        pub registered_at: SimTime,
    }

    impl PathProof {
        /// Derives the proof of `program`: one hop per compiled entry,
        /// with `cookie` on the first entry only — exactly how the
        /// controller's one entry derivation (`Entry::of_programs`) tags
        /// the flow-mods.
        pub fn of_program(
            program: &SteeringProgram,
            cookie: u64,
            source: ProofSource,
            now: SimTime,
        ) -> Self {
            let hops = program
                .entries
                .iter()
                .enumerate()
                .map(|(i, e)| ProofHop {
                    dpid: e.dpid,
                    in_port: e.matcher.in_port.unwrap_or(0),
                    out_port: e
                        .actions
                        .iter()
                        .rev()
                        .find_map(|a| match a {
                            Action::Output(OutPort::Physical(p)) => Some(*p),
                            _ => None,
                        })
                        .unwrap_or(0),
                    cookie: if i == 0 { cookie } else { 0 },
                })
                .collect();
            PathProof {
                source,
                hops,
                registered_at: now,
            }
        }
    }

    /// Mismatches against a proof younger than this are stragglers of the
    /// previous program (packets already in flight when the path moved),
    /// not evidence.
    const PROOF_GRACE: SimDuration = SimDuration::from_millis(50);

    /// How long after the last sighting of a sampled packet its chain must
    /// stay incomplete before the sweep reads it as a drop.
    const CHAIN_DEADLINE: SimDuration = SimDuration::from_millis(500);

    /// How long after any topology disturbance (switch down/up, resync,
    /// port flap) the drop sweep stays silent: chains truncated by a real
    /// outage must not be pinned on a switch.
    const TURBULENCE_WINDOW: SimDuration = SimDuration::from_millis(1500);

    /// The progress of one sampled packet across its path.
    #[derive(Clone, Debug)]
    struct ChainState {
        /// The flow as first attested (witness for a later verdict).
        flow: FlowKey,
        first_seen: SimTime,
        last_seen: SimTime,
        /// `(in_port, out_port, cookie, dpid)` hops attested so far.
        attested: Vec<(u32, u32, u64, u64)>,
    }

    /// How one attestation relates to the registered proofs of its flow.
    enum HopCheck {
        /// Matches a proof hop exactly.
        Consistent,
        /// Found the switch on a proof, but what it did contradicts it.
        Mismatch {
            expected: (u32, u32, u64),
            cookie_ok: bool,
            registered_at: SimTime,
        },
        /// The switch appears on no proof of this flow.
        OffPath,
        /// The flow has no proof and was never admitted.
        Unadmitted,
        /// The flow has no proof but once did (retired; straggler).
        Retired,
    }

    /// Replays forwarding attestations against controller-issued path
    /// proofs; see the module docs for the protocol.
    #[derive(Debug, Default)]
    pub struct CopyingDetector {
        /// Standing proofs per flow signature (at most one per
        /// [`ProofSource`]).
        proofs: BTreeMap<FlowSig, Vec<PathProof>>,
        /// Every signature ever admitted — distinguishes "retired flow's
        /// straggler" from "never-admitted injection".
        admitted_ever: BTreeSet<FlowSig>,
        /// In-progress chains of sampled packets, keyed by
        /// `(signature, packet tag)`.
        chains: BTreeMap<(FlowSig, u64), ChainState>,
        /// Last topology disturbance (gates the drop sweep).
        last_turbulence: Option<SimTime>,
        /// Last attestation heard per switch (a drop verdict requires the
        /// suspect's channel to be provably alive).
        last_heard: BTreeMap<u64, SimTime>,
        stats: AccountabilityStats,
    }

    impl CopyingDetector {
        /// A detector with no proofs.
        pub fn new() -> Self {
            Self::default()
        }

        /// Registers (or re-registers) a proof for `sig`, replacing any
        /// standing proof from the same source.
        pub fn register(&mut self, sig: FlowSig, proof: PathProof) {
            self.stats.proofs_registered += 1;
            self.admitted_ever.insert(sig);
            let slot = self.proofs.entry(sig).or_default();
            slot.retain(|p| p.source != proof.source);
            slot.push(proof);
        }

        /// Retires the proof of `sig` from `source` (both when `None`).
        /// Chains of retired flows are discarded unblamed by the sweep.
        pub fn retire(&mut self, sig: FlowSig, source: Option<ProofSource>) {
            let Some(slot) = self.proofs.get_mut(&sig) else {
                return;
            };
            match source {
                Some(s) => slot.retain(|p| p.source != s),
                None => slot.clear(),
            }
            if slot.is_empty() {
                self.proofs.remove(&sig);
            }
        }

        /// Stamps a topology disturbance: the drop sweep stays silent for
        /// `TURBULENCE_WINDOW` after the last one.
        pub fn note_turbulence(&mut self, now: SimTime) {
            self.last_turbulence = Some(now);
        }

        /// Replays one attestation. `Some` names a deviating switch with
        /// direct evidence; drop inference happens in [`Self::sweep`].
        pub fn observe(&mut self, now: SimTime, att: &ForwardingAttestation) -> Option<Deviation> {
            self.stats.attestations_seen += 1;
            self.last_heard.insert(att.dpid, now);
            let observed = (att.in_port, att.out_port, att.cookie);

            // The tag commits the switch to its own claim: a recompute
            // failure is evidence of tampering regardless of the proof.
            if attestation_tag(att.dpid, att.in_port, att.out_port, att.cookie) != att.tag {
                self.stats.forged_tags += 1;
                self.stats.violations += 1;
                return Some(Deviation {
                    dpid: att.dpid,
                    kind: DeviationKind::Tamper,
                    flow: att.flow,
                    expected: observed,
                    observed,
                });
            }

            let sig = flow_sig(&att.flow);
            let check = self.check_hop(&sig, att);
            match check {
                HopCheck::Consistent => {
                    self.track_chain(now, sig, att);
                    None
                }
                HopCheck::Retired => {
                    self.stats.stale_discards += 1;
                    None
                }
                HopCheck::OffPath => {
                    // The upstream deviator that detoured the packet here
                    // is caught by its own attestation; this switch merely
                    // received it.
                    self.stats.off_path += 1;
                    None
                }
                HopCheck::Unadmitted => {
                    self.stats.violations += 1;
                    Some(Deviation {
                        dpid: att.dpid,
                        kind: DeviationKind::Injection,
                        flow: att.flow,
                        expected: (0, 0, 0),
                        observed,
                    })
                }
                HopCheck::Mismatch {
                    expected,
                    cookie_ok,
                    registered_at,
                } => {
                    if now.saturating_since(registered_at) <= PROOF_GRACE {
                        // The path just moved; this packet left under the
                        // previous program.
                        self.stats.stale_discards += 1;
                        return None;
                    }
                    self.stats.violations += 1;
                    let kind = if cookie_ok {
                        DeviationKind::Detour
                    } else {
                        DeviationKind::Tamper
                    };
                    Some(Deviation {
                        dpid: att.dpid,
                        kind,
                        flow: att.flow,
                        expected,
                        observed,
                    })
                }
            }
        }

        /// Classifies `att` against every standing proof of `sig`. A
        /// switch can hold several hops of one path (service-element
        /// hairpins revisit the ingress switch), so all candidate hops are
        /// tried and the closest one reported on mismatch.
        fn check_hop(&self, sig: &FlowSig, att: &ForwardingAttestation) -> HopCheck {
            // (match score, expected (in, out, cookie), cookie_ok, registered_at)
            type Candidate = (u32, (u32, u32, u64), bool, SimTime);
            let Some(proofs) = self.proofs.get(sig) else {
                return if self.admitted_ever.contains(sig) {
                    HopCheck::Retired
                } else {
                    HopCheck::Unadmitted
                };
            };
            let mut best: Option<Candidate> = None;
            for proof in proofs {
                for hop in proof.hops.iter().filter(|h| h.dpid == att.dpid) {
                    if hop.in_port == att.in_port
                        && hop.out_port == att.out_port
                        && hop.cookie == att.cookie
                    {
                        return HopCheck::Consistent;
                    }
                    let cookie_ok = hop.cookie == att.cookie;
                    let score = 2 * u32::from(hop.in_port == att.in_port) + u32::from(cookie_ok);
                    if best.is_none_or(|(s, ..)| score > s) {
                        best = Some((
                            score,
                            (hop.in_port, hop.out_port, hop.cookie),
                            cookie_ok,
                            proof.registered_at,
                        ));
                    }
                }
            }
            match best {
                Some((_, expected, cookie_ok, registered_at)) => HopCheck::Mismatch {
                    expected,
                    cookie_ok,
                    registered_at,
                },
                None => HopCheck::OffPath,
            }
        }

        /// Extends the chain of one sampled packet with a consistent hop.
        /// Chains are only tracked while the flow holds exactly one proof:
        /// with a steering and a fast-pass program standing, hops may
        /// legitimately come from either and a missing hop proves nothing.
        fn track_chain(&mut self, now: SimTime, sig: FlowSig, att: &ForwardingAttestation) {
            let Some(proofs) = self.proofs.get(&sig) else {
                return;
            };
            let [proof] = proofs.as_slice() else {
                self.chains.remove(&(sig, att.pkt_tag));
                return;
            };
            let n_hops = proof.hops.len();
            let chain = match self.chains.entry((sig, att.pkt_tag)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    // A chain opens only at the path's first hop. The packet
                    // that *triggers* admission is re-injected at the ingress
                    // by packet-out — actions applied directly, no table hit,
                    // no attestation — so its mid-path attestations must not
                    // open a chain the ingress can never join: it would stall
                    // and frame the honest ingress switch as a dropper.
                    let Some(first) = proof.hops.first() else {
                        return;
                    };
                    if att.dpid != first.dpid
                        || att.in_port != first.in_port
                        || att.out_port != first.out_port
                        || att.cookie != first.cookie
                    {
                        return;
                    }
                    e.insert(ChainState {
                        flow: att.flow,
                        first_seen: now,
                        last_seen: now,
                        attested: Vec::with_capacity(n_hops),
                    })
                }
            };
            chain.last_seen = now;
            let hop = (att.in_port, att.out_port, att.cookie, att.dpid);
            if !chain.attested.contains(&hop) {
                chain.attested.push(hop);
            }
            // Complete chains retire immediately — only stragglers stay
            // behind for the deadline sweep to inspect.
            let complete = proof.hops.iter().all(|h| {
                chain.attested.iter().any(|a| {
                    a.3 == h.dpid && a.0 == h.in_port && a.1 == h.out_port && a.2 == h.cookie
                })
            });
            if complete {
                self.chains.remove(&(sig, att.pkt_tag));
                self.stats.chains_verified += 1;
            }
        }

        /// Deadline sweep: a sampled packet whose chain stalled past
        /// `CHAIN_DEADLINE` was dropped mid-path. The first proof hop it
        /// never reached names the suspect — blamed only if the network
        /// was calm and the suspect's attestation channel demonstrably
        /// alive after the packet went missing.
        pub fn sweep(&mut self, now: SimTime) -> Vec<Deviation> {
            let mut verdicts = Vec::new();
            let mut done: Vec<(FlowSig, u64)> = Vec::new();
            for (key, chain) in &self.chains {
                if now.saturating_since(chain.last_seen) <= CHAIN_DEADLINE {
                    continue;
                }
                done.push(*key);
                let Some(proofs) = self.proofs.get(&key.0) else {
                    continue; // flow retired while the packet was in flight
                };
                let [proof] = proofs.as_slice() else {
                    continue; // the path moved under the chain
                };
                if proof.registered_at > chain.first_seen {
                    continue; // the path moved under the chain
                }
                let missing = proof.hops.iter().find(|h| {
                    !chain.attested.iter().any(|a| {
                        a.3 == h.dpid && a.0 == h.in_port && a.1 == h.out_port && a.2 == h.cookie
                    })
                });
                let Some(suspect) = missing else {
                    self.stats.chains_verified += 1;
                    continue;
                };
                let turbulent = self
                    .last_turbulence
                    .is_some_and(|t| now.saturating_since(t) <= TURBULENCE_WINDOW);
                let heard = self
                    .last_heard
                    .get(&suspect.dpid)
                    .is_some_and(|t| *t >= chain.last_seen);
                if turbulent || !heard {
                    self.stats.sweeps_suppressed += 1;
                    continue;
                }
                self.stats.drop_suspects += 1;
                self.stats.violations += 1;
                let last = chain.attested.last().copied().unwrap_or((0, 0, 0, 0));
                verdicts.push(Deviation {
                    dpid: suspect.dpid,
                    kind: DeviationKind::Drop,
                    flow: chain.flow,
                    expected: (suspect.in_port, suspect.out_port, suspect.cookie),
                    observed: (last.0, last.1, last.2),
                });
            }
            for key in done {
                self.chains.remove(&key);
            }
            verdicts
        }

        /// The counters, with the standing-proof gauge filled in.
        pub fn stats(&self) -> AccountabilityStats {
            let mut s = self.stats;
            s.proofs_active = self.proofs.values().map(|v| v.len() as u64).sum();
            s
        }

        /// Sampled packets still mid-path.
        pub fn pending_chains(&self) -> usize {
            self.chains.len()
        }
    }
}

/// Flows of the universe: two TCP flows and the reverse of the first,
/// so a signature holds both a steering and a fast-pass proof, and
/// proofs come and go under all three.
fn flow(i: usize) -> FlowKey {
    let base = FlowKey {
        vlan: None,
        dl_src: MacAddr::from_u64(0xa1),
        dl_dst: MacAddr::from_u64(0xb1),
        dl_type: 0x0800,
        nw_src: Ipv4Addr::new(10, 0, 0, 1),
        nw_dst: Ipv4Addr::new(10, 0, 0, 2),
        nw_proto: 6,
        tp_src: 40_000,
        tp_dst: 80,
    };
    match i % 3 {
        0 => base,
        1 => FlowKey {
            tp_src: 40_001,
            ..base
        },
        _ => base.reversed(),
    }
}

/// One compiled entry: `(dpid, in_port (0 = wild), out_port (0 =
/// drop), rewrite first)`.
type EntrySpec = (u64, u32, u32, bool);

fn arb_entry() -> impl Strategy<Value = EntrySpec> {
    (1u64..5, 0u32..4, 0u32..4, any::<bool>())
}

/// A program of 1-4 entries over four switches and three ports.
fn program(key: &FlowKey, spec: &[EntrySpec]) -> SteeringProgram {
    SteeringProgram {
        entries: spec
            .iter()
            .map(|&(dpid, in_port, out_port, rewrite)| {
                let mut actions = Vec::new();
                if rewrite {
                    actions.push(Action::SetDlDst(MacAddr::from_u64(0xe0 + dpid)));
                }
                if out_port != 0 {
                    actions.push(Action::Output(OutPort::Physical(out_port)));
                }
                SwitchEntry {
                    dpid,
                    matcher: if in_port == 0 {
                        Match::exact_any_port(key)
                    } else {
                        Match::exact(in_port, key)
                    },
                    actions: actions.into(),
                    priority: 100,
                }
            })
            .collect(),
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Register program `prog` of the pool for flow `flow`, from a
    /// source, with one of the ingress cookies.
    Register(usize, bool, usize, u64),
    /// Retire flow `flow`'s proof from a source, or both.
    Retire(usize, Option<bool>),
    /// An attestation of hop `hop` of pool program `prog` for flow
    /// `flow`, packet `pkt`, perturbed by `twist` (0-1 honest, 2 the
    /// out-port, 3 the in-port, 4 the cookie, 5 another switch, 6 a
    /// forged tag).
    Attest(usize, usize, usize, u64, u8),
    Sweep,
    Turbulence,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let source = || any::<bool>();
    prop_oneof![
        (0usize..3, source(), 0usize..4, 0u64..3).prop_map(|(f, s, p, c)| Op::Register(f, s, p, c)),
        (0usize..3, proptest::option::of(source())).prop_map(|(f, s)| Op::Retire(f, s)),
        (0usize..3, 0usize..4, 0usize..4, 0u64..3, 0u8..7)
            .prop_map(|(f, p, h, pkt, t)| Op::Attest(f, p, h, pkt, t)),
        (0usize..3, 0usize..4, 0usize..4, 0u64..3, 0u8..2)
            .prop_map(|(f, p, h, pkt, t)| Op::Attest(f, p, h, pkt, t)),
        Just(Op::Sweep),
        Just(Op::Turbulence),
    ]
}

/// Clock steps in milliseconds: inside the 50 ms grace, across it,
/// past the 500 ms chain deadline and the 1.5 s turbulence window.
fn arb_dt() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..40, 0u64..40, 40u64..300, 300u64..2_000]
}

const COOKIES: [u64; 3] = [1, 2, 5];

fn source(fast_pass: bool) -> ProofSource {
    if fast_pass {
        ProofSource::FastPass
    } else {
        ProofSource::Steering
    }
}

fn run_sequence(pool: &[Vec<EntrySpec>], ops: Vec<(Op, u64)>) -> Result<(), TestCaseError> {
    let mut real = AccountabilityDetector::new();
    let mut model = reference::CopyingDetector::new();
    let mut now = SimTime::ZERO;
    for (op, dt) in ops {
        now = SimTime::from_nanos(now.as_nanos() + dt * 1_000_000);
        match op {
            Op::Register(f, fast, p, c) => {
                let key = flow(f);
                let program = Rc::new(program(&key, &pool[p % pool.len()]));
                let (src, cookie) = (source(fast), COOKIES[c as usize]);
                model.register(
                    flow_sig(&key),
                    reference::PathProof::of_program(&program, cookie, src, now),
                );
                let proof = PathProof::of_program(program, cookie, src, now);
                real.register(flow_sig(&key), proof);
            }
            Op::Retire(f, fast) => {
                let sig = flow_sig(&flow(f));
                real.retire(sig, fast.map(source));
                model.retire(sig, fast.map(source));
            }
            Op::Attest(f, p, h, pkt, twist) => {
                let key = flow(f);
                let spec = &pool[p % pool.len()];
                let proof = PathProof::of_program(
                    Rc::new(program(&key, spec)),
                    COOKIES[(pkt as usize) % 3],
                    ProofSource::Steering,
                    now,
                );
                let hops: Vec<ProofHop> = proof.hops().collect();
                let hop = hops[h % hops.len()];
                let (mut dpid, mut in_port, mut out_port, mut cookie) =
                    (hop.dpid, hop.in_port, hop.out_port, hop.cookie);
                match twist {
                    2 => out_port += 1,
                    3 => in_port += 1,
                    4 => cookie ^= 7,
                    5 => dpid = 1 + dpid % 4,
                    _ => {}
                }
                let mut att = ForwardingAttestation {
                    dpid,
                    in_port,
                    out_port,
                    cookie,
                    flow: key,
                    pkt_tag: packet_tag(&key, 64 + pkt),
                    tag: attestation_tag(dpid, in_port, out_port, cookie),
                };
                if twist == 6 {
                    att.tag ^= 1;
                }
                prop_assert_eq!(
                    real.observe(now, &att),
                    model.observe(now, &att),
                    "{:?} at {}",
                    att,
                    now
                );
            }
            Op::Sweep => {
                prop_assert_eq!(real.sweep(now), model.sweep(now), "sweep at {}", now);
            }
            Op::Turbulence => {
                real.note_turbulence(now);
                model.note_turbulence(now);
            }
        }
        prop_assert_eq!(real.stats(), model.stats(), "stats at {}", now);
        prop_assert_eq!(real.pending_chains(), model.pending_chains());
    }
    Ok(())
}

proptest! {
    #[test]
    fn the_detector_agrees_with_the_copying_reference(
        sequences in proptest::collection::vec(
            (
                proptest::collection::vec(proptest::collection::vec(arb_entry(), 1..5), 4),
                proptest::collection::vec((arb_op(), arb_dt()), 0..96),
            ),
            SEQUENCES_PER_CASE,
        ),
    ) {
        for (pool, ops) in sequences {
            run_sequence(&pool, ops)?;
        }
    }
}
