//! Forwarding accountability — detecting and localizing switches that
//! no longer forward what the controller installed.
//!
//! LiveSec's enforcement story (§IV-A) assumes the Access-Switching
//! layer executes its flow-mods faithfully. A compromised or buggy
//! switch breaks that assumption silently: it can rewrite an installed
//! entry's actions, forward matching packets out the wrong port without
//! touching its table, drop them outright, or originate frames the
//! controller never admitted. This module closes the loop:
//!
//! * At flow setup the controller derives a **path proof** from each
//!   compiled steering program — the exact `(dpid, in_port, out_port,
//!   cookie)` sequence an honest data plane would produce.
//! * Switches emit per-hop **forwarding attestations** (sampled,
//!   [`livesec_openflow::ForwardingAttestation`]) describing what they
//!   *actually* did.
//! * The [`AccountabilityDetector`] replays attestations against the
//!   proofs, classifies any deviation ([`DeviationKind`]), and names
//!   the first deviating switch, which the controller then quarantines
//!   through the ordinary dead-switch reconciliation path so traffic
//!   re-steers around it.
//!
//! The detector is deliberately conservative: it only blames a switch
//! on direct, attributable evidence (a forged tag, a cookie or port
//! that contradicts a long-installed proof, an attested flow that was
//! never admitted), and its drop inference is suppressed during
//! topology turbulence and for switches whose attestation channel has
//! gone quiet — an honest switch must never be quarantined.

use crate::monitor::DeviationKind;
use crate::routing::SteeringProgram;
use livesec_net::FlowKey;
use livesec_openflow::{attestation_tag, Action, ForwardingAttestation, OutPort};
use livesec_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// The rewrite-invariant identity of a flow. Steering rewrites the
/// destination MAC hop by hop (that is how LiveSec reaches off-path
/// service elements), so proofs are keyed by the L3/L4 fields every
/// hop of the path observes unchanged.
pub type FlowSig = (Ipv4Addr, Ipv4Addr, u8, u16, u16);

/// Projects a flow key onto its rewrite-invariant signature.
pub fn flow_sig(key: &FlowKey) -> FlowSig {
    (key.nw_src, key.nw_dst, key.nw_proto, key.tp_src, key.tp_dst)
}

/// Which controller program a proof was derived from. A flow can hold
/// a steering proof and a fast-pass proof at once (the fast-pass entry
/// outranks steering at the switch); an attestation is honest if it is
/// consistent with either.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProofSource {
    /// The policy-compiled steering program.
    Steering,
    /// An established-flow fast-pass program.
    FastPass,
}

/// One hop of a path proof: what an honest switch at this position
/// attests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProofHop {
    /// The switch at this hop.
    pub dpid: u64,
    /// The port the packet enters on (0 when the entry's match leaves
    /// the in-port wild).
    pub in_port: u32,
    /// The physical port the entry's actions emit on (0 for drop
    /// entries).
    pub out_port: u32,
    /// The cookie on the entry (programs tag only their first entry).
    pub cookie: u64,
}

/// The controller-issued forwarding proof for one direction of one
/// flow.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PathProof {
    /// Which program this proof mirrors.
    pub source: ProofSource,
    /// Expected hops, ingress-first.
    pub hops: Vec<ProofHop>,
    /// When the program was (re)installed. Mismatches within
    /// [`PROOF_GRACE`] of this are discarded as in-flight stragglers
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

/// A verdict: one switch deviated from one flow's proof.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Deviation {
    /// The deviating switch.
    pub dpid: u64,
    /// How it deviated.
    pub kind: DeviationKind,
    /// The witness flow (as attested at the deviating hop).
    pub flow: FlowKey,
    /// The proof's `(in_port, out_port, cookie)` at that hop (zeros
    /// for injected flows, which have no proof).
    pub expected: (u32, u32, u64),
    /// What the switch attested (for drops: the last honest hop's
    /// observation, since the dropper attested nothing).
    pub observed: (u32, u32, u64),
}

/// Counters of the accountability layer, polled like
/// [`crate::monitor::HealthStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccountabilityStats {
    /// Attestations received and replayed against proofs.
    pub attestations_seen: u64,
    /// Sampled packets whose full per-hop chain matched the proof.
    pub chains_verified: u64,
    /// Attestations whose tag failed recomputation (forged evidence).
    pub forged_tags: u64,
    /// Attestations from switches not on the attested flow's path.
    pub off_path: u64,
    /// Mismatches discarded as in-flight stragglers (flow retired, or
    /// the proof was re-registered within the grace window).
    pub stale_discards: u64,
    /// Deviations confirmed (all kinds).
    pub violations: u64,
    /// Drop deviations inferred by the deadline sweep.
    pub drop_suspects: u64,
    /// Incomplete chains discarded unblamed (turbulence, or the
    /// suspect's attestation channel was quiet — no safe verdict).
    pub sweeps_suppressed: u64,
    /// Path proofs registered over the run.
    pub proofs_registered: u64,
    /// Proofs currently standing (filled at read time).
    pub proofs_active: u64,
    /// Switches quarantined over the run.
    pub quarantines: u64,
    /// Switches quarantined right now (filled at read time).
    pub quarantined_now: u64,
    /// Control messages dropped at the quarantine gate (filled at
    /// read time).
    pub quarantine_gate_drops: u64,
}

impl AccountabilityStats {
    /// The JSON form a monitoring UI polls.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
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
pub struct AccountabilityDetector {
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

impl AccountabilityDetector {
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
    /// [`TURBULENCE_WINDOW`] after the last one.
    pub fn note_turbulence(&mut self, now: SimTime) {
        self.last_turbulence = Some(now);
    }

    /// Counts a quarantine (the controller performs it).
    pub(crate) fn note_quarantine(&mut self) {
        self.stats.quarantines += 1;
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
        if proofs.len() != 1 {
            self.chains.remove(&(sig, att.pkt_tag));
            return;
        }
        let n_hops = proofs[0].hops.len();
        let chain = match self.chains.entry((sig, att.pkt_tag)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                // A chain opens only at the path's first hop. The packet
                // that *triggers* admission is re-injected at the ingress
                // by packet-out — actions applied directly, no table hit,
                // no attestation — so its mid-path attestations must not
                // open a chain the ingress can never join: it would stall
                // and frame the honest ingress switch as a dropper.
                let first = &proofs[0].hops[0];
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
                    // livesec-lint: allow(hot-path-alloc, reason = "one allocation at chain open, amortized over every packet of the chain; not per-packet")
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
        let complete = proofs[0].hops.iter().all(|h| {
            chain
                .attested
                .iter()
                .any(|a| a.3 == h.dpid && a.0 == h.in_port && a.1 == h.out_port && a.2 == h.cookie)
        });
        if complete {
            self.chains.remove(&(sig, att.pkt_tag));
            self.stats.chains_verified += 1;
        }
    }

    /// Deadline sweep: a sampled packet whose chain stalled past
    /// [`CHAIN_DEADLINE`] was dropped mid-path. The first proof hop it
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
            if proofs.len() != 1 || proofs[0].registered_at > chain.first_seen {
                continue; // the path moved under the chain
            }
            let missing = proofs[0].hops.iter().find(|h| {
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

    /// The standing proofs of `sig`, if any (test observability).
    pub fn proofs_of(&self, sig: &FlowSig) -> Option<&[PathProof]> {
        self.proofs.get(sig).map(Vec::as_slice)
    }

    /// Sampled packets still mid-path.
    pub fn pending_chains(&self) -> usize {
        self.chains.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::SwitchEntry;
    use livesec_net::MacAddr;
    use livesec_openflow::{packet_tag, Match};

    fn key() -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            dl_type: 0x0800,
            nw_src: Ipv4Addr::new(10, 0, 0, 1),
            nw_dst: Ipv4Addr::new(10, 0, 0, 2),
            nw_proto: 17,
            tp_src: 5000,
            tp_dst: 80,
        }
    }

    fn program(hops: &[(u64, u32, u32)]) -> SteeringProgram {
        SteeringProgram {
            entries: hops
                .iter()
                .map(|(dpid, in_port, out_port)| SwitchEntry {
                    dpid: *dpid,
                    matcher: Match::exact(*in_port, &key()),
                    actions: vec![Action::Output(OutPort::Physical(*out_port))],
                    priority: 100,
                })
                .collect(),
        }
    }

    fn att(dpid: u64, in_port: u32, out_port: u32, cookie: u64) -> ForwardingAttestation {
        ForwardingAttestation {
            dpid,
            in_port,
            out_port,
            cookie,
            flow: key(),
            pkt_tag: packet_tag(&key(), 100),
            tag: attestation_tag(dpid, in_port, out_port, cookie),
        }
    }

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    fn armed() -> AccountabilityDetector {
        // Proof registered at t=0; observations happen past the grace.
        let mut d = AccountabilityDetector::new();
        d.register(
            flow_sig(&key()),
            PathProof::of_program(
                &program(&[(1, 3, 1), (2, 1, 7)]),
                1,
                ProofSource::Steering,
                ms(0),
            ),
        );
        d
    }

    #[test]
    fn consistent_chain_verifies() {
        let mut d = armed();
        assert_eq!(d.observe(ms(100), &att(1, 3, 1, 1)), None);
        assert_eq!(d.pending_chains(), 1);
        assert_eq!(d.observe(ms(101), &att(2, 1, 7, 0)), None);
        assert_eq!(d.pending_chains(), 0);
        assert_eq!(d.stats().chains_verified, 1);
        assert_eq!(d.stats().violations, 0);
    }

    #[test]
    fn wrong_out_port_is_a_detour() {
        let mut d = armed();
        let dev = d.observe(ms(100), &att(1, 3, 9, 1)).expect("deviation");
        assert_eq!(dev.dpid, 1);
        assert_eq!(dev.kind, DeviationKind::Detour);
        assert_eq!(dev.expected, (3, 1, 1));
        assert_eq!(dev.observed, (3, 9, 1));
    }

    #[test]
    fn wrong_cookie_is_a_tamper() {
        let mut d = armed();
        let dev = d.observe(ms(100), &att(1, 3, 9, 0)).expect("deviation");
        assert_eq!(dev.kind, DeviationKind::Tamper);
        assert_eq!(dev.dpid, 1);
    }

    #[test]
    fn forged_tag_is_a_tamper_even_when_ports_match() {
        let mut d = armed();
        let mut a = att(1, 3, 1, 1);
        a.tag ^= 1;
        let dev = d.observe(ms(100), &a).expect("deviation");
        assert_eq!(dev.kind, DeviationKind::Tamper);
        assert_eq!(d.stats().forged_tags, 1);
    }

    #[test]
    fn unadmitted_flow_is_an_injection() {
        let mut d = AccountabilityDetector::new();
        let dev = d.observe(ms(100), &att(7, 0, 1, 0)).expect("deviation");
        assert_eq!(dev.kind, DeviationKind::Injection);
        assert_eq!(dev.dpid, 7);
    }

    #[test]
    fn retired_flow_straggler_is_discarded() {
        let mut d = armed();
        d.retire(flow_sig(&key()), None);
        assert_eq!(d.observe(ms(100), &att(1, 3, 1, 1)), None);
        assert_eq!(d.stats().stale_discards, 1);
        assert_eq!(d.stats().violations, 0);
    }

    #[test]
    fn mismatch_within_grace_of_reregistration_is_discarded() {
        let mut d = armed();
        d.register(
            flow_sig(&key()),
            PathProof::of_program(
                &program(&[(1, 3, 2), (4, 1, 7)]),
                1,
                ProofSource::Steering,
                ms(99),
            ),
        );
        // Old-path packet lands 1 ms after the path moved: straggler.
        assert_eq!(d.observe(ms(100), &att(1, 3, 1, 1)), None);
        assert_eq!(d.stats().stale_discards, 1);
    }

    #[test]
    fn fastpass_proof_coexists_with_steering() {
        let mut d = armed();
        d.register(
            flow_sig(&key()),
            PathProof::of_program(
                &program(&[(1, 3, 5), (9, 1, 7)]),
                5,
                ProofSource::FastPass,
                ms(0),
            ),
        );
        // Hops from either program are consistent.
        assert_eq!(d.observe(ms(100), &att(1, 3, 1, 1)), None);
        assert_eq!(d.observe(ms(100), &att(1, 3, 5, 5)), None);
        assert_eq!(d.stats().violations, 0);
        // But chains are not tracked while both stand.
        assert_eq!(d.pending_chains(), 0);
    }

    #[test]
    fn stalled_chain_blames_the_next_hop() {
        let mut d = armed();
        assert_eq!(d.observe(ms(100), &att(1, 3, 1, 1)), None);
        // Switch 2 never attests this packet but provably lives on.
        let other = FlowKey {
            tp_src: 6000,
            ..key()
        };
        d.register(
            flow_sig(&other),
            PathProof::of_program(&program(&[(2, 1, 7)]), 1, ProofSource::Steering, ms(0)),
        );
        d.observe(
            ms(700),
            &ForwardingAttestation {
                dpid: 2,
                in_port: 1,
                out_port: 7,
                cookie: 1,
                flow: other,
                pkt_tag: packet_tag(&other, 100),
                tag: attestation_tag(2, 1, 7, 1),
            },
        );
        let verdicts = d.sweep(ms(700));
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].dpid, 2);
        assert_eq!(verdicts[0].kind, DeviationKind::Drop);
        assert_eq!(d.pending_chains(), 0);
    }

    #[test]
    fn sweep_is_suppressed_during_turbulence_and_silence() {
        // Silent suspect: no verdict.
        let mut d = armed();
        assert_eq!(d.observe(ms(100), &att(1, 3, 1, 1)), None);
        assert!(d.sweep(ms(700)).is_empty());
        assert_eq!(d.stats().sweeps_suppressed, 1);

        // Live suspect but turbulent network: no verdict either.
        let mut d = armed();
        assert_eq!(d.observe(ms(100), &att(1, 3, 1, 1)), None);
        let other = FlowKey {
            tp_src: 6000,
            ..key()
        };
        d.register(
            flow_sig(&other),
            PathProof::of_program(&program(&[(2, 1, 7)]), 1, ProofSource::Steering, ms(0)),
        );
        d.observe(
            ms(650),
            &ForwardingAttestation {
                dpid: 2,
                in_port: 1,
                out_port: 7,
                cookie: 1,
                flow: other,
                pkt_tag: packet_tag(&other, 100),
                tag: attestation_tag(2, 1, 7, 1),
            },
        );
        d.note_turbulence(ms(600));
        assert!(d.sweep(ms(700)).is_empty());
        assert_eq!(d.stats().sweeps_suppressed, 1);
        assert_eq!(d.stats().violations, 0);
    }

    #[test]
    fn off_path_attestation_is_counted_not_blamed() {
        let mut d = armed();
        assert_eq!(d.observe(ms(100), &att(42, 3, 1, 1)), None);
        assert_eq!(d.stats().off_path, 1);
        assert_eq!(d.stats().violations, 0);
    }
}
