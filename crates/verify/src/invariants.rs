//! The dataplane invariants and the [`audit`] entry point.
//!
//! Each check works the same way: carve the header space into the
//! equivalence classes an invariant cares about (using the
//! difference-of-cubes algebra from `livesec_openflow::header_space`),
//! extract one concrete witness packet per class, and replay it
//! through the snapshot's flow tables with [`crate::trace()`]. A
//! violation always carries that witness, so every finding is a
//! reproducible packet, not a symbolic claim.

use crate::snapshot::Snapshot;
use crate::trace::{trace, TraceEnd};
use livesec::controller::FASTPASS_PRIORITY;
use livesec_net::{FlowKey, Ipv4Net, MacAddr};
use livesec_openflow::{outranks, FlowEntry, HeaderClass, Match, LOOKUP_TYPES};
use livesec_services::ServiceType;
use std::fmt;

/// A concrete packet demonstrating a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Switch the packet is injected at.
    pub dpid: u64,
    /// Ingress port.
    pub in_port: u32,
    /// Header fields.
    pub key: FlowKey,
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = &self.key;
        write!(
            f,
            "@dpid {} port {}: {} -> {} | {}:{} -> {}:{} proto {}",
            self.dpid,
            self.in_port,
            k.dl_src,
            k.dl_dst,
            k.nw_src,
            k.tp_src,
            k.nw_dst,
            k.tp_dst,
            k.nw_proto
        )
    }
}

/// One refuted invariant, with the witness packet that refutes it.
#[derive(Clone, Debug)]
pub enum Violation {
    /// Invariant 1: a packet covered by a standing block was
    /// delivered to an endpoint.
    BlockedReachable {
        /// The switch holding the block.
        block_dpid: u64,
        /// The block's matcher.
        matcher: Match,
        /// The packet that got through.
        witness: Witness,
        /// Where it was delivered.
        delivered_to: MacAddr,
    },
    /// Invariant 2: a packet revisits a forwarding state.
    ForwardingLoop {
        /// Switch whose entry starts the looping trace.
        dpid: u64,
        /// The looping packet.
        witness: Witness,
        /// The `(dpid, in_port)` path it took.
        path: Vec<(u64, u32)>,
    },
    /// Invariant 3: an admitted (unblocked) flow does not reach its
    /// destination.
    Blackhole {
        /// The flow's key (as traced; reverse flows appear reversed).
        flow: FlowKey,
        /// The injected packet.
        witness: Witness,
        /// How the trace actually ended.
        end: TraceEnd,
    },
    /// Invariant 4: a flow whose policy names a service chain reaches
    /// egress without traversing an element of each required type in
    /// order.
    ChainSkipped {
        /// The flow's key.
        flow: FlowKey,
        /// The chain the policy requires.
        required: Vec<ServiceType>,
        /// What the packet actually traversed.
        traversed: Vec<ServiceType>,
        /// The packet.
        witness: Witness,
    },
    /// Invariant 5: a fast-pass entry no standing record backs.
    StaleFastPass {
        /// Switch holding the entry.
        dpid: u64,
        /// The entry's matcher.
        matcher: Match,
        /// A packet the stale entry would capture.
        witness: Witness,
    },
    /// Invariant 7 (sharded control planes only): a registered switch
    /// is not owned by exactly one live shard — either orphaned (no
    /// owner: its packet-ins go nowhere useful) or multiply owned
    /// (two shards would race on its table).
    ShardCoverage {
        /// The switch in question.
        dpid: u64,
        /// The live shards claiming it (empty = orphaned).
        owners: Vec<u32>,
    },
    /// Invariant 8: a quarantined switch still casts a shadow — its
    /// flow table was not wiped, the NIB still locates hosts on it, or
    /// a live shard still claims it. A misbehaving switch that keeps
    /// forwarding state (or keeps receiving flow setups) after its
    /// eviction defeats the accountability layer's containment.
    QuarantineLeak {
        /// The quarantined switch.
        dpid: u64,
        /// Flow entries still installed (must be zero).
        entries: usize,
        /// MACs the NIB still locates on the switch (must be none).
        hosts: Vec<MacAddr>,
        /// Live shards still claiming ownership (must be none).
        owners: Vec<u32>,
    },
    /// Invariant 6: two same-priority entries overlap with different
    /// actions — the later installation can never win in the overlap.
    ShadowedRule {
        /// Switch holding both entries.
        dpid: u64,
        /// The shared priority.
        priority: u16,
        /// The earlier entry (wins ties).
        winner: Match,
        /// The later, masked entry.
        masked: Match,
        /// A packet in the overlap.
        witness: Witness,
    },
}

impl Violation {
    /// Short invariant tag for summaries.
    pub fn tag(&self) -> &'static str {
        match self {
            Violation::BlockedReachable { .. } => "blocked-reachable",
            Violation::ForwardingLoop { .. } => "forwarding-loop",
            Violation::Blackhole { .. } => "blackhole",
            Violation::ChainSkipped { .. } => "chain-skipped",
            Violation::StaleFastPass { .. } => "stale-fastpass",
            Violation::ShadowedRule { .. } => "shadowed-rule",
            Violation::ShardCoverage { .. } => "shard-coverage",
            Violation::QuarantineLeak { .. } => "quarantine-leak",
        }
    }

    /// The witness packet demonstrating the violation, for the
    /// header-space invariants. `None` for control-plane-structural
    /// violations ([`Violation::ShardCoverage`],
    /// [`Violation::QuarantineLeak`]), which have no packet.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            Violation::BlockedReachable { witness, .. }
            | Violation::ForwardingLoop { witness, .. }
            | Violation::Blackhole { witness, .. }
            | Violation::ChainSkipped { witness, .. }
            | Violation::StaleFastPass { witness, .. }
            | Violation::ShadowedRule { witness, .. } => Some(witness),
            Violation::ShardCoverage { .. } | Violation::QuarantineLeak { .. } => None,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::BlockedReachable {
                block_dpid,
                matcher,
                witness,
                delivered_to,
            } => write!(
                f,
                "[blocked-reachable] block ({matcher}) at dpid {block_dpid} evaded; \
                     witness {witness} delivered to {delivered_to}"
            ),
            Violation::ForwardingLoop {
                dpid,
                witness,
                path,
            } => write!(
                f,
                "[forwarding-loop] starting at dpid {dpid}; witness {witness}; path {path:?}"
            ),
            Violation::Blackhole { flow, witness, end } => write!(
                f,
                "[blackhole] admitted flow {} -> {} ends '{end}'; witness {witness}",
                flow.dl_src, flow.dl_dst
            ),
            Violation::ChainSkipped {
                flow,
                required,
                traversed,
                witness,
            } => write!(
                f,
                "[chain-skipped] flow {} -> {} requires {required:?} but traversed \
                     {traversed:?}; witness {witness}",
                flow.dl_src, flow.dl_dst
            ),
            Violation::StaleFastPass {
                dpid,
                matcher,
                witness,
            } => write!(
                f,
                "[stale-fastpass] entry ({matcher}) at dpid {dpid} has no standing record; \
                     witness {witness}"
            ),
            Violation::ShadowedRule {
                dpid,
                priority,
                winner,
                masked,
                witness,
            } => write!(
                f,
                "[shadowed-rule] dpid {dpid} priority {priority}: ({masked}) is masked by \
                     earlier ({winner}); witness {witness}"
            ),
            Violation::ShardCoverage { dpid, owners } => write!(
                f,
                "[shard-coverage] dpid {dpid} owned by live shards {owners:?} \
                     (must be exactly one)"
            ),
            Violation::QuarantineLeak {
                dpid,
                entries,
                hosts,
                owners,
            } => write!(
                f,
                "[quarantine-leak] quarantined dpid {dpid} not isolated: \
                     {entries} entries installed, hosts {hosts:?}, owners {owners:?}"
            ),
        }
    }
}

/// Which snapshot items a header-space audit pass re-examines. The
/// structural invariants (7, 8) always run in full — they are cheap
/// and not header-indexed — but the trace-based checks iterate only
/// the scoped items. [`AuditScope::full`] selects everything;
/// [`crate::EcIndex::touched`] selects the classes a rule delta
/// intersects.
#[derive(Clone, Debug)]
pub struct AuditScope {
    /// Indices into `snap.flows` to re-trace.
    pub flows: Vec<usize>,
    /// Indices into `snap.blocks` to re-verify unreachable.
    pub blocks: Vec<usize>,
    /// `(switch index, entry index)` pairs to re-check for loops,
    /// staleness, and shadowing. Must be sorted.
    pub entries: Vec<(usize, usize)>,
}

impl AuditScope {
    /// The scope covering every item — a scoped audit over it is
    /// exactly the full [`audit`].
    pub fn full(snap: &Snapshot) -> Self {
        AuditScope {
            flows: (0..snap.flows.len()).collect(),
            blocks: (0..snap.blocks.len()).collect(),
            entries: snap
                .switches
                .iter()
                .enumerate()
                .flat_map(|(si, sw)| (0..sw.entries.len()).map(move |j| (si, j)))
                .collect(),
        }
    }

    /// Total scoped items, for work-ratio accounting.
    pub fn len(&self) -> usize {
        self.flows.len() + self.blocks.len() + self.entries.len()
    }

    /// Whether nothing is scoped (the structural checks still run).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs all invariant checks against a snapshot and returns every
/// violation found (empty = all invariants proven for this snapshot).
pub fn audit(snap: &Snapshot) -> Vec<Violation> {
    audit_scoped(snap, &AuditScope::full(snap))
}

/// Runs the invariant checks restricted to `scope`. With
/// [`AuditScope::full`] this is [`audit`] exactly; with a delta
/// scope it re-examines only the traced classes the delta touches
/// (plus the always-on structural invariants 7 and 8).
pub fn audit_scoped(snap: &Snapshot, scope: &AuditScope) -> Vec<Violation> {
    let mut out = Vec::new();
    check_quarantine(snap, &mut out);
    check_shard_coverage(snap, &mut out);
    check_shadowed_rules(snap, &scope.entries, &mut out);
    check_stale_fastpass(snap, &scope.entries, &mut out);
    check_loops(snap, &scope.entries, &mut out);
    check_flows(snap, &scope.flows, &mut out);
    check_blocked_unreachable(snap, &scope.blocks, &mut out);
    out
}

/// Invariant 8: every quarantined switch is fully isolated. The
/// accountability layer wipes a deviating switch's table and evicts
/// it from the control plane; afterwards the switch must hold no
/// entries, locate no hosts, and be claimed by no live shard — any
/// residue means the evicted switch can still touch traffic the
/// controller believes it re-steered.
fn check_quarantine(snap: &Snapshot, out: &mut Vec<Violation>) {
    for &dpid in &snap.quarantined {
        let entries = snap.switch(dpid).map_or(0, |s| s.entries.len());
        let hosts: Vec<MacAddr> = snap
            .hosts
            .iter()
            .filter(|h| h.dpid == dpid)
            .map(|h| h.mac)
            .collect();
        let owners = live_owners(snap, dpid);
        if entries > 0 || !hosts.is_empty() || !owners.is_empty() {
            out.push(Violation::QuarantineLeak {
                dpid,
                entries,
                hosts,
                owners,
            });
        }
    }
}

/// The live shards that claim `dpid`.
fn live_owners(snap: &Snapshot, dpid: u64) -> Vec<u32> {
    let live = snap.shards.iter().filter(|s| s.alive);
    live.filter(|s| s.owned.contains(&dpid))
        .map(|s| s.id)
        .collect()
}

/// Invariant 7 (merged per-shard snapshots only): the consistent-hash
/// ring must cover the dataplane — every switch in the snapshot owned
/// by exactly one live shard. An unsharded snapshot (`shards` empty)
/// is vacuously fine.
fn check_shard_coverage(snap: &Snapshot, out: &mut Vec<Violation>) {
    if snap.shards.is_empty() {
        return;
    }
    for sw in &snap.switches {
        if snap.quarantined.contains(&sw.dpid) {
            continue; // deliberately unowned; invariant 8 owns it
        }
        let owners = live_owners(snap, sw.dpid);
        if owners.len() != 1 {
            out.push(Violation::ShardCoverage {
                dpid: sw.dpid,
                owners,
            });
        }
    }
}

/// Invariant 6: within one table, a later entry overlapping an
/// earlier one at equal priority with *different actions* can never
/// win in the overlap — the installation order silently decides, so
/// report the masked rule. Equal-action overlaps (two drop rules) are
/// harmless and ignored.
fn check_shadowed_rules(snap: &Snapshot, scoped: &[(usize, usize)], out: &mut Vec<Violation>) {
    let in_scope: std::collections::BTreeSet<&(usize, usize)> = scoped.iter().collect();
    for (si, sw) in snap.switches.iter().enumerate() {
        for (j, later) in sw.entries.iter().enumerate() {
            for (i, earlier) in sw.entries[..j].iter().enumerate() {
                // A pair needs re-checking when either side changed.
                if !in_scope.contains(&(si, i)) && !in_scope.contains(&(si, j)) {
                    continue;
                }
                if earlier.priority != later.priority
                    || earlier.actions == later.actions
                    || !earlier.matcher.overlaps(&later.matcher)
                {
                    continue;
                }
                let overlap = earlier
                    .matcher
                    .intersect(&later.matcher)
                    .unwrap_or(later.matcher);
                let Some((in_port, key)) = HeaderClass::of(overlap).witness() else {
                    continue;
                };
                out.push(Violation::ShadowedRule {
                    dpid: sw.dpid,
                    priority: later.priority,
                    winner: earlier.matcher,
                    masked: later.matcher,
                    witness: Witness {
                        dpid: sw.dpid,
                        in_port,
                        key,
                    },
                });
            }
        }
    }
}

/// Invariant 5: every entry at fast-pass priority must be backed by a
/// standing fast-pass record, under either direction's key. A policy
/// or topology change tears down the records it stales, so an entry
/// with no record forwards established traffic under superseded
/// policy.
fn check_stale_fastpass(snap: &Snapshot, scoped: &[(usize, usize)], out: &mut Vec<Violation>) {
    for &(si, j) in scoped {
        let Some(sw) = snap.switches.get(si) else {
            continue;
        };
        let Some(e) = sw.entries.get(j) else {
            continue;
        };
        if e.priority != FASTPASS_PRIORITY {
            continue;
        }
        let backed = e.matcher.exact_key().is_some_and(|k| {
            snap.fastpasses
                .iter()
                .any(|fk| *fk == k || fk.reversed() == k)
        });
        if backed {
            continue;
        }
        let Some((in_port, key)) = HeaderClass::of(e.matcher).witness() else {
            continue;
        };
        out.push(Violation::StaleFastPass {
            dpid: sw.dpid,
            matcher: e.matcher,
            witness: Witness {
                dpid: sw.dpid,
                in_port,
                key,
            },
        });
    }
}

/// The region of `within` where `entries[idx]` actually wins the table
/// lookup: `within` minus every matcher that [`outranks`] it.
fn winner_region(entries: &[FlowEntry], idx: usize, within: Match) -> HeaderClass {
    let mut region = HeaderClass::of(within);
    let rank = |i: usize| (entries[i].priority, i as u64);
    for (i, other) in entries.iter().enumerate() {
        if outranks(rank(i), rank(idx)) {
            region.subtract(&other.matcher);
        }
    }
    region
}

/// Invariant 2: no forwarding loops. Every installed entry that can
/// win a lookup is a potential first hop; trace one witness from each
/// such winner region and flag traces that revisit a state.
fn check_loops(snap: &Snapshot, scoped: &[(usize, usize)], out: &mut Vec<Violation>) {
    for &(si, idx) in scoped {
        let Some(sw) = snap.switches.get(si) else {
            continue;
        };
        let Some(e) = sw.entries.get(idx) else {
            continue;
        };
        if e.actions.is_empty() {
            continue; // a drop cannot start a loop
        }
        // One witness per EtherType the switch looks up; it punts the rest.
        let looping = LOOKUP_TYPES.into_iter().find_map(|dl_type| {
            let within = e.matcher.intersect(&Match::any().with_dl_type(dl_type))?;
            // None when fully shadowed: the entry never wins a lookup.
            let (in_port, key) = winner_region(&sw.entries, idx, within).witness()?;
            let t = trace(snap, sw.dpid, in_port, key);
            matches!(t.end, TraceEnd::Loop { .. }).then_some((in_port, key, t))
        });
        if let Some((in_port, key, t)) = looping {
            out.push(Violation::ForwardingLoop {
                dpid: sw.dpid,
                witness: Witness {
                    dpid: sw.dpid,
                    in_port,
                    key,
                },
                path: t.steps.iter().map(|s| (s.dpid, s.in_port)).collect(),
            });
        }
    }
}

/// Whether `required` appears as an in-order subsequence of the
/// traversed service types.
fn chain_satisfied(required: &[ServiceType], traversed: &[ServiceType]) -> bool {
    let mut want = required.iter();
    let mut next = want.next();
    for t in traversed {
        if Some(t) == next {
            next = want.next();
        }
    }
    next.is_none()
}

/// Whether the controller's policy still admits this flow key (the
/// audit tolerates flows whose records outlive a tightened policy —
/// their entries idle out — but chain checks only apply to admitted
/// traffic).
fn flow_is_blocked_on_ingress(snap: &Snapshot, dpid: u64, in_port: u32, key: &FlowKey) -> bool {
    snap.blocks
        .iter()
        .any(|(d, m)| *d == dpid && m.matches(in_port, key))
}

/// Invariants 3 and 4, one trace per direction of each active flow:
/// an admitted flow must reach its destination (no blackhole), and a
/// chained flow must traverse an element of each required type in
/// order before egress (waypoint enforcement) — unless a standing
/// fast-pass sanctions the bypass.
fn check_flows(snap: &Snapshot, scoped: &[usize], out: &mut Vec<Violation>) {
    for &fi in scoped {
        let Some(flow) = snap.flows.get(fi) else {
            continue;
        };
        if flow.blocked {
            continue; // invariant 1 owns blocked flows
        }
        let fastpassed = snap.fastpasses.contains(&flow.key);
        let directions = [
            (flow.key, flow.chain.clone()),
            (
                flow.key.reversed(),
                flow.chain.iter().rev().copied().collect::<Vec<_>>(),
            ),
        ];
        for (key, chain) in directions {
            let Some(src) = snap.host_of(key.dl_src) else {
                continue; // source no longer located; entries idle out
            };
            if flow_is_blocked_on_ingress(snap, src.dpid, src.port, &key) {
                continue; // administratively blocked (e.g. source-wide)
            }
            let witness = Witness {
                dpid: src.dpid,
                in_port: src.port,
                key,
            };
            let t = trace(snap, src.dpid, src.port, key);
            match &t.end {
                TraceEnd::Delivered { mac, .. } if *mac == key.dl_dst => {
                    if !fastpassed && !chain_satisfied(&chain, &t.traversed_types()) {
                        out.push(Violation::ChainSkipped {
                            flow: key,
                            required: chain.clone(),
                            traversed: t.traversed_types(),
                            witness,
                        });
                    }
                }
                // A miss (or explicit punt) packet-ins to the
                // controller, which reinstalls or re-admits — the
                // system's designed reactive fallback, not a
                // blackhole. Happens legitimately when one direction
                // of a half-idle flow expires before its record.
                TraceEnd::Miss { .. } | TraceEnd::ToController { .. } => {}
                // Loops are owned (and reported) by invariant 2.
                TraceEnd::Loop { .. } => {}
                end if end.is_admin_drop() => {} // blocked after admission
                end => out.push(Violation::Blackhole {
                    flow: key,
                    witness,
                    end: end.clone(),
                }),
            }
        }
    }
}

/// Invariant 1: traffic covered by a standing block must not reach
/// any endpoint from any ingress. For each block, enumerate every
/// plausible ingress and every located destination, concretize a
/// packet the blocked party could send there, and demand the trace
/// does not deliver it.
fn check_blocked_unreachable(snap: &Snapshot, scoped: &[usize], out: &mut Vec<Violation>) {
    for &bi in scoped {
        let Some((bdpid, matcher)) = snap.blocks.get(bi) else {
            continue;
        };
        // Ingress candidates: the matcher's pinned port, else the
        // blocked source's attachment, else every host port on the
        // block's switch.
        let ingresses: Vec<(u64, u32)> = if let Some(p) = matcher.in_port {
            vec![(*bdpid, p)]
        } else if let Some(loc) = matcher.dl_src.and_then(|m| snap.host_of(m)) {
            vec![(loc.dpid, loc.port)]
        } else {
            snap.hosts
                .iter()
                .filter(|h| h.dpid == *bdpid)
                .map(|h| (h.dpid, h.port))
                .collect()
        };
        // Destination candidates: pin the matcher to each located
        // endpoint in turn; a block with exact headers pins itself.
        for dst in &snap.hosts {
            if Some(dst.mac) == matcher.dl_src {
                continue;
            }
            let pinned = Match::any()
                .with_dl_dst(dst.mac)
                .with_nw_dst(Ipv4Net::host(dst.ip));
            let Some(target) = matcher.intersect(&pinned) else {
                continue; // the block cannot cover traffic to dst
            };
            for (dpid, in_port) in &ingresses {
                let cls = HeaderClass::of(target.with_in_port(*in_port));
                let Some((in_port, key)) = cls.witness() else {
                    continue;
                };
                let t = trace(snap, *dpid, in_port, key);
                let delivered = match &t.end {
                    TraceEnd::Delivered { mac, .. } => Some(*mac),
                    TraceEnd::Flooded { .. } => Some(dst.mac),
                    _ => None,
                };
                if let Some(mac) = delivered {
                    out.push(Violation::BlockedReachable {
                        block_dpid: *bdpid,
                        matcher: *matcher,
                        witness: Witness {
                            dpid: *dpid,
                            in_port,
                            key,
                        },
                        delivered_to: mac,
                    });
                }
            }
        }
    }
}
