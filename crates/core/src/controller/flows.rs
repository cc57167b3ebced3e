//! Flows: set-up, decision, repair, flow-removed accounting,
//! fast-passes, verdicts, blocks and path-proof registration.

use super::*;

/// How old a flow's installation must be before a packet-in for it is
/// read as "the switch lost the entries" rather than "this packet
/// raced the just-queued flow-mods". Races resolve within the control
/// channel round-trip (well under a millisecond); anything past this
/// guard means the flow-mods were eaten — e.g. by a partition shorter
/// than the liveness timeout, which neither side ever notices — and
/// the entries must be reinstalled from the flow record.
pub(super) const REPAIR_GUARD: SimDuration = SimDuration::from_millis(50);

impl Controller {
    /// Applies a batch of scoped policy edits — the delta path
    /// (DESIGN.md §14).
    ///
    /// Unlike [`Controller::set_policy`], which tears down every
    /// fast-pass, this computes the header classes the deltas actually
    /// touch: fast-passes and established-connection reports whose
    /// flow falls in a touched cube are torn down, and every other one
    /// survives. Active flow records are left alone either way — their
    /// entries idle out and the next packet-in re-decides, just as
    /// after a wholesale edit.
    ///
    /// Returns the touched header-space cubes in delta order; callers
    /// hand these to `livesec_verify::audit_delta` to verify the edit
    /// incrementally.
    pub fn apply_policy_delta(&mut self, now: SimTime, deltas: &[PolicyDelta]) -> Vec<Match> {
        if deltas.is_empty() {
            return Vec::new();
        }
        let mut cubes: Vec<Match> = Vec::new();
        let (mut adds, mut removes, mut replaces) = (0u64, 0u64, 0u64);
        for delta in deltas {
            // Touched classes come from the table state *before* the
            // delta applies: a removed rule's old cube is exactly
            // what stops mattering.
            let old = |name: &str| self.policy.get(name).map(|r| r.matcher);
            let applied = match delta {
                PolicyDelta::Insert { rule, .. } => {
                    cubes.push(rule.matcher);
                    Some(&mut adds)
                }
                PolicyDelta::Remove { name } => {
                    cubes.extend(old(name));
                    Some(&mut removes)
                }
                PolicyDelta::Replace { rule } => {
                    cubes.extend(old(&rule.name).filter(|c| *c != rule.matcher));
                    cubes.push(rule.matcher);
                    Some(&mut replaces)
                }
                PolicyDelta::SetDefault { .. } => {
                    cubes.push(Match::any());
                    None
                }
                PolicyDelta::SetAppAction { .. } => None,
            };
            if let (true, Some(n)) = (self.policy.apply_delta(delta), applied) {
                *n += 1;
            }
        }
        // Scoped invalidation: only the fast-passes and establishment
        // reports of flows overlapping a touched cube go.
        let touched = |key: &FlowKey| {
            let fwd = Match::exact_any_port(key);
            let rev = Match::exact_any_port(&key.reversed());
            cubes.iter().any(|c| c.overlaps(&fwd) || c.overlaps(&rev))
        };
        self.invalidate_fastpasses(touched);
        self.established_conns.retain(|key| !touched(key));
        self.monitor.record(
            now,
            EventKind::PolicyDeltaApplied {
                adds,
                removes,
                replaces,
                classes: cubes.len() as u64,
            },
        );
        cubes
    }

    /// The one flow set-up (DESIGN.md §4c): a packet-in of `key`, whose
    /// packet is `frame`, missed the flow table. It either belongs to a
    /// session on the books — repair and release it — or gets one
    /// [`EngineDecision`], applied in one `match`.
    pub(super) fn handle_flow(
        &mut self,
        now: SimTime,
        dpid: u64,
        in_port: u32,
        key: FlowKey,
        frame: &[u8],
    ) {
        let at_uplink = Some(in_port) == self.topo.uplink_of(dpid);
        // A session is on the books under the key of its first packet,
        // and its record holds both directions' programs: a reply is a
        // packet of that session wherever it surfaces, never a new flow
        // under the reversed 5-tuple — deciding it as one would look
        // the policy up with the client's ephemeral port as the service
        // port, and its direct programs would replace the session's
        // chained entries (same match, same priority).
        let session = [key, key.reversed()].into_iter().find_map(|k| {
            let installed_at = self.active.get(&k)?.installed_at;
            Some((k, now.saturating_since(installed_at) > REPAIR_GUARD))
        });
        if let Some((k, repair_due)) = session {
            // Past the guard a packet-in for an active flow means a
            // switch lost the flow's entries — idled out under one
            // direction's silence, or flow-mods eaten by a control-
            // channel fault (including the block entry for blocked
            // flows, whose packets otherwise drop at the switch):
            // reinstall before handling the packet itself.
            if repair_due {
                self.repair_flow(now, &k);
            }
            // Mid-path packets are only ever repaired; a packet at an
            // access port raced ahead of the flow-mods (or triggered
            // the repair) and is released along its direction's
            // already-computed ingress actions.
            let release = self
                .active
                .get(&k)
                .filter(|r| !at_uplink && r.block.is_none());
            if let (Some(rec), Some(node)) = (release, self.node_of(dpid)) {
                let program = if k == key { &rec.forward } else { &rec.reverse };
                self.tx
                    .release(node, Some(in_port), program.ingress_actions(), frame);
            }
            return;
        }
        if at_uplink {
            return; // flow set-up only ever happens at the ingress
        }

        let ingress = (dpid, in_port);
        match engine::decide(self, &key) {
            EngineDecision::Deny { rule } => self.deny_flow(now, ingress, &key, rule),
            EngineDecision::ChainUnavailable { rule } => {
                self.deny_flow(now, ingress, &key, Some(rule));
            }
            // Discovery not converged or a host unknown: the sender
            // re-ARPs and retries.
            EngineDecision::Unroutable => {}
            EngineDecision::Steer {
                services,
                elements,
                forward,
                reverse,
            } => {
                let egress_dpid = forward.entries.last().map_or(dpid, |e| e.dpid);
                self.put_programs(now, &key, &forward, &reverse, ProofSource::Steering);
                // Release the triggering packet along the new path (the
                // flow-mods were queued first on the same channel, so
                // they are applied before this packet-out).
                if let Some(node) = self.node_of(dpid) {
                    self.tx
                        .release(node, Some(in_port), forward.ingress_actions(), frame);
                }
                for mac in &elements {
                    self.locations.adjust_outstanding(*mac, 1);
                }
                self.flows_installed += 1;
                self.last_setup = Some((key, dpid, egress_dpid));
                self.monitor.record(
                    now,
                    EventKind::FlowStart {
                        flow: key,
                        chain: services.clone(),
                        elements: elements.clone(),
                    },
                );
                let rec = FlowRecord {
                    chain: services,
                    elements,
                    ingress_dpid: dpid,
                    forward,
                    reverse,
                    block: None,
                    installed_at: now,
                    app: None,
                    fwd_done: None,
                    rev_done: None,
                };
                self.admit(key, rec);
                // A connection the firewall already reported established
                // gets its fast-pass back on this packet-in — the element
                // reports each establishment only once, so a fast-pass
                // lost to a switch restart must be re-derived from the
                // controller's own memory of the report.
                if let Some(k) = self.remembered_established(&key) {
                    self.install_fastpass(now, k);
                }
            }
        }
    }

    /// Installs a drop entry for a policy-denied flow and records the
    /// denial.
    fn deny_flow(&mut self, now: SimTime, at: (u64, u32), key: &FlowKey, rule: Option<String>) {
        let (matcher, idle) = (Match::exact(at.1, key), self.flow_idle_timeout);
        self.install([Entry::drop(at.0, matcher, DENY_COOKIE, Some(idle))]);
        self.monitor
            .record(now, EventKind::FlowDenied { flow: *key, rule });
    }

    /// Reinstalls everything `key`'s record says should be in the
    /// network — both steering programs and the block entry, if any.
    /// Flow-mod `Add`s replace identical (match, priority) entries, so
    /// repairing state that partially survived a fault is harmless.
    fn repair_flow(&mut self, now: SimTime, key: &FlowKey) {
        let Some(rec) = self.active.get_mut(key) else {
            return;
        };
        rec.installed_at = now; // rate-limits repeated repairs
        let forward = Rc::clone(&rec.forward);
        let reverse = Rc::clone(&rec.reverse);
        let block = rec.block;
        self.health.flow_repairs += 1;
        self.put_programs(now, key, &forward, &reverse, ProofSource::Steering);
        if let Some((dpid, matcher)) = block {
            self.install([Entry::drop(dpid, matcher, BLOCK_COOKIE, None)]);
        }
        // The connection's fast-pass died with the same fault: bring
        // it back alongside the steering programs (the firewall never
        // re-reports an establishment it already reported).
        if let Some(k) = self.remembered_established(key) {
            match self.fastpasses.get(&k).cloned() {
                Some(fp) => {
                    self.put_programs(now, &k, &fp.forward, &fp.reverse, ProofSource::FastPass);
                }
                None => self.install_fastpass(now, k),
            }
        }
    }

    /// The direction of `key` under which a firewall element reported
    /// the connection established, if no policy change has voided the
    /// report since.
    fn remembered_established(&self, key: &FlowKey) -> Option<FlowKey> {
        [*key, key.reversed()]
            .into_iter()
            .find(|k| self.established_conns.contains(k))
    }

    /// An ingress entry idled out or was deleted. A fast-pass entry
    /// takes its fast-pass down. A steering entry books its direction's
    /// counters; once both directions have reported, the session ends
    /// with one `FlowEnd` and its volume goes to the service-aware
    /// statistics.
    pub(super) fn handle_flow_removed(
        &mut self,
        now: SimTime,
        matcher: Match,
        cookie: u64,
        packets: u64,
        bytes: u64,
    ) {
        let Some(k) = matcher.exact_key() else { return };
        // Recover the session key: a reverse-ingress entry matches the
        // reply direction, whose reversal is the original key.
        let key = match cookie {
            INGRESS_COOKIE | FASTPASS_COOKIE => k,
            REVERSE_COOKIE | FASTPASS_REV_COOKIE => k.reversed(),
            _ => return,
        };
        if matches!(cookie, FASTPASS_COOKIE | FASTPASS_REV_COOKIE) {
            self.conntrack.fastpass_bytes += bytes;
            self.remove_fastpass(&key);
            return;
        }
        let Some(rec) = self.active.get_mut(&key) else {
            return;
        };
        if cookie == INGRESS_COOKIE {
            rec.fwd_done = Some((packets, bytes));
        } else {
            rec.rev_done = Some((packets, bytes));
        }
        let (Some((fp, fb)), Some((rp, rb))) = (rec.fwd_done, rec.rev_done) else {
            return; // wait for the other direction to idle out
        };
        let Some(rec) = self.retire_flow(&key, Some(ProofSource::Steering)) else {
            return;
        };
        // Service-aware statistics (§IV-C): attribute the session's
        // volume (both directions) to its identified application and
        // to its user.
        let (packets, bytes) = (fp + rp, fb + rb);
        let label = rec.app.unwrap_or_else(|| "unclassified".to_owned());
        let app = self.app_traffic.entry(label).or_default();
        for t in [app, self.user_traffic.entry(key.dl_src).or_default()] {
            t.flows += 1;
            t.packets += packets;
            t.bytes += bytes;
        }
        self.monitor.record(
            now,
            EventKind::FlowEnd {
                flow: key,
                packets,
                bytes,
            },
        );
    }

    /// Installs a bidirectional direct-path fast-pass for an
    /// established flow: two 2-hop steering programs (no service
    /// hops, no MAC rewrites) above steering priority, so subsequent
    /// packets of the connection bypass the service-element hairpin.
    fn install_fastpass(&mut self, now: SimTime, key: FlowKey) {
        if !self.fastpass_enabled || self.fastpasses.contains_key(&key) {
            return;
        }
        // The engine's compile stage over an empty chain, one priority
        // up: no service hops, no MAC rewrites.
        let direct = engine::compile(self, &key, Vec::new(), Vec::new(), FASTPASS_PRIORITY);
        let EngineDecision::Steer {
            forward, reverse, ..
        } = direct
        else {
            return; // an end unlocated or an uplink undiscovered
        };
        let rec = FastPassRecord { forward, reverse };
        self.put_programs(now, &key, &rec.forward, &rec.reverse, ProofSource::FastPass);
        self.fastpasses.insert(key, rec);
        self.conntrack.fastpass_installed += 1;
        self.monitor
            .record(now, EventKind::FastPassInstalled { flow: key });
    }

    /// Tears down a fast-pass: deletes both directions' entries and
    /// drops the record. Idempotent — the switch's FlowRemoved
    /// notification for an entry this very teardown deletes re-enters
    /// here and finds the record already gone.
    fn remove_fastpass(&mut self, key: &FlowKey) {
        let Some(rec) = self.fastpasses.remove(key) else {
            return;
        };
        self.retire_proofs(key, Some(ProofSource::FastPass));
        self.uninstall(rec.entries(self.fastpass_idle));
        self.conntrack.fastpass_removed += 1;
    }

    /// Tears down, in key order, the fast-pass of every flow `stale`
    /// picks; each counts as invalidated. The flow falls back to its
    /// steering program; a fresh establishment report or a repeat
    /// packet-in reinstalls it.
    pub(super) fn invalidate_fastpasses(&mut self, stale: impl Fn(&FlowKey) -> bool) {
        let keys: Vec<FlowKey> = self.fastpasses.keys().copied().filter(stale).collect();
        for key in keys {
            self.conntrack.fastpass_invalidated += 1;
            self.remove_fastpass(&key);
        }
    }

    /// Acts on a service element's verdict about a flow. The element
    /// saw the flow mid-path, where steering has rewritten the MACs
    /// (dl_dst points at the element itself); the original flow
    /// identity is recovered from the active-flow table first.
    pub(super) fn dispatch_verdict(
        &mut self,
        now: SimTime,
        src_mac: MacAddr,
        flow: FlowKey,
        verdict: Verdict,
    ) {
        let flow = self.canonical_key(&flow);
        match verdict {
            Verdict::Malicious { attack, severity } => {
                self.monitor.record(
                    now,
                    EventKind::AttackDetected {
                        flow,
                        attack: attack.clone(),
                        severity,
                        element: src_mac,
                    },
                );
                if attack.starts_with("syn-flood") {
                    // A flood rotates source ports, so the per-key
                    // block below would stop only one probe: drop
                    // everything from the source at its ingress.
                    self.conntrack.syn_floods += 1;
                    self.monitor.record(
                        now,
                        EventKind::SynFloodDetected {
                            src: flow.nw_src,
                            attack: attack.clone(),
                        },
                    );
                    self.block_source(flow.dl_src);
                }
                self.block_flow(now, &flow, format!("attack:{attack}"));
            }
            Verdict::Application { app } => {
                let blocked = (self.policy.app_action(&app) == Some(AppAction::Block))
                    .then(|| format!("app-policy:{app}"));
                if let Some(rec) = self.active.get_mut(&flow) {
                    rec.app = Some(app.clone());
                }
                self.monitor
                    .record(now, EventKind::AppIdentified { flow, app });
                if let Some(reason) = blocked {
                    self.block_flow(now, &flow, reason);
                }
            }
            Verdict::PolicyViolation { policy } => {
                self.block_flow(now, &flow, format!("policy:{policy}"));
            }
            Verdict::ConnEstablished => {
                self.conntrack.established += 1;
                self.monitor
                    .record(now, EventKind::ConnEstablished { flow });
                self.established_conns.insert(flow);
                self.install_fastpass(now, flow);
            }
            Verdict::ConnClosed => {
                self.conntrack.closed += 1;
                self.monitor.record(now, EventKind::ConnClosed { flow });
                self.established_conns.remove(&flow);
                self.remove_fastpass(&flow);
            }
        }
    }

    /// Maps an SE-reported flow key (possibly carrying rewritten MACs)
    /// back to the originally-admitted key: the least active key with
    /// the same VLAN and MAC-independent fields, or the key itself if
    /// it is active or no key matches.
    pub(super) fn canonical_key(&self, reported: &FlowKey) -> FlowKey {
        if self.active.contains_key(reported) {
            return *reported;
        }
        self.by_sig
            .get(&(reported.vlan, flow_sig(reported)))
            .map_or(*reported, |(least, _)| *least)
    }

    /// Puts `key`'s record on the books and in the signature index.
    fn admit(&mut self, key: FlowKey, rec: FlowRecord) {
        self.active.insert(key, rec);
        self.by_sig
            .entry((key.vlan, flow_sig(&key)))
            .and_modify(|(least, n)| {
                *least = (*least).min(key);
                *n += 1;
            })
            .or_insert((key, 1));
    }

    /// Installs a standing drop at `dpid` and enters it in the block
    /// registry, so audits reinstall it after crashes and partitions.
    fn block(&mut self, dpid: u64, matcher: Match) {
        self.install([Entry::drop(dpid, matcher, BLOCK_COOKIE, None)]);
        // Hosts are located only at registered switches, so `dpid` has a
        // record.
        let standing = self.datapaths.get_mut(&dpid).map(|rec| &mut rec.blocks);
        if let Some(standing) = standing.filter(|ms| !ms.contains(&matcher)) {
            standing.push(matcher);
        }
    }

    /// Installs a source-wide drop at a host's ingress switch — the
    /// response to a SYN flood, whose probes rotate source ports
    /// faster than per-flow blocks could chase them.
    fn block_source(&mut self, mac: MacAddr) {
        if let Some(loc) = self.locations.lookup(mac).copied() {
            self.block(loc.dpid, Match::any().with_dl_src(mac));
        }
    }

    /// Installs a drop entry for `key` at its ingress switch — the
    /// paper's interactive enforcement response (§IV-A): the flow is
    /// blocked at the entrance, protecting the inner network.
    fn block_flow(&mut self, now: SimTime, key: &FlowKey, reason: String) {
        let Some(loc) = self.locations.lookup(key.dl_src).copied() else {
            return;
        };
        let matcher = Match::exact(loc.port, key);
        self.block(loc.dpid, matcher);
        if let Some(rec) = self.active.get_mut(key) {
            rec.block = Some((loc.dpid, matcher));
        }
        self.monitor.record(
            now,
            EventKind::FlowBlocked {
                flow: *key,
                reason,
                at_dpid: loc.dpid,
            },
        );
    }

    /// Puts one flow's program pair on the switches and registers its
    /// path proofs under the rewrite-invariant signatures of both
    /// directions — the first installation and the repair alike.
    /// Re-registering resets a proof's grace window, so packets still
    /// in flight under a pre-fault installation are not mistaken for
    /// deviations. (The ingress entries report their removal, so their
    /// idle-out reports the bytes the flow carried.)
    fn put_programs(
        &mut self,
        now: SimTime,
        key: &FlowKey,
        forward: &Rc<SteeringProgram>,
        reverse: &Rc<SteeringProgram>,
        source: ProofSource,
    ) {
        let idle = match source {
            ProofSource::Steering => self.flow_idle_timeout,
            ProofSource::FastPass => self.fastpass_idle,
        };
        self.install(Entry::of_programs(forward, reverse, source, idle));
        let (fwd_cookie, rev_cookie) = ingress_cookies(source);
        self.detector.register(
            flow_sig(key),
            PathProof::of_program(Rc::clone(forward), fwd_cookie, source, now),
        );
        self.detector.register(
            flow_sig(&key.reversed()),
            PathProof::of_program(Rc::clone(reverse), rev_cookie, source, now),
        );
    }

    /// Retires both directions' proofs of `key` from `source`.
    fn retire_proofs(&mut self, key: &FlowKey, source: Option<ProofSource>) {
        self.detector.retire(flow_sig(key), source);
        self.detector.retire(flow_sig(&key.reversed()), source);
    }

    /// Takes `key`'s record off the books: its proofs from `source`
    /// retire and its elements each lose an outstanding flow. What
    /// happens to its switch entries is the caller's business.
    pub(super) fn retire_flow(
        &mut self,
        key: &FlowKey,
        source: Option<ProofSource>,
    ) -> Option<FlowRecord> {
        let rec = self.active.remove(key)?;
        let index = (key.vlan, flow_sig(key));
        if let Some((least, n)) = self.by_sig.get_mut(&index) {
            *n -= 1;
            if *n == 0 {
                self.by_sig.remove(&index);
            } else if least == key {
                // A tie outlives its least key: the next one takes over.
                let same = |k: &&FlowKey| k.vlan == key.vlan && flow_sig(k) == index.1;
                if let Some(next) = self.active.keys().find(same) {
                    *least = *next;
                }
            }
        }
        self.retire_proofs(key, source);
        for mac in &rec.elements {
            self.locations.adjust_outstanding(*mac, -1);
        }
        Some(rec)
    }
}
