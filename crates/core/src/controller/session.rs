//! Switch sessions: the control-message dispatch, the features
//! handshake, liveness and the housekeeping tick, the flow-table audit
//! and reconciliation, port status, LLDP probing, and the quarantine
//! gate.

use super::*;

/// Every this many ticks, LLDP-probe each registered switch that some
/// peer has not yet heard; a converged topology sends no probes.
const LLDP_EVERY_TICKS: u64 = 5;
/// Echo-probe every registered switch every this many ticks (500 ms).
/// This is the controller's keepalive: once discovery is quiet it is
/// the only traffic a switch is sure to hear, so when a partition
/// starts the switch's controller-timeout clock is at most 5 ticks old.
const ECHO_EVERY_TICKS: u64 = 5;
/// How long a switch's secure channel may stay silent before the
/// controller declares it dead and evicts its state.
pub(super) const SWITCH_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// Audit every online switch's flow table every this many ticks (5 s).
/// Reconnect audits cover faults the liveness timeout noticed; this
/// background sweep bounds how long flow-mods eaten by a *shorter*
/// partition — which neither side ever observes — can keep the tables
/// diverged.
const AUDIT_EVERY_TICKS: u64 = 50;

impl Controller {
    /// Handles one control message from `peer` at `now`, read in place:
    /// a packet-in's packet is borrowed from the received bytes. Returns
    /// the payload of an echo request the caller owes a reply to: the
    /// reply carries the request's xid and travels ahead of this
    /// dispatch's batch.
    pub(super) fn on_message(
        &mut self,
        now: SimTime,
        peer: NodeId,
        frame: Frame<'_>,
    ) -> Option<u64> {
        // The datapath id the channel is bound to, registered or not.
        let known = self.topo.bound_dpid(peer);
        // Quarantine gate: nothing a convicted switch says is acted on
        // — in particular not the hello/echo traffic that would
        // otherwise walk it through the reconnect handshake and back
        // into the topology.
        if known.is_some_and(|d| self.is_quarantined(d)) {
            self.quarantine_drops += 1;
            return None;
        }
        // Any decodable message from a registered switch proves its
        // secure channel is alive.
        let dpid = self.topo.dpid_of_node(peer);
        if let Some(sw) = dpid.and_then(|d| self.topo.switch_mut(d)) {
            sw.last_heard = now;
        }
        let msg = match frame {
            Frame::PacketIn { in_port, data, .. } => {
                self.packet_ins += 1;
                // Dropped before the features handshake finished.
                if let Some(dpid) = dpid {
                    self.on_packet_in(now, dpid, in_port, data);
                }
                return None;
            }
            Frame::FlowStats(stats) => {
                if let Some(dpid) = dpid {
                    self.handle_flow_stats(now, dpid, stats);
                }
                return None;
            }
            Frame::Other(msg) => msg,
            // Flow-mods and packet-outs travel only to switches.
            Frame::FlowMod { .. } | Frame::PacketOut { .. } => return None,
        };
        match msg {
            OfMessage::Hello => {
                // A hello from a switch we already know means it lost
                // the session (crash or degraded-mode reconnect).
                if let Some(dpid) = known {
                    self.health.degraded_reports += 1;
                    self.monitor.record(now, EventKind::DegradedMode { dpid });
                }
                self.tx.send(peer, &OfMessage::Hello);
                self.tx.send(peer, &OfMessage::FeaturesRequest);
            }
            OfMessage::EchoRequest(v) => {
                // A keepalive from a switch we deregistered (it never
                // noticed the outage): kick a re-handshake so it
                // re-registers and gets audited.
                if dpid.is_none() && known.is_some() {
                    self.tx.send(peer, &OfMessage::FeaturesRequest);
                }
                return Some(v);
            }
            OfMessage::EchoReply(_) => {
                self.health.echo_replies_seen += 1;
            }
            OfMessage::FeaturesReply {
                datapath_id,
                n_ports,
            } => self.handshake(now, peer, datapath_id, n_ports),
            OfMessage::FlowRemoved {
                matcher,
                cookie,
                packet_count,
                byte_count,
                ..
            } => {
                self.handle_flow_removed(now, matcher, cookie, packet_count, byte_count);
            }
            OfMessage::PortStatus { reason, port_no } => {
                if let Some(dpid) = dpid {
                    self.handle_port_status(now, dpid, port_no, reason == PortStatusReason::Add);
                }
            }
            OfMessage::StatsReply(body) => {
                if let Some(dpid) = dpid {
                    self.handle_stats(now, dpid, body);
                }
            }
            OfMessage::Attestation(att) if dpid.is_some() => {
                if let Some(dev) = self.detector.observe(now, &att) {
                    self.punish(now, dev);
                }
            }
            _ => {}
        }
        None
    }

    /// The features reply that registers `peer` as switch `dpid`, or
    /// re-registers it after an outage.
    fn handshake(&mut self, now: SimTime, peer: NodeId, dpid: u64, n_ports: u32) {
        // A peer's self-reported identity is not taken on faith: a
        // datapath id is bound to the channel that first registered it,
        // for good. A bound channel may register only its own id (its
        // bytes flipped in flight would register a switch that does not
        // exist), and an unbound one only an id never registered (which
        // would steal that switch's channel, live or down); anything
        // else registers nothing, and the real switch re-handshakes off
        // its next echo.
        let bound = self.topo.bound_dpid(peer);
        let rejoined = self.datapaths.contains_key(&dpid);
        if bound.map_or(rejoined, |b| b != dpid) {
            let claimed = dpid;
            self.monitor
                .record(now, EventKind::HandshakeRejected { claimed, bound });
            return;
        }
        // A known dpid missing from the topology was marked down:
        // `mark_switch_down` is the only deregistration.
        let was_new = self.topo.add_switch(dpid, peer, n_ports, now);
        self.datapaths.entry(dpid).or_default();
        if was_new {
            self.topology_changed();
            if !rejoined {
                self.monitor.record(now, EventKind::SwitchJoin { dpid });
            }
        }
        if rejoined {
            if was_new {
                self.health.switch_ups += 1;
                self.monitor.record(now, EventKind::SwitchUp { dpid });
            }
            // The switch's table may have diverged during the outage
            // (crash wipes it; a partition strands entries for flows
            // since forgotten): audit it.
            self.audit_switch(dpid);
        }
        self.probe_switch(dpid);
    }

    /// One housekeeping tick at `now`: discovery, keepalives, the
    /// liveness sweep, audits, stats polling, expiry and the
    /// accountability deadline sweep.
    pub(super) fn tick(&mut self, now: SimTime) {
        self.tick_count += 1;
        if self.tick_count % LLDP_EVERY_TICKS == 1 {
            self.probe_round(false);
        }
        if self.tick_count.is_multiple_of(ECHO_EVERY_TICKS) {
            self.health.echo_probes_sent += self.topo.switch_count() as u64;
            self.send_to_all(&OfMessage::EchoRequest(self.tick_count));
        }
        // Liveness sweep: a registered switch silent past the timeout
        // is dead. The switches iterate in dpid order, so the
        // SwitchDown/UserLeave event order is dpid-ascending and
        // run-stable by construction.
        let dead: Vec<u64> = self
            .topo
            .switches()
            .filter(|s| now.saturating_since(s.last_heard) > SWITCH_TIMEOUT)
            .map(|s| s.dpid)
            .collect();
        for dpid in dead {
            self.mark_switch_down(now, dpid);
        }
        // Background reconciliation sweep: catches flow-mods silently
        // eaten by control-channel faults too short for the liveness
        // timeout to notice (no disconnect => no reconnect audit).
        if self.tick_count.is_multiple_of(AUDIT_EVERY_TICKS) {
            for dpid in self.dpids() {
                self.audit_switch(dpid);
            }
        }
        if self.stats_every_ticks > 0 && self.tick_count.is_multiple_of(self.stats_every_ticks) {
            self.send_to_all(&OfMessage::StatsRequest(StatsRequestKind::Port(None)));
        }
        self.expire_hosts(now);
        // Accountability deadline sweep: sampled packets whose
        // attestation chain stalled mid-path past the deadline are
        // dropped packets; the sweep names the first unattested hop.
        for dev in self.detector.sweep(now) {
            self.punish(now, dev);
        }
    }

    /// An LLDP probe that switch `to.0` received on port `to.1`, sent
    /// out of port `from.1` of switch `from.0`.
    pub(super) fn observe_lldp(&mut self, now: SimTime, from: (u64, u32), to: (u64, u32)) {
        let dpid = to.0;
        if from.0 == dpid {
            return;
        }
        // observe_lldp can silently re-point a switch's uplink even for
        // an already-known link, so compare before and after rather
        // than trusting its return value alone.
        let uplink_before = self.topo.uplink_of(dpid);
        let new_link = self.topo.observe_lldp(from, to);
        let uplink = self.topo.uplink_of(dpid);
        if new_link || uplink != uplink_before {
            self.topology_changed();
        }
        if let Some(port) = uplink {
            self.guard_uplink(dpid, port);
        }
        if new_link {
            self.monitor
                .record(now, EventKind::LinkDiscovered { from, to });
        }
    }

    /// Points switch `dpid`'s uplink guard at `uplink`: the first
    /// uplink LLDP names gets the guard, and a move deletes the old
    /// port's guard and installs the new one. A guard already on
    /// `uplink` sends nothing: every probe of a known uplink, and the
    /// uplink re-learned after a rejoin, whose audit restored it.
    fn guard_uplink(&mut self, dpid: u64, uplink: u32) {
        let old = match self.datapaths.get_mut(&dpid) {
            Some(rec) if rec.guard != Some(uplink) => rec.guard.replace(uplink),
            _ => return,
        };
        self.uninstall(old.map(|port| Entry::guard(dpid, port)));
        self.install([Entry::guard(dpid, uplink)]);
    }

    fn probe_switch(&mut self, dpid: u64) {
        let Some(info) = self.topo.switch(dpid).copied() else {
            return;
        };
        // Once the uplink is known, only probe it; before that, sweep
        // every port to find it.
        let ports = match info.uplink {
            Some(p) => p..=p,
            None => 1..=info.n_ports,
        };
        // Locally-administered source MAC derived from the dpid.
        let src = MacAddr::from_u64(0x0260_0000_0000 | (dpid & 0xffff_ffff));
        for p in ports {
            self.emit(dpid, p, &lldp_frame(src, LldpFrame::new(dpid, p)));
        }
    }

    /// One LLDP round: probes every switch some peer has not yet heard,
    /// or, when `full`, every switch.
    fn probe_round(&mut self, full: bool) {
        let n = self.topo.switch_count();
        for dpid in self.dpids() {
            if full || self.topo.heard_by(dpid) + 1 < n {
                self.probe_switch(dpid);
            }
        }
    }

    /// The registered switches' datapath ids, ascending.
    fn dpids(&self) -> Vec<u64> {
        self.topo.switches().map(|s| s.dpid).collect()
    }

    fn handle_port_status(&mut self, now: SimTime, dpid: u64, port: u32, up: bool) {
        self.monitor
            .record(now, EventKind::PortChange { dpid, port, up });
        // The uplink may have moved: a peer's probe arriving on the new
        // port is what re-learns it.
        self.probe_round(true);
        if !up {
            self.detach(now, dpid, Some(port));
        }
    }

    fn handle_stats(&mut self, now: SimTime, dpid: u64, body: StatsBody) {
        match body {
            StatsBody::Port(stats) => {
                let Some(rec) = self.datapaths.get_mut(&dpid) else {
                    return;
                };
                for s in stats {
                    let prev = rec
                        .port_stats
                        .insert(s.port_no, (s.tx_bytes, s.rx_bytes))
                        .unwrap_or((0, 0));
                    self.monitor.record(
                        now,
                        EventKind::LinkLoad {
                            dpid,
                            port: s.port_no,
                            tx_bytes: s.tx_bytes.saturating_sub(prev.0),
                            rx_bytes: s.rx_bytes.saturating_sub(prev.1),
                        },
                    );
                }
            }
            // Flow statistics arrive read in place (`Frame::FlowStats`).
            StatsBody::Flow(_) | StatsBody::Description { .. } => {}
        }
    }

    /// A flow-stats reply, reconciled if it answers an audit in flight.
    fn handle_flow_stats(&mut self, now: SimTime, dpid: u64, stats: FlowStatsRef<'_>) {
        let sw = self.topo.switch_mut(dpid);
        if sw.is_some_and(|sw| std::mem::take(&mut sw.auditing)) {
            self.reconcile(now, dpid, stats.iter());
        }
    }

    /// Declares a switch dead after its liveness timeout: its hosts
    /// depart (like SE expiry and port failure), flows entering there
    /// are dropped from the books, its topology state is removed, and
    /// every fast-pass goes with it (`detach`).
    fn mark_switch_down(&mut self, now: SimTime, dpid: u64) {
        self.health.switch_downs += 1;
        self.monitor.record(now, EventKind::SwitchDown { dpid });
        self.detach(now, dpid, None);
        // Flows that entered at the dead switch lost their ingress; no
        // FlowEnd — their counters died with the switch.
        let orphans: Vec<_> = self
            .active
            .iter()
            .filter(|(_, rec)| rec.ingress_dpid == dpid)
            .map(|(k, _)| *k)
            .collect();
        // `active` is a BTreeMap: the delete batches below run in
        // FlowKey order, identical run to run.
        for key in orphans {
            if let Some(rec) = self.retire_flow(&key, None) {
                // The programs span other switches; without this, their
                // mid-path entries would linger there as stale state no
                // audit covers (the surviving switches never reconnect,
                // so they are never reconciled). The dead switch's own
                // channel is gone.
                let idle = self.flow_idle_timeout;
                self.uninstall(rec.entries(idle).filter(|e| e.dpid != dpid));
            }
        }
        self.topo.remove_switch(dpid);
    }

    /// Starts a flow-table audit of a switch: one full flow-stats
    /// sweep; the reply is reconciled against the desired state in
    /// [`Controller::reconcile`]. The request is re-sent even when an
    /// audit is already marked in flight — the earlier request or its
    /// reply may itself have been lost to the very fault the audit is
    /// meant to repair, and a stuck `auditing` flag must never block
    /// the switch from ever being audited again.
    pub(crate) fn audit_switch(&mut self, dpid: u64) {
        let sw = self.topo.switch_mut(dpid);
        if sw.is_some_and(|sw| !std::mem::replace(&mut sw.auditing, true)) {
            self.health.audits += 1;
        }
        self.send_to_dpid(
            dpid,
            &OfMessage::StatsRequest(StatsRequestKind::Flow(Match::any())),
        );
    }

    /// The flow entries the controller believes `dpid` should hold, as
    /// `(matcher, priority, cookie)` — what the reconciliation audit
    /// enforces. Exposed so tests can compare against the switch's
    /// actual table.
    pub fn desired_entries(&self, dpid: u64) -> Vec<(Match, u16, u64)> {
        let mut v: Vec<(Match, u16, u64)> = self
            .desired_for(dpid)
            .map(|e| (e.matcher, e.priority, e.cookie))
            .collect();
        v.sort_by_key(|a| (a.1, a.0.to_string()));
        v
    }

    /// The desired flow-table state of one switch: the entries every
    /// active flow record and every fast-pass record puts there, then
    /// its standing blocks and its uplink guard.
    fn desired_for(&self, dpid: u64) -> impl Iterator<Item = Entry<'_>> {
        let flows = self
            .active
            .values()
            .flat_map(|rec| rec.entries(self.flow_idle_timeout));
        let fastpasses = self
            .fastpasses
            .values()
            .flat_map(|rec| rec.entries(self.fastpass_idle));
        // Blocks come from the standing registry, not the records: a
        // blocked flow's record retires once its (shadowed) steering
        // entries idle out, but the drop rule is security state that
        // must survive that — and survive switch restarts.
        // So does the guard, from the same record: it stands for the
        // uplink LLDP last named, even before a rejoined switch's
        // uplink is re-learned.
        let rec = self.datapaths.get(&dpid);
        let blocks = rec.into_iter().flat_map(|rec| &rec.blocks);
        let guard = rec.and_then(|rec| rec.guard);
        flows
            .chain(fastpasses)
            .filter(move |e| e.dpid == dpid)
            .chain(blocks.map(move |m| Entry::drop(dpid, *m, BLOCK_COOKIE, None)))
            .chain(guard.map(|port| Entry::guard(dpid, port)))
    }

    /// Compares a switch's reported flow table against the desired
    /// state and repairs the delta: stale entries (installed before the
    /// outage for flows since forgotten) are deleted, missing entries
    /// (desired state wiped by a crash) are reinstalled. Deny entries
    /// are skipped — the controller keeps no record of them and they
    /// self-expire.
    fn reconcile(&mut self, now: SimTime, dpid: u64, reported: impl Iterator<Item = FlowStats>) {
        // The reported keys, each marked once the desired state names
        // it, in a map kept between audits: an audit allocates for it
        // only when a table outgrows every table audited before.
        let mut have = std::mem::take(&mut self.audit_keys);
        have.clear();
        have.extend(
            reported
                .filter(|s| s.cookie != DENY_COOKIE)
                .map(|s| ((s.matcher, s.priority), false)),
        );
        let mut missing: Vec<(Match, u16, OfMessage)> = Vec::new();
        for e in self.desired_for(dpid) {
            match have.get_mut(&(e.matcher, e.priority)) {
                Some(wanted) => *wanted = true,
                None => missing.push((e.matcher, e.priority, e.add().to_message())),
            }
        }
        // Both sides come out of hash containers; sort the fix lists so
        // the flow-mod order (and any FlowRemoved notifications they
        // trigger) is identical across same-seed runs.
        let mut stale: Vec<(Match, u16)> = have
            .iter()
            .filter(|(_, wanted)| !**wanted)
            .map(|(k, _)| *k)
            .collect();
        self.audit_keys = have;
        stale.sort_by_key(|(m, p)| (*p, m.to_string()));
        missing.sort_by_key(|(m, p, _)| (*p, m.to_string()));
        let (removed, reinstalled) = (stale.len() as u64, missing.len() as u64);
        if let Some(node) = self.node_of(dpid) {
            for (matcher, priority) in &stale {
                self.tx.flow_mod(node, &delete_strict(matcher, *priority));
            }
            for (_, _, add) in &missing {
                self.tx.send(node, add);
            }
        }
        self.health.flows_removed += removed;
        self.health.flows_reinstalled += reinstalled;
        if removed + reinstalled > 0 {
            // Entries were missing or stale: packets hit the divergence
            // window honestly, so the drop sweep stays quiet.
            self.detector.note_turbulence(now);
            self.health.resyncs += 1;
            self.monitor.record(
                now,
                EventKind::Resync {
                    dpid,
                    removed,
                    reinstalled,
                },
            );
        }
    }

    /// Records a confirmed deviation and quarantines the convicted
    /// switch: its flow table is flushed (a fail-secure switch with an
    /// empty table forwards nothing), it is deregistered through the
    /// dead-switch path — hosts evicted, orphan flows dropped, mid-path
    /// entries cleaned up, every fast-pass torn down — and every
    /// further control message from it is dropped at the door so it
    /// cannot re-register until released.
    fn punish(&mut self, now: SimTime, dev: Deviation) {
        self.monitor.record(
            now,
            EventKind::PathProofViolated {
                flow: dev.flow,
                at_dpid: dev.dpid,
                deviation: dev.kind,
                expected: dev.expected,
                observed: dev.observed,
            },
        );
        if self.is_quarantined(dev.dpid) {
            return;
        }
        let (dpid, deviation) = (dev.dpid, dev.kind);
        self.monitor
            .record(now, EventKind::SwitchDeviating { dpid, deviation });
        let registered = self.topo.switch(dpid).is_some();
        match self.datapaths.get_mut(&dpid) {
            Some(rec) if registered => rec.quarantined = true,
            _ => return,
        }
        self.detector.note_quarantine();
        // Queue the flush while the dpid still resolves to a channel;
        // the batch is transmitted by the dispatch-level flush after
        // deregistration below.
        self.send_to_dpid(dpid, &OfMessage::delete_flows(Match::any()));
        self.mark_switch_down(now, dpid);
    }
}
