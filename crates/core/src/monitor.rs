//! Application-aware monitoring, visualization data, and replay
//! (paper §IV-C, §IV-D).
//!
//! Every network event the controller observes is recorded with its
//! timestamp. The paper renders these through a Flash WebUI backed by
//! a LAMP stack; here the [`Monitor`] is that data layer — events can
//! be queried live, serialized to JSON for an external UI, rendered as
//! text frames, and **replayed** over any historical window.
//!
//! An event is a time and a kind, nothing else: the feed a sharded
//! control plane records is byte for byte the unsharded controller's.

use livesec_net::{FlowKey, MacAddr};
use livesec_services::ServiceType;
use livesec_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// How a switch's observed forwarding deviated from the controller's
/// path proof (the accountability detector's classification).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DeviationKind {
    /// Attested up to some hop, then silence: the next switch on the
    /// proof dropped the packet.
    Drop,
    /// A hop forwarded out a different port than the proof prescribes.
    Detour,
    /// A switch attested (or carried) a flow the controller never
    /// admitted — no path proof exists for it.
    Injection,
    /// A hop's attestation names a different flow cookie than the
    /// proof, or its tag fails verification: the installed rule was
    /// altered behind the controller's back.
    Tamper,
}

impl DeviationKind {
    /// A short stable label (used in summaries and JSON).
    pub fn label(self) -> &'static str {
        match self {
            DeviationKind::Drop => "drop",
            DeviationKind::Detour => "detour",
            DeviationKind::Injection => "injection",
            DeviationKind::Tamper => "tamper",
        }
    }
}

/// What happened.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum EventKind {
    /// An AS switch connected to the controller.
    SwitchJoin {
        /// Its datapath id.
        dpid: u64,
    },
    /// A logical link between two AS switches was discovered via LLDP.
    LinkDiscovered {
        /// Source switch and port.
        from: (u64, u32),
        /// Destination switch and port.
        to: (u64, u32),
    },
    /// A host appeared (first ARP seen).
    UserJoin {
        /// The host's MAC.
        mac: MacAddr,
        /// The host's IP.
        ip: Ipv4Addr,
        /// Where it attached (datapath id, port).
        at: (u64, u32),
    },
    /// A host's location entry timed out or its port went down.
    UserLeave {
        /// The host's MAC.
        mac: MacAddr,
    },
    /// A host reappeared at a different switch/port (mobility).
    UserMoved {
        /// The host's MAC.
        mac: MacAddr,
        /// Previous location.
        from: (u64, u32),
        /// New location.
        to: (u64, u32),
    },
    /// A flow was admitted and its entries installed.
    FlowStart {
        /// The flow.
        flow: FlowKey,
        /// The service chain it was steered through (empty = direct).
        chain: Vec<ServiceType>,
        /// MACs of the service elements serving it, parallel to
        /// `chain`.
        elements: Vec<MacAddr>,
    },
    /// A flow's entries idled out.
    FlowEnd {
        /// The flow.
        flow: FlowKey,
        /// Packets it carried (from the ingress entry counters).
        packets: u64,
        /// Bytes it carried.
        bytes: u64,
    },
    /// A flow was denied by policy.
    FlowDenied {
        /// The flow.
        flow: FlowKey,
        /// The policy rule name, if a specific rule matched.
        rule: Option<String>,
    },
    /// A service element identified a flow's application protocol.
    AppIdentified {
        /// The flow.
        flow: FlowKey,
        /// The application label.
        app: String,
    },
    /// A service element detected an attack in a flow.
    AttackDetected {
        /// The flow.
        flow: FlowKey,
        /// Attack name from the SE report.
        attack: String,
        /// Severity 1..=10.
        severity: u8,
        /// The reporting element.
        element: MacAddr,
    },
    /// The controller blocked a flow at its ingress switch.
    FlowBlocked {
        /// The flow.
        flow: FlowKey,
        /// Why ("attack:...", "app-policy:...", "policy:...").
        reason: String,
        /// The ingress switch.
        at_dpid: u64,
    },
    /// A service element came online (first heartbeat).
    SeOnline {
        /// The element's MAC.
        mac: MacAddr,
        /// Its service type.
        service: ServiceType,
    },
    /// A service element went offline (missed heartbeats/port down).
    SeOffline {
        /// The element's MAC.
        mac: MacAddr,
    },
    /// Periodic load figures for one element.
    SeLoad {
        /// The element's MAC.
        mac: MacAddr,
        /// CPU percent.
        cpu: u8,
        /// Packets per interval.
        pps: u64,
        /// Bits per second.
        bps: u64,
    },
    /// A switch port went down or came back.
    PortChange {
        /// The switch.
        dpid: u64,
        /// The port.
        port: u32,
        /// `true` = up.
        up: bool,
    },
    /// Periodic per-link utilization (from port stats).
    LinkLoad {
        /// The switch.
        dpid: u64,
        /// The port.
        port: u32,
        /// Transmitted bytes since the previous sample.
        tx_bytes: u64,
        /// Received bytes since the previous sample.
        rx_bytes: u64,
    },
    /// A switch's secure channel went silent past the liveness timeout;
    /// the controller evicted its locations and routes.
    SwitchDown {
        /// The dead switch.
        dpid: u64,
    },
    /// A switch the controller had declared down re-established its
    /// secure channel.
    SwitchUp {
        /// The recovered switch.
        dpid: u64,
    },
    /// A reconnecting switch reported in after operating without a
    /// controller (it re-offered a hello, so by its own account it was
    /// running fail-secure).
    DegradedMode {
        /// The switch.
        dpid: u64,
    },
    /// A reconciliation audit found and fixed a flow-table delta.
    Resync {
        /// The audited switch.
        dpid: u64,
        /// Stale entries deleted.
        removed: u64,
        /// Missing entries reinstalled.
        reinstalled: u64,
    },
    /// A stateful firewall element confirmed a connection established.
    ConnEstablished {
        /// The connection's opening-direction flow.
        flow: FlowKey,
    },
    /// A tracked connection closed (teardown or idle expiry).
    ConnClosed {
        /// The connection's opening-direction flow.
        flow: FlowKey,
    },
    /// A service element reported a SYN flood from one source.
    SynFloodDetected {
        /// The flooding source address.
        src: Ipv4Addr,
        /// The attack label from the SE report.
        attack: String,
    },
    /// The controller installed an established-flow fast-pass: direct
    /// bidirectional entries that bypass the service-element hairpin.
    FastPassInstalled {
        /// The connection's opening-direction flow.
        flow: FlowKey,
    },
    /// A controller shard died (sharded control plane only; never
    /// emitted in a fault-free run).
    ShardDown {
        /// The shard that died.
        shard: u32,
    },
    /// A surviving shard adopted a dead shard's switch during shard
    /// failover (sharded control plane only).
    SwitchAdopted {
        /// The adopted switch.
        dpid: u64,
        /// The surviving shard that now owns it.
        by: u32,
    },
    /// A sampled attestation chain contradicted its path proof: the
    /// witness flow, the first deviating hop, and what was expected
    /// versus observed there.
    PathProofViolated {
        /// The witness flow (concrete header, ready to replay).
        flow: FlowKey,
        /// The first switch at which the observation left the proof.
        at_dpid: u64,
        /// The detector's classification.
        deviation: DeviationKind,
        /// The `(in_port, out_port, cookie)` the proof prescribes at
        /// that hop (all zero for injections, which have no proof).
        expected: (u32, u32, u64),
        /// The `(in_port, out_port, cookie)` the attestation swears to.
        observed: (u32, u32, u64),
    },
    /// The accountability detector localized a misbehaving switch and
    /// quarantined it (traffic re-steers around it via the switch-down
    /// reconciliation path).
    SwitchDeviating {
        /// The localized switch.
        dpid: u64,
        /// The deviation class that condemned it.
        deviation: DeviationKind,
    },
    /// The controller applied a batch of scoped policy deltas
    /// (DESIGN.md §14): counts of the edits and of the header classes
    /// whose fast-passes were invalidated.
    PolicyDeltaApplied {
        /// Rules inserted.
        adds: u64,
        /// Rules removed.
        removes: u64,
        /// Rules replaced in place.
        replaces: u64,
        /// Header-space cubes invalidated.
        classes: u64,
    },
    /// A features reply was refused: it claimed a datapath id other
    /// than the one its control channel is bound to, or one registered
    /// to another live channel. Nothing was registered.
    HandshakeRejected {
        /// The datapath id the reply carried.
        claimed: u64,
        /// The id the channel registered earlier, if it ever did.
        bound: Option<u64>,
    },
}

impl EventKind {
    /// A short type tag (stable across versions, used in summaries).
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::SwitchJoin { .. } => "switch_join",
            EventKind::LinkDiscovered { .. } => "link_discovered",
            EventKind::UserJoin { .. } => "user_join",
            EventKind::UserLeave { .. } => "user_leave",
            EventKind::UserMoved { .. } => "user_moved",
            EventKind::FlowStart { .. } => "flow_start",
            EventKind::FlowEnd { .. } => "flow_end",
            EventKind::FlowDenied { .. } => "flow_denied",
            EventKind::AppIdentified { .. } => "app_identified",
            EventKind::AttackDetected { .. } => "attack_detected",
            EventKind::FlowBlocked { .. } => "flow_blocked",
            EventKind::SeOnline { .. } => "se_online",
            EventKind::SeOffline { .. } => "se_offline",
            EventKind::SeLoad { .. } => "se_load",
            EventKind::PortChange { .. } => "port_change",
            EventKind::LinkLoad { .. } => "link_load",
            EventKind::SwitchDown { .. } => "switch_down",
            EventKind::SwitchUp { .. } => "switch_up",
            EventKind::DegradedMode { .. } => "degraded_mode",
            EventKind::Resync { .. } => "resync",
            EventKind::ConnEstablished { .. } => "conn_established",
            EventKind::ConnClosed { .. } => "conn_closed",
            EventKind::SynFloodDetected { .. } => "syn_flood_detected",
            EventKind::FastPassInstalled { .. } => "fast_pass_installed",
            EventKind::ShardDown { .. } => "shard_down",
            EventKind::SwitchAdopted { .. } => "switch_adopted",
            EventKind::PathProofViolated { .. } => "path_proof_violated",
            EventKind::SwitchDeviating { .. } => "switch_deviating",
            EventKind::PolicyDeltaApplied { .. } => "policy_delta_applied",
            EventKind::HandshakeRejected { .. } => "handshake_rejected",
        }
    }
}

/// One timestamped event.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct NetworkEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for NetworkEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {:?}", self.at, self.kind.tag(), self.kind)
    }
}

/// The event database backing live display and historical replay.
///
/// ```rust
/// use livesec::monitor::{EventKind, Monitor};
/// use livesec_sim::SimTime;
///
/// let mut m = Monitor::new();
/// m.record(SimTime::from_nanos(5), EventKind::SwitchJoin { dpid: 1 });
/// m.record(SimTime::from_nanos(9), EventKind::SwitchJoin { dpid: 2 });
/// // Replay any historical window.
/// let early: Vec<_> = m.replay(SimTime::ZERO, SimTime::from_nanos(6)).collect();
/// assert_eq!(early.len(), 1);
/// // Or fold it into a display frame.
/// assert_eq!(m.frame(SimTime::from_nanos(10)).switches.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Monitor {
    events: Vec<NetworkEvent>,
}

impl Monitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event.
    pub fn record(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(
            self.events.last().map(|e| e.at <= at).unwrap_or(true),
            "events must be recorded in time order"
        );
        self.events.push(NetworkEvent { at, kind });
    }

    /// All events, in time order.
    pub fn events(&self) -> &[NetworkEvent] {
        &self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays history: all events with `from <= at < to`, in order.
    /// This is the paper's "historical traffic replay" primitive.
    pub fn replay(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &NetworkEvent> {
        self.events
            .iter()
            .filter(move |e| e.at >= from && e.at < to)
    }

    /// Events of one type, in order.
    pub fn of_tag<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a NetworkEvent> + 'a {
        self.events.iter().filter(move |e| e.kind.tag() == tag)
    }

    /// Counts per event type.
    pub fn summary(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for e in &self.events {
            *out.entry(e.kind.tag()).or_insert(0) += 1;
        }
        out
    }

    /// Serializes every event as a JSON array — the feed a WebUI polls.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.events).unwrap_or_default()
    }

    /// The same feed as [`Monitor::to_json`]: events carry no shard
    /// tag to scrub. Kept only because the end-to-end benchmark's
    /// `history_hash` (`e2e/src/outcome.rs`) calls it.
    pub fn to_json_untagged(&self) -> String {
        self.to_json()
    }

    /// Parses a feed previously produced by [`Monitor::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error for malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        Ok(Monitor {
            events: serde_json::from_str(s)?,
        })
    }

    /// Folds all events up to `until` into a display frame — the
    /// state the paper's Flash WebUI would render at that instant
    /// (Figures 7 and 8). Calling this for increasing `until` values
    /// over a recorded history is exactly the paper's event replay.
    pub fn frame(&self, until: SimTime) -> UiFrame {
        let mut f = UiFrame {
            at: until,
            ..UiFrame::default()
        };
        for e in self.events.iter().take_while(|e| e.at <= until) {
            match &e.kind {
                EventKind::SwitchJoin { dpid } => {
                    f.switches.insert(*dpid);
                }
                EventKind::LinkDiscovered { from, to } => {
                    f.links.insert((from.0, to.0));
                }
                EventKind::UserJoin { mac, ip, at } => {
                    f.users.insert(
                        *mac,
                        UiUser {
                            mac: *mac,
                            ip: *ip,
                            at: *at,
                            app: None,
                        },
                    );
                }
                EventKind::UserMoved { mac, to, .. } => {
                    if let Some(u) = f.users.get_mut(mac) {
                        u.at = *to;
                    }
                }
                EventKind::UserLeave { mac } => {
                    f.users.remove(mac);
                    f.elements.remove(mac);
                }
                EventKind::AppIdentified { flow, app } => {
                    if let Some(u) = f.users.get_mut(&flow.dl_src) {
                        u.app = Some(app.clone());
                    }
                }
                EventKind::SeOnline { mac, service } => {
                    f.elements.insert(*mac, (*service, 0));
                    // Elements announce like hosts, but the WebUI shows
                    // them in their own pane, not as users.
                    f.users.remove(mac);
                }
                EventKind::SeOffline { mac } => {
                    f.elements.remove(mac);
                }
                EventKind::SeLoad { mac, cpu, .. } => {
                    if let Some(entry) = f.elements.get_mut(mac) {
                        entry.1 = *cpu;
                    }
                }
                EventKind::AttackDetected { flow, attack, .. } => {
                    f.alerts.push(format!("{attack} from {}", flow.nw_src));
                }
                EventKind::FlowBlocked { flow, reason, .. } => {
                    f.alerts.push(format!("blocked {} ({reason})", flow.nw_src));
                }
                EventKind::LinkLoad {
                    dpid,
                    port,
                    tx_bytes,
                    rx_bytes,
                } => {
                    f.link_load.insert((*dpid, *port), (*tx_bytes, *rx_bytes));
                }
                EventKind::SwitchDown { dpid } => {
                    f.switches.remove(dpid);
                }
                EventKind::SwitchUp { dpid } => {
                    f.switches.insert(*dpid);
                }
                EventKind::ConnEstablished { .. } => {
                    f.established_conns += 1;
                }
                EventKind::ConnClosed { .. } => {
                    f.established_conns = f.established_conns.saturating_sub(1);
                }
                EventKind::SynFloodDetected { src, attack } => {
                    f.alerts.push(format!("{attack} ({src})"));
                }
                EventKind::FastPassInstalled { .. } => {
                    f.fastpasses += 1;
                }
                _ => {}
            }
        }
        f
    }
}

/// Counters of the flow-setup path (set-ups and batched flow-mod
/// emission), kept beside the event feed so they are observable
/// without changing the event log itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Always 0: the controller keeps no decision cache. Kept because
    /// the end-to-end benchmark reads it as `core.cache.hits`.
    pub hits: u64,
    /// Always 0; kept because the end-to-end benchmark reads it as
    /// `core.cache.misses`.
    pub misses: u64,
    /// Always 0; kept because the end-to-end benchmark reads it as
    /// `core.cache.entries`.
    pub entries: u64,
    /// Flow setups completed (steering programs installed).
    pub flow_setups: u64,
    /// Control-channel payloads flushed (one per switch per event).
    pub batches_flushed: u64,
    /// Messages that went out inside batches.
    pub messages_batched: u64,
    /// Largest number of messages in one batch.
    pub max_batch_len: u64,
}

/// Control-plane health counters — the observable surface of the
/// fault-tolerance layer (liveness probing, dead-switch handling, and
/// flow-table reconciliation). Returned by `Controller::health_stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Echo requests the controller sent to probe switch liveness.
    pub echo_probes_sent: u64,
    /// Echo replies received back from switches.
    pub echo_replies_seen: u64,
    /// Switches declared dead (liveness timeout exceeded).
    pub switch_downs: u64,
    /// Formerly-dead switches that re-established their channel.
    pub switch_ups: u64,
    /// Reconnecting switches that reported in after running degraded.
    pub degraded_reports: u64,
    /// Flow-table audits started (one stats sweep each).
    pub audits: u64,
    /// Audits that found and fixed a nonzero delta.
    pub resyncs: u64,
    /// Stale flow entries deleted by reconciliation.
    pub flows_removed: u64,
    /// Missing flow entries reinstalled by reconciliation.
    pub flows_reinstalled: u64,
    /// Flows whose entries were reinstalled from the data path: a
    /// packet-in for an already-installed flow, past the race window,
    /// means the switch lost the entries to a control-channel fault
    /// too short for the liveness timeout to notice.
    pub flow_repairs: u64,
    /// Switches currently registered (secure channel up).
    pub switches_online: u64,
    /// Distinct switches ever seen by this controller.
    pub switches_known: u64,
}

/// Counters of the connection-tracking / stateful-enforcement layer —
/// established reports, SYN floods, and the established-flow fast-pass
/// (direct entries bypassing the SE hairpin). Returned by
/// `Controller::conntrack_stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnTrackStats {
    /// `ConnEstablished` reports accepted from service elements.
    pub established: u64,
    /// `ConnClosed` reports accepted from service elements.
    pub closed: u64,
    /// SYN floods reported (one per flooding source per episode).
    pub syn_floods: u64,
    /// Fast-pass entry pairs installed.
    pub fastpass_installed: u64,
    /// Fast-pass entry pairs currently standing.
    pub fastpass_active: u64,
    /// Fast-passes torn down (conn close, expiry, or invalidation).
    pub fastpass_removed: u64,
    /// Fast-passes invalidated by a policy or topology change.
    pub fastpass_invalidated: u64,
    /// Bytes that traversed fast-pass entries instead of the SE
    /// hairpin (from FlowRemoved counters as the entries retire).
    pub fastpass_bytes: u64,
}

/// One user row of a [`UiFrame`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UiUser {
    /// The user's MAC.
    pub mac: MacAddr,
    /// The user's IP.
    pub ip: Ipv4Addr,
    /// Attachment point.
    pub at: (u64, u32),
    /// Most recently identified application, if any.
    pub app: Option<String>,
}

/// The network state a WebUI would render at one instant.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct UiFrame {
    /// The instant this frame reflects.
    pub at: SimTime,
    /// Known switches (datapath ids).
    pub switches: std::collections::BTreeSet<u64>,
    /// Discovered logical links (switch pairs).
    pub links: std::collections::BTreeSet<(u64, u64)>,
    /// Present users/hosts.
    pub users: BTreeMap<MacAddr, UiUser>,
    /// Online service elements with their latest CPU load.
    pub elements: BTreeMap<MacAddr, (ServiceType, u8)>,
    /// Attack/blocking alerts so far.
    pub alerts: Vec<String>,
    /// Latest per-port byte deltas.
    pub link_load: BTreeMap<(u64, u32), (u64, u64)>,
    /// Connections currently confirmed established (stateful firewall).
    pub established_conns: u64,
    /// Established-flow fast-passes installed so far.
    pub fastpasses: u64,
}

impl fmt::Display for UiFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== LiveSec WebUI frame @ {} ==", self.at)?;
        writeln!(
            f,
            "switches: {:?}  logical links: {}",
            self.switches,
            self.links.len()
        )?;
        writeln!(f, "users ({}):", self.users.len())?;
        for u in self.users.values() {
            writeln!(
                f,
                "  {} ({}) @ switch {} port {}  app={}",
                u.mac,
                u.ip,
                u.at.0,
                u.at.1,
                u.app.as_deref().unwrap_or("-")
            )?;
        }
        writeln!(f, "service elements ({}):", self.elements.len())?;
        for (mac, (service, cpu)) in &self.elements {
            writeln!(f, "  {mac}  {service}  cpu={cpu}%")?;
        }
        if self.established_conns > 0 || self.fastpasses > 0 {
            writeln!(
                f,
                "conntrack: {} established, {} fast-passes installed",
                self.established_conns, self.fastpasses
            )?;
        }
        if !self.alerts.is_empty() {
            writeln!(f, "alerts:")?;
            for a in &self.alerts {
                writeln!(f, "  !! {a}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn sample_flow() -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "8.8.8.8".parse().unwrap(),
            nw_proto: 6,
            tp_src: 555,
            tp_dst: 80,
        }
    }

    fn sample_monitor() -> Monitor {
        let mut m = Monitor::new();
        m.record(t(0), EventKind::SwitchJoin { dpid: 1 });
        m.record(
            t(10),
            EventKind::UserJoin {
                mac: MacAddr::from_u64(1),
                ip: "10.0.0.1".parse().unwrap(),
                at: (1, 2),
            },
        );
        m.record(
            t(20),
            EventKind::FlowStart {
                flow: sample_flow(),
                chain: vec![ServiceType::IntrusionDetection],
                elements: vec![MacAddr::from_u64(0xfe)],
            },
        );
        m.record(
            t(30),
            EventKind::AttackDetected {
                flow: sample_flow(),
                attack: "WEB-MISC /etc/passwd access".into(),
                severity: 8,
                element: MacAddr::from_u64(0xfe),
            },
        );
        m.record(
            t(31),
            EventKind::FlowBlocked {
                flow: sample_flow(),
                reason: "attack:WEB-MISC /etc/passwd access".into(),
                at_dpid: 1,
            },
        );
        m.record(
            t(40),
            EventKind::UserLeave {
                mac: MacAddr::from_u64(1),
            },
        );
        m
    }

    #[test]
    fn replay_window_is_half_open() {
        let m = sample_monitor();
        let replayed: Vec<_> = m.replay(t(10), t(31)).collect();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[0].kind.tag(), "user_join");
        assert_eq!(replayed[2].kind.tag(), "attack_detected");
    }

    #[test]
    fn full_replay_equals_live() {
        let m = sample_monitor();
        let replayed: Vec<_> = m.replay(SimTime::ZERO, t(1_000_000)).cloned().collect();
        assert_eq!(replayed, m.events().to_vec());
    }

    #[test]
    fn summary_counts() {
        let m = sample_monitor();
        let s = m.summary();
        assert_eq!(s["user_join"], 1);
        assert_eq!(s["attack_detected"], 1);
        assert_eq!(s["flow_blocked"], 1);
        assert_eq!(s.values().sum::<usize>(), m.len());
    }

    #[test]
    fn json_roundtrip() {
        let m = sample_monitor();
        let json = m.to_json();
        let back = Monitor::from_json(&json).unwrap();
        assert_eq!(back, m);
        assert!(json.contains("attack_detected") || json.contains("AttackDetected"));
    }

    #[test]
    fn of_tag_filters() {
        let m = sample_monitor();
        assert_eq!(m.of_tag("flow_start").count(), 1);
        assert_eq!(m.of_tag("se_load").count(), 0);
    }

    #[test]
    fn display_is_nonempty() {
        let m = sample_monitor();
        for e in m.events() {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn frame_folds_state() {
        let m = sample_monitor();
        // Before the user joined.
        let f0 = m.frame(t(5));
        assert_eq!(f0.switches.len(), 1);
        assert!(f0.users.is_empty());
        // After join, before leave.
        let f1 = m.frame(t(35));
        assert_eq!(f1.users.len(), 1);
        assert_eq!(f1.alerts.len(), 2, "attack + block alerts");
        // After leave.
        let f2 = m.frame(t(100));
        assert!(f2.users.is_empty());
        // Frames render non-empty text.
        assert!(f1.to_string().contains("alerts"));
        assert!(f1.to_string().contains("users (1)"));
    }

    #[test]
    fn frame_tracks_app_and_se_state() {
        let mut m = Monitor::new();
        m.record(
            t(0),
            EventKind::UserJoin {
                mac: MacAddr::from_u64(1),
                ip: "10.0.0.1".parse().unwrap(),
                at: (1, 2),
            },
        );
        m.record(
            t(1),
            EventKind::SeOnline {
                mac: MacAddr::from_u64(9),
                service: ServiceType::ProtocolIdentification,
            },
        );
        m.record(
            t(2),
            EventKind::SeLoad {
                mac: MacAddr::from_u64(9),
                cpu: 55,
                pps: 10,
                bps: 20,
            },
        );
        let mut flow = sample_flow();
        flow.dl_src = MacAddr::from_u64(1);
        m.record(
            t(3),
            EventKind::AppIdentified {
                flow,
                app: "ssh".into(),
            },
        );
        let f = m.frame(t(10));
        assert_eq!(f.users[&MacAddr::from_u64(1)].app.as_deref(), Some("ssh"));
        assert_eq!(
            f.elements[&MacAddr::from_u64(9)],
            (ServiceType::ProtocolIdentification, 55)
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time order")]
    fn out_of_order_recording_panics_in_debug() {
        let mut m = Monitor::new();
        m.record(t(10), EventKind::SwitchJoin { dpid: 1 });
        m.record(t(5), EventKind::SwitchJoin { dpid: 2 });
    }
}
