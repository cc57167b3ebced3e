//! Inspection engines: the security functions service elements run.
//!
//! Each engine implements [`Inspector`]: given a flow key and a packet
//! payload, it may produce a [`Finding`]. The engines substitute for
//! the paper's ported open-source tools — [`IdsEngine`] for Snort,
//! [`ProtoIdEngine`] for Linux L7-filter — with the same interface
//! contract: scan the first packets of a flow, raise an event report
//! when a result is produced.

use crate::aho::AhoCorasick;
use crate::msg::{ServiceType, Verdict};
use livesec_conntrack::{ConnEvent, ConnKey, ConnTable, ConnTimeouts, PacketState};
use livesec_net::{FixedState, FlowKey, Ipv4Net, Packet, SessionKey};
use livesec_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Severity of a finding, 1 (informational) to 10 (critical).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Severity(pub u8);

impl Severity {
    /// Clamps to the 1..=10 range.
    pub fn new(v: u8) -> Self {
        Severity(v.clamp(1, 10))
    }
}

/// A detection/identification result produced by an engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// The flow the finding concerns.
    pub flow: FlowKey,
    /// What to tell the controller.
    pub verdict: Verdict,
}

/// A packet-inspection engine.
pub trait Inspector: 'static {
    /// The service type this engine provides (for online messages).
    fn service(&self) -> ServiceType;

    /// Inspects one packet of a flow. Returns a finding the SE should
    /// report, or `None`. Engines are responsible for deduplicating
    /// per-flow reports.
    fn inspect(&mut self, flow: &FlowKey, payload: &[u8]) -> Option<Finding>;

    /// Inspects one full packet with the simulation clock available.
    /// Stateful engines (connection tracking) override this; the
    /// default extracts the transport payload and delegates to
    /// [`Inspector::inspect`].
    fn inspect_packet(&mut self, flow: &FlowKey, pkt: &Packet, _now: SimTime) -> Option<Finding> {
        let payload = pkt
            .ipv4()
            .and_then(|ip| ip.transport.payload())
            .map(|p| p.content())
            .unwrap_or(&[]);
        self.inspect(flow, payload)
    }

    /// Periodic housekeeping, driven off the SE's report timer.
    /// Stateful engines use it to expire idle connection state and
    /// report the resulting findings (e.g. `ConnClosed` for fast-passed
    /// flows whose packets no longer traverse the element).
    fn poll(&mut self, _now: SimTime) -> Vec<Finding> {
        Vec::new()
    }

    /// Relative per-byte processing cost multiplier (1.0 = baseline).
    /// Protocol identification is cheaper per byte than deep signature
    /// scanning once a flow is classified; engines can refine this.
    fn cost_factor(&self) -> f64 {
        1.0
    }
}

/// One IDS rule: a byte pattern plus metadata and optional header
/// constraints (the subset of a Snort rule header the engines honor).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdsRule {
    /// Stable rule identifier.
    pub id: u32,
    /// Human-readable rule name, reported in events.
    pub name: String,
    /// The byte pattern that triggers the rule.
    pub pattern: Vec<u8>,
    /// Severity reported with the finding.
    pub severity: Severity,
    /// IP protocol constraint (`None` = any).
    pub proto: Option<u8>,
    /// Source prefix constraint.
    pub src: Option<Ipv4Net>,
    /// Destination prefix constraint.
    pub dst: Option<Ipv4Net>,
    /// Source port constraint.
    pub src_port: Option<u16>,
    /// Destination port constraint.
    pub dst_port: Option<u16>,
}

impl IdsRule {
    /// Creates a content-only rule (no header constraints).
    pub fn new(id: u32, name: &str, pattern: &[u8], severity: Severity) -> Self {
        IdsRule {
            id,
            name: name.to_owned(),
            pattern: pattern.to_vec(),
            severity,
            proto: None,
            src: None,
            dst: None,
            src_port: None,
            dst_port: None,
        }
    }

    /// Whether the rule's header constraints accept `flow`.
    pub fn header_matches(&self, flow: &FlowKey) -> bool {
        self.proto.map(|p| p == flow.nw_proto).unwrap_or(true)
            && self.src.map(|n| n.contains(flow.nw_src)).unwrap_or(true)
            && self.dst.map(|n| n.contains(flow.nw_dst)).unwrap_or(true)
            && self.src_port.map(|p| p == flow.tp_src).unwrap_or(true)
            && self.dst_port.map(|p| p == flow.tp_dst).unwrap_or(true)
    }
}

/// A generic multi-signature scanning engine over payload bytes.
///
/// [`IdsEngine`], [`VirusScanEngine`] and [`ContentInspectionEngine`]
/// are this engine with different rule sets and verdict kinds.
#[derive(Debug, Clone)]
pub struct SignatureEngine {
    service: ServiceType,
    rules: Vec<IdsRule>,
    ac: AhoCorasick,
    reported: HashSet<(SessionKey, u32), FixedState>,
    /// One bit per rule: judged (vetoed or already reported) in the
    /// payload under inspection. All clear between payloads.
    judged: Vec<u64>,
    /// Total findings produced (diagnostics).
    pub findings: u64,
    policy_verdict: bool,
}

impl SignatureEngine {
    /// Builds an engine from rules, reporting malicious verdicts.
    pub fn new(service: ServiceType, rules: Vec<IdsRule>) -> Self {
        let ac = AhoCorasick::new(
            &rules
                .iter()
                .map(|r| r.pattern.as_slice())
                .collect::<Vec<_>>(),
        );
        SignatureEngine {
            service,
            judged: vec![0; rules.len().div_ceil(64)],
            rules,
            ac,
            reported: HashSet::default(),
            findings: 0,
            policy_verdict: false,
        }
    }

    /// Reports findings as policy violations instead of attacks
    /// (content-inspection semantics).
    pub fn with_policy_verdicts(mut self) -> Self {
        self.policy_verdict = true;
        self
    }

    /// The rule set.
    pub fn rules(&self) -> &[IdsRule] {
        &self.rules
    }
}

/// Whether `rule` accepts the header of `flow` and has not been
/// reported on its session, which it now is. Out of line: it runs once
/// per rule and payload, the scan callback around it once per hit.
#[inline(never)]
fn first_report(
    rule: &IdsRule,
    flow: &FlowKey,
    reported: &mut HashSet<(SessionKey, u32), FixedState>,
) -> bool {
    rule.header_matches(flow) && reported.insert((flow.session(), rule.id))
}

impl Inspector for SignatureEngine {
    fn service(&self) -> ServiceType {
        self.service
    }

    fn inspect(&mut self, flow: &FlowKey, payload: &[u8]) -> Option<Finding> {
        if payload.is_empty() {
            return None;
        }
        // First content hit whose rule also accepts the flow header and
        // has not been reported on this session; the scan stops there.
        // A rule is judged once per payload, so a payload dense with a
        // signature that cannot be reported costs one probe of
        // `reported`, not one per hit.
        let (rules, reported, judged) = (&self.rules, &mut self.reported, &mut self.judged);
        let mut found = None;
        // The rule of the previous hit, which `judged` covers too: a run
        // (a hit per byte of one signature) then costs one compare a hit.
        let mut last = usize::MAX;
        self.ac.scan(payload, |hit| {
            let (word, bit) = (hit.pattern / 64, 1u64 << (hit.pattern % 64));
            if hit.pattern == last || judged[word] & bit != 0 {
                return false;
            }
            last = hit.pattern;
            judged[word] |= bit;
            let rule = &rules[hit.pattern];
            found = first_report(rule, flow, reported).then_some(rule);
            found.is_some()
        });
        judged.fill(0);
        let rule = found?;
        self.findings += 1;
        let verdict = if self.policy_verdict {
            Verdict::PolicyViolation {
                policy: rule.name.clone(),
            }
        } else {
            Verdict::Malicious {
                attack: rule.name.clone(),
                severity: rule.severity.0,
            }
        };
        Some(Finding {
            flow: *flow,
            verdict,
        })
    }
}

/// The Snort-substitute intrusion detection engine.
#[derive(Debug, Clone)]
pub struct IdsEngine;

impl IdsEngine {
    /// The default rule set: a small Snort-flavored collection covering
    /// the attack classes the paper's deployment detected (malicious
    /// web access, shellcode, scans, injection).
    pub fn default_rules() -> Vec<IdsRule> {
        let mk = |id, name: &str, pattern: &[u8], sev| {
            IdsRule::new(id, name, pattern, Severity::new(sev))
        };
        vec![
            mk(1001, "WEB-MISC /etc/passwd access", b"/etc/passwd", 8),
            mk(1002, "WEB-IIS cmd.exe access", b"cmd.exe", 8),
            mk(1003, "SHELLCODE x86 NOP sled", &[0x90; 16], 9),
            mk(1004, "SQL injection attempt", b"' OR '1'='1", 7),
            mk(1005, "XSS script injection", b"<script>alert(", 6),
            mk(1006, "EXPLOIT buffer overflow marker", b"\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41", 9),
            mk(1007, "MALWARE beacon marker", b"botnet-c2-checkin", 10),
            mk(1008, "SCAN nmap probe", b"nmap scripting engine", 3),
            mk(1009, "BACKDOOR shell prompt", b"uid=0(root) gid=0(root)", 9),
            mk(1010, "TROJAN download marker", b"MZ\x90\x00\x03\x00\x00\x00\x04", 7),
        ]
    }

    /// Builds the engine with [`IdsEngine::default_rules`].
    pub fn engine() -> SignatureEngine {
        SignatureEngine::new(ServiceType::IntrusionDetection, Self::default_rules())
    }
}

/// The virus-scanning engine: signature scanning with a malware-
/// flavored rule set (including the EICAR test string).
#[derive(Debug, Clone)]
pub struct VirusScanEngine;

impl VirusScanEngine {
    /// Default malware signatures.
    pub fn default_rules() -> Vec<IdsRule> {
        let mk = |id, name: &str, pattern: &[u8], sev| {
            IdsRule::new(id, name, pattern, Severity::new(sev))
        };
        vec![
            mk(
                2001,
                "EICAR test file",
                b"X5O!P%@AP[4\\PZX54(P^)7CC)7}$EICAR",
                10,
            ),
            mk(
                2002,
                "PE dropper stub",
                b"This program cannot be run in DOS mode",
                6,
            ),
            mk(2003, "Macro virus marker", b"AutoOpen\x00Macro", 7),
            mk(
                2004,
                "Ransom note marker",
                b"YOUR FILES HAVE BEEN ENCRYPTED",
                10,
            ),
        ]
    }

    /// Builds the engine.
    pub fn engine() -> SignatureEngine {
        SignatureEngine::new(ServiceType::VirusScan, Self::default_rules())
    }
}

/// The content-inspection engine: DLP-style keyword policies, reported
/// as policy violations.
#[derive(Debug, Clone)]
pub struct ContentInspectionEngine;

impl ContentInspectionEngine {
    /// Default data-loss-prevention keyword set.
    pub fn default_rules() -> Vec<IdsRule> {
        let mk = |id, name: &str, pattern: &[u8]| IdsRule::new(id, name, pattern, Severity::new(5));
        vec![
            mk(3001, "DLP: internal-only marker", b"INTERNAL USE ONLY"),
            mk(3002, "DLP: credential material", b"BEGIN RSA PRIVATE KEY"),
            mk(3003, "DLP: payment card track data", b";?<card-track-2>?"),
        ]
    }

    /// Builds the engine.
    pub fn engine() -> SignatureEngine {
        SignatureEngine::new(ServiceType::ContentInspection, Self::default_rules())
            .with_policy_verdicts()
    }
}

/// The L7-filter-substitute protocol identification engine.
///
/// Classifies flows by payload prefix patterns (and a port fallback),
/// reporting each connection's application once. The packet path keeps
/// a connection-tracking table and classifies from the reassembled
/// first bytes of *both* directions, so server-banner protocols (SMTP,
/// SSH) identify even when the client speaks first with an
/// unrecognizable payload.
#[derive(Debug, Clone)]
pub struct ProtoIdEngine {
    identified: HashSet<SessionKey, FixedState>,
    conntrack: ConnTable,
    conn_identified: HashSet<ConnKey, FixedState>,
    /// Sessions identified so far (diagnostics).
    pub identifications: u64,
}

impl ProtoIdEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        ProtoIdEngine {
            identified: HashSet::default(),
            conntrack: ConnTable::new(),
            conn_identified: HashSet::default(),
            identifications: 0,
        }
    }

    /// Classifies a single payload (stateless helper): the application
    /// label, or `None` if unrecognized.
    pub fn classify(payload: &[u8], tp_src: u16, tp_dst: u16) -> Option<&'static str> {
        if payload.starts_with(b"GET ")
            || payload.starts_with(b"POST ")
            || payload.starts_with(b"PUT ")
            || payload.starts_with(b"HEAD ")
            || payload.starts_with(b"HTTP/1.")
        {
            return Some("http");
        }
        if payload.starts_with(b"SSH-2.0") || payload.starts_with(b"SSH-1.") {
            return Some("ssh");
        }
        if payload.first() == Some(&0x13) && payload[1..].starts_with(b"BitTorrent protocol") {
            return Some("bittorrent");
        }
        if payload.starts_with(b"220 ") && payload.windows(4).any(|w| w == b"SMTP") {
            return Some("smtp");
        }
        if payload.starts_with(b"EHLO") || payload.starts_with(b"HELO") {
            return Some("smtp");
        }
        if payload.starts_with(b"\x16\x03") {
            return Some("tls");
        }
        if tp_dst == 53 || tp_src == 53 {
            return Some("dns");
        }
        None
    }
}

impl Default for ProtoIdEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl Inspector for ProtoIdEngine {
    fn service(&self) -> ServiceType {
        ServiceType::ProtocolIdentification
    }

    fn inspect(&mut self, flow: &FlowKey, payload: &[u8]) -> Option<Finding> {
        let session = flow.session();
        if self.identified.contains(&session) {
            return None;
        }
        let app = Self::classify(payload, flow.tp_src, flow.tp_dst)?;
        self.identified.insert(session);
        self.identifications += 1;
        Some(Finding {
            flow: *flow,
            verdict: Verdict::Application {
                app: app.to_owned(),
            },
        })
    }

    fn inspect_packet(&mut self, flow: &FlowKey, pkt: &Packet, now: SimTime) -> Option<Finding> {
        let payload = pkt
            .ipv4()
            .and_then(|ip| ip.transport.payload())
            .map(|p| p.content())
            .unwrap_or(&[]);
        let flags = pkt.tcp().map(|t| t.flags);
        let obs = self.conntrack.observe(flow, flags, payload, now);
        if self.conn_identified.contains(&obs.key) {
            return None;
        }
        // Classify from the reassembled heads of both directions, not
        // just this packet: a client whose first bytes say nothing
        // still identifies once the server banner (SMTP "220", SSH
        // version string) arrives in the reply head.
        let conn = self.conntrack.get(&obs.key)?;
        let first = *conn.first_key();
        let (orig, reply) = conn.heads();
        let app = Self::classify(orig, first.tp_src, first.tp_dst)
            .or_else(|| Self::classify(reply, first.tp_dst, first.tp_src))?;
        self.conn_identified.insert(obs.key);
        self.identifications += 1;
        Some(Finding {
            flow: first,
            verdict: Verdict::Application {
                app: app.to_owned(),
            },
        })
    }

    fn poll(&mut self, now: SimTime) -> Vec<Finding> {
        for gone in self.conntrack.expire(now) {
            self.conn_identified.remove(&gone.key);
        }
        Vec::new()
    }

    fn cost_factor(&self) -> f64 {
        // Pattern checks on flow heads only: cheaper than full
        // signature scanning, reflected in the paper's lower aggregate
        // (2 Gbps vs 8 Gbps for IDS at equal VM counts is a capacity
        // configuration; see DESIGN.md E3).
        1.0
    }
}

/// Firewall action for a matched rule.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FwAction {
    /// Let the flow pass.
    Allow,
    /// Let the flow pass, and once its connection reaches an
    /// established state report `ConnEstablished` so the controller can
    /// install an inspection-bypassing fast-pass.
    AllowEstablished,
    /// Report the flow for blocking.
    Deny,
}

impl FwAction {
    fn is_deny(self) -> bool {
        self == FwAction::Deny
    }
}

/// Connection-state qualifier a stateful rule can match on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum StateMatch {
    /// Packets opening a connection (original direction, not yet
    /// established).
    New,
    /// Packets of a tracked connection (replies, or any direction once
    /// established).
    Established,
    /// Packets matching no admissible connection.
    Invalid,
}

impl StateMatch {
    fn admits(self, ps: PacketState) -> bool {
        matches!(
            (self, ps),
            (StateMatch::New, PacketState::New)
                | (StateMatch::Established, PacketState::Established)
                | (StateMatch::Invalid, PacketState::Invalid)
        )
    }
}

/// One firewall rule over flow-key fields; `None` = any.
///
/// Rules are evaluated **first-match-wins**: the first rule whose every
/// constraint accepts the packet decides the action, and later rules
/// are never consulted. A rule chain where an earlier rule fully covers
/// a later one (the later rule is *shadowed* and can never fire) is
/// rejected at construction — see [`FirewallEngine::try_new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FwRule {
    /// Rule name, reported on deny.
    pub name: String,
    /// Source prefix constraint.
    pub src: Option<Ipv4Net>,
    /// Destination prefix constraint.
    pub dst: Option<Ipv4Net>,
    /// IP protocol constraint.
    pub proto: Option<u8>,
    /// Destination port constraint.
    pub dst_port: Option<u16>,
    /// Connection-state qualifier (stateful matching).
    pub state: Option<StateMatch>,
    /// What to do on match.
    pub action: FwAction,
}

impl FwRule {
    /// A rule matching anything, with the given action. Narrow it with
    /// the builder methods.
    pub fn any(name: &str, action: FwAction) -> Self {
        FwRule {
            name: name.to_owned(),
            src: None,
            dst: None,
            proto: None,
            dst_port: None,
            state: None,
            action,
        }
    }

    /// An allow rule matching anything.
    pub fn allow(name: &str) -> Self {
        Self::any(name, FwAction::Allow)
    }

    /// An allow rule that also admits the connection to the
    /// established-flow fast-pass.
    pub fn allow_established(name: &str) -> Self {
        Self::any(name, FwAction::AllowEstablished)
    }

    /// A deny rule matching anything (useful as a default-deny tail).
    pub fn deny_all(name: &str) -> Self {
        Self::any(name, FwAction::Deny)
    }

    /// Constrains the source prefix.
    pub fn src(mut self, net: Ipv4Net) -> Self {
        self.src = Some(net);
        self
    }

    /// Constrains the destination prefix.
    pub fn dst(mut self, net: Ipv4Net) -> Self {
        self.dst = Some(net);
        self
    }

    /// Constrains the IP protocol.
    pub fn proto(mut self, proto: u8) -> Self {
        self.proto = Some(proto);
        self
    }

    /// Constrains the destination port.
    pub fn dst_port(mut self, port: u16) -> Self {
        self.dst_port = Some(port);
        self
    }

    /// Constrains the connection state.
    pub fn state(mut self, state: StateMatch) -> Self {
        self.state = Some(state);
        self
    }

    fn matches(&self, flow: &FlowKey, ps: PacketState) -> bool {
        self.src.map(|n| n.contains(flow.nw_src)).unwrap_or(true)
            && self.dst.map(|n| n.contains(flow.nw_dst)).unwrap_or(true)
            && self.proto.map(|p| p == flow.nw_proto).unwrap_or(true)
            && self.dst_port.map(|p| p == flow.tp_dst).unwrap_or(true)
            && self.state.map(|s| s.admits(ps)).unwrap_or(true)
    }

    /// Whether every packet this rule's successor `other` could match
    /// is already matched by `self` (i.e. `other` is shadowed).
    fn covers(&self, other: &FwRule) -> bool {
        fn net_covers(a: Option<Ipv4Net>, b: Option<Ipv4Net>) -> bool {
            match (a, b) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(a), Some(b)) => a.contains_net(&b),
            }
        }
        fn eq_covers<T: PartialEq>(a: &Option<T>, b: &Option<T>) -> bool {
            match (a, b) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(a), Some(b)) => a == b,
            }
        }
        net_covers(self.src, other.src)
            && net_covers(self.dst, other.dst)
            && eq_covers(&self.proto, &other.proto)
            && eq_covers(&self.dst_port, &other.dst_port)
            && eq_covers(&self.state, &other.state)
    }
}

/// A first-match firewall engine with connection tracking.
///
/// Evaluation is strictly **first-match-wins** over the rule chain;
/// packets of established connections that no rule claims are admitted
/// (reverse-flow admission — the stateful-firewall semantic that lets
/// "allow outbound web" imply "allow the replies"). The engine also
/// watches for SYN floods: once a single source holds more than the
/// configured number of half-open connections it is reported as
/// malicious, once.
#[derive(Debug, Clone)]
pub struct FirewallEngine {
    rules: Vec<FwRule>,
    default_action: FwAction,
    conntrack: ConnTable,
    syn_flood_threshold: u32,
    reported: HashSet<SessionKey, FixedState>,
    established_reported: HashSet<ConnKey, FixedState>,
    flood_reported: HashSet<Ipv4Addr, FixedState>,
    /// Flows denied so far (diagnostics).
    pub denials: u64,
    /// SYN floods reported so far (diagnostics).
    pub floods_detected: u64,
}

impl FirewallEngine {
    /// Creates a firewall with the given rule chain and default action.
    ///
    /// # Panics
    ///
    /// Panics if the chain contains a shadowed rule (see
    /// [`FirewallEngine::try_new`]).
    pub fn new(rules: Vec<FwRule>, default_action: FwAction) -> Self {
        match Self::try_new(rules, default_action) {
            Ok(fw) => fw,
            Err(e) => panic!("invalid firewall rule chain: {e}"),
        }
    }

    /// Creates a firewall, rejecting chains where a broader earlier
    /// rule fully covers a later one: under first-match-wins the later
    /// rule could never fire, which is almost always a configuration
    /// mistake (classically, a default-deny placed *before* the
    /// allows).
    pub fn try_new(rules: Vec<FwRule>, default_action: FwAction) -> Result<Self, String> {
        for (i, earlier) in rules.iter().enumerate() {
            for later in &rules[i + 1..] {
                if earlier.covers(later) {
                    return Err(format!(
                        "rule \"{}\" is shadowed by earlier rule \"{}\" and can never match",
                        later.name, earlier.name
                    ));
                }
            }
        }
        Ok(FirewallEngine {
            rules,
            default_action,
            conntrack: ConnTable::new(),
            syn_flood_threshold: 16,
            reported: HashSet::default(),
            established_reported: HashSet::default(),
            flood_reported: HashSet::default(),
            denials: 0,
            floods_detected: 0,
        })
    }

    /// Sets the half-open-connections-per-source threshold above which
    /// a SYN flood is reported (default 16).
    pub fn with_syn_flood_threshold(mut self, threshold: u32) -> Self {
        self.syn_flood_threshold = threshold;
        self
    }

    /// Replaces the connection-table idle timeouts.
    pub fn with_conn_timeouts(mut self, timeouts: ConnTimeouts) -> Self {
        self.conntrack = ConnTable::new().with_timeouts(timeouts);
        self
    }

    /// The connection-tracking table (read access for diagnostics).
    pub fn conntrack(&self) -> &ConnTable {
        &self.conntrack
    }

    /// Evaluates a flow header against the rule chain as a
    /// connection-opening packet (the stateless view; first match
    /// wins). Returns the action and the matched rule's name.
    pub fn evaluate(&self, flow: &FlowKey) -> (FwAction, Option<&str>) {
        self.evaluate_stateful(flow, PacketState::New)
    }

    /// Evaluates a flow header with its conntrack classification.
    /// First match wins; if no rule claims an `Established` packet it
    /// is admitted regardless of the default action (reverse-flow
    /// admission).
    pub fn evaluate_stateful(&self, flow: &FlowKey, ps: PacketState) -> (FwAction, Option<&str>) {
        for rule in &self.rules {
            if rule.matches(flow, ps) {
                return (rule.action, Some(&rule.name));
            }
        }
        if ps == PacketState::Established {
            (FwAction::Allow, None)
        } else {
            (self.default_action, None)
        }
    }

    fn deny_finding(&mut self, flow: &FlowKey, name: Option<&str>) -> Option<Finding> {
        let policy = name.unwrap_or("default-deny").to_owned();
        if !self.reported.insert(flow.session()) {
            return None;
        }
        self.denials += 1;
        Some(Finding {
            flow: *flow,
            verdict: Verdict::PolicyViolation { policy },
        })
    }
}

impl Inspector for FirewallEngine {
    fn service(&self) -> ServiceType {
        ServiceType::Firewall
    }

    fn inspect(&mut self, flow: &FlowKey, _payload: &[u8]) -> Option<Finding> {
        // Stateless path (no packet context): header evaluation only.
        let (action, name) = self.evaluate(flow);
        if !action.is_deny() {
            return None;
        }
        let name = name.map(str::to_owned);
        self.deny_finding(flow, name.as_deref())
    }

    fn inspect_packet(&mut self, flow: &FlowKey, pkt: &Packet, now: SimTime) -> Option<Finding> {
        let payload = pkt
            .ipv4()
            .and_then(|ip| ip.transport.payload())
            .map(|p| p.content())
            .unwrap_or(&[]);
        let flags = pkt.tcp().map(|t| t.flags);
        let obs = self.conntrack.observe(flow, flags, payload, now);

        // SYN-flood detection: too many half-open connections held by
        // one source. Reported once per source.
        let src = flow.nw_src;
        if self.conntrack.half_open(src) > self.syn_flood_threshold
            && self.flood_reported.insert(src)
        {
            self.floods_detected += 1;
            return Some(Finding {
                flow: *flow,
                verdict: Verdict::Malicious {
                    attack: format!("syn-flood from {src}"),
                    severity: 9,
                },
            });
        }

        // Connection just became established: if its opening packet
        // matched an AllowEstablished rule, tell the controller so it
        // can fast-pass the rest of the connection. Once per connection.
        if obs.event == Some(ConnEvent::Established) {
            if let Some(conn) = self.conntrack.get(&obs.key) {
                let first = *conn.first_key();
                let (action, _) = self.evaluate_stateful(&first, PacketState::New);
                if action == FwAction::AllowEstablished && self.established_reported.insert(obs.key)
                {
                    return Some(Finding {
                        flow: first,
                        verdict: Verdict::ConnEstablished,
                    });
                }
            }
        }

        // In-path teardown (FIN exchange or RST) of an admitted
        // connection: retract the fast-pass. Expiry handles the case
        // where the teardown itself bypassed us (see poll).
        if obs.event == Some(ConnEvent::Closed) && self.established_reported.remove(&obs.key) {
            let first = self
                .conntrack
                .get(&obs.key)
                .map(|c| *c.first_key())
                .unwrap_or(*flow);
            return Some(Finding {
                flow: first,
                verdict: Verdict::ConnClosed,
            });
        }

        let (action, name) = self.evaluate_stateful(flow, obs.packet_state);
        if !action.is_deny() {
            return None;
        }
        let name = name.map(str::to_owned);
        self.deny_finding(flow, name.as_deref())
    }

    fn poll(&mut self, now: SimTime) -> Vec<Finding> {
        // A fast-passed connection's packets bypass this element, so
        // idle expiry is the only signal its fast-pass should come
        // down; report ConnClosed for every expired connection we had
        // admitted.
        let mut out = Vec::new();
        for gone in self.conntrack.expire(now) {
            self.flood_reported.remove(&gone.flow.nw_src);
            if self.established_reported.remove(&gone.key) {
                out.push(Finding {
                    flow: gone.flow,
                    verdict: Verdict::ConnClosed,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_net::{MacAddr, PacketBuilder, TcpFlags};

    fn flow(tp_dst: u16) -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "10.0.0.2".parse().unwrap(),
            nw_proto: 6,
            tp_src: 40000,
            tp_dst,
        }
    }

    #[test]
    fn ids_detects_and_dedups() {
        let mut ids = IdsEngine::engine();
        let f = flow(80);
        let hit = ids.inspect(&f, b"GET /../../etc/passwd HTTP/1.1");
        match hit {
            Some(Finding {
                verdict: Verdict::Malicious { attack, severity },
                ..
            }) => {
                assert!(attack.contains("/etc/passwd"));
                assert_eq!(severity, 8);
            }
            other => panic!("expected malicious finding, got {other:?}"),
        }
        // Same rule, same session: suppressed.
        assert!(ids.inspect(&f, b"/etc/passwd again").is_none());
        // Reverse direction is the same session: still suppressed.
        assert!(ids.inspect(&f.reversed(), b"/etc/passwd").is_none());
        // Different rule on same session: reported.
        assert!(ids.inspect(&f, b"cmd.exe").is_some());
        assert_eq!(ids.findings, 2);
    }

    #[test]
    fn dedup_does_not_mask_a_second_signature() {
        // An already-reported pattern ahead of a new one must not hide
        // the new one.
        let mut ci = ContentInspectionEngine::engine();
        let f = flow(80);
        assert!(ci.inspect(&f, b"INTERNAL USE ONLY").is_some());
        let second = ci
            .inspect(&f, b"INTERNAL USE ONLY ... BEGIN RSA PRIVATE KEY")
            .expect("3002 behind the already-reported 3001");
        assert_eq!(
            second.verdict,
            Verdict::PolicyViolation {
                policy: "DLP: credential material".into()
            }
        );
        assert!(ci
            .inspect(&f, b"INTERNAL USE ONLY ... BEGIN RSA PRIVATE KEY")
            .is_none());

        // Same on the reverse direction of a flow whose first report
        // already blocked it.
        let mut ids = IdsEngine::engine();
        assert!(ids.inspect(&f, b"GET /etc/passwd").is_some());
        let second = ids
            .inspect(&f.reversed(), b"cat /etc/passwd; cmd.exe /c dir")
            .expect("1002 behind the already-reported 1001");
        assert!(
            matches!(&second.verdict, Verdict::Malicious { attack, .. } if attack.contains("cmd.exe"))
        );
        assert_eq!(ids.findings, 2);
    }

    /// Printable filler that holds none of the shipped patterns (the
    /// unplanted payloads below assert that).
    fn filler(len: usize) -> Vec<u8> {
        (0..len).map(|i| b'a' + (i * 7 % 26) as u8).collect()
    }

    #[test]
    fn every_shipped_rule_is_found_at_every_boundary() {
        for engine in [
            IdsEngine::engine(),
            VirusScanEngine::engine(),
            ContentInspectionEngine::engine(),
        ] {
            let rules = engine.rules().to_vec();
            for len in [64usize, 1_400] {
                assert!(engine.clone().inspect(&flow(80), &filler(len)).is_none());
                for rule in &rules {
                    let n = rule.pattern.len();
                    for at in [0, (len - n) / 2, len - n] {
                        let mut payload = filler(len);
                        payload[at..at + n].copy_from_slice(&rule.pattern);
                        let finding = engine
                            .clone()
                            .inspect(&flow(80), &payload)
                            .unwrap_or_else(|| panic!("rule {} at {at} of {len}", rule.id));
                        // Names are unique per set, so the name is the id.
                        let want = if engine.policy_verdict {
                            Verdict::PolicyViolation {
                                policy: rule.name.clone(),
                            }
                        } else {
                            Verdict::Malicious {
                                attack: rule.name.clone(),
                                severity: rule.severity.0,
                            }
                        };
                        assert_eq!(finding.verdict, want, "rule {} at {at} of {len}", rule.id);
                    }
                }
            }
        }
    }

    #[test]
    fn header_veto_lets_the_scan_continue_to_a_later_rule() {
        let mut web_only = IdsRule::new(1, "alpha on 8080", b"alpha", Severity::new(4));
        web_only.dst_port = Some(8080);
        let mut udp_only = IdsRule::new(2, "beta on udp", b"beta", Severity::new(5));
        udp_only.proto = Some(17);
        let anywhere = IdsRule::new(3, "gamma anywhere", b"gamma", Severity::new(6));
        let engine = SignatureEngine::new(
            ServiceType::IntrusionDetection,
            vec![web_only, udp_only, anywhere],
        );
        let attack_of = |f: &FlowKey, payload: &[u8]| match engine.clone().inspect(f, payload) {
            Some(Finding {
                verdict: Verdict::Malicious { attack, .. },
                ..
            }) => Some(attack),
            _ => None,
        };
        // tcp/80: both constrained rules hit on content and are vetoed.
        let payload = b"alpha beta gamma";
        assert_eq!(
            attack_of(&flow(80), payload).as_deref(),
            Some("gamma anywhere")
        );
        assert_eq!(attack_of(&flow(80), b"alpha beta"), None);
        assert_eq!(
            attack_of(&flow(8080), payload).as_deref(),
            Some("alpha on 8080")
        );
        let mut udp = flow(80);
        udp.nw_proto = 17;
        assert_eq!(attack_of(&udp, payload).as_deref(), Some("beta on udp"));
    }

    #[test]
    fn ids_clean_traffic_silent() {
        let mut ids = IdsEngine::engine();
        assert!(ids
            .inspect(&flow(80), b"GET /index.html HTTP/1.1\r\nHost: x\r\n")
            .is_none());
        assert!(ids.inspect(&flow(80), b"").is_none());
    }

    #[test]
    fn nop_sled_detected() {
        let mut ids = IdsEngine::engine();
        let payload = vec![0x90u8; 64];
        let hit = ids.inspect(&flow(4444), &payload).expect("sled found");
        match hit.verdict {
            Verdict::Malicious { severity, .. } => assert_eq!(severity, 9),
            _ => panic!("wrong verdict"),
        }
    }

    #[test]
    fn protoid_classifies_common_apps() {
        assert_eq!(
            ProtoIdEngine::classify(b"GET / HTTP/1.1\r\n", 5000, 80),
            Some("http")
        );
        assert_eq!(
            ProtoIdEngine::classify(b"HTTP/1.1 200 OK\r\n", 80, 5000),
            Some("http")
        );
        assert_eq!(
            ProtoIdEngine::classify(b"SSH-2.0-OpenSSH_5.8", 22, 5000),
            Some("ssh")
        );
        let mut bt = vec![0x13u8];
        bt.extend_from_slice(b"BitTorrent protocol");
        assert_eq!(ProtoIdEngine::classify(&bt, 6881, 6881), Some("bittorrent"));
        assert_eq!(
            ProtoIdEngine::classify(b"EHLO mail", 25, 5000),
            Some("smtp")
        );
        assert_eq!(
            ProtoIdEngine::classify(b"\x16\x03\x01", 443, 5000),
            Some("tls")
        );
        assert_eq!(ProtoIdEngine::classify(b"anything", 5000, 53), Some("dns"));
        assert_eq!(ProtoIdEngine::classify(b"???", 5000, 5001), None);
    }

    #[test]
    fn protoid_reports_once_per_session() {
        let mut engine = ProtoIdEngine::new();
        let f = flow(80);
        let first = engine.inspect(&f, b"GET / HTTP/1.1");
        assert!(matches!(
            first,
            Some(Finding {
                verdict: Verdict::Application { .. },
                ..
            })
        ));
        assert!(engine.inspect(&f, b"GET /2 HTTP/1.1").is_none());
        assert!(engine.inspect(&f.reversed(), b"HTTP/1.1 200").is_none());
        assert_eq!(engine.identifications, 1);
    }

    #[test]
    fn virus_scan_finds_eicar() {
        let mut av = VirusScanEngine::engine();
        let hit = av
            .inspect(&flow(80), b"X5O!P%@AP[4\\PZX54(P^)7CC)7}$EICAR-STANDARD")
            .expect("EICAR");
        assert!(matches!(
            hit.verdict,
            Verdict::Malicious { severity: 10, .. }
        ));
    }

    #[test]
    fn content_inspection_reports_policy() {
        let mut ci = ContentInspectionEngine::engine();
        let hit = ci
            .inspect(&flow(80), b"...BEGIN RSA PRIVATE KEY...")
            .expect("DLP hit");
        assert!(matches!(hit.verdict, Verdict::PolicyViolation { .. }));
    }

    #[test]
    fn firewall_first_match_wins() {
        // The FIRST rule whose constraints accept the packet decides;
        // the default-deny tail only catches what nothing allowed.
        let fw = FirewallEngine::new(
            vec![
                FwRule::allow("allow-web").proto(6).dst_port(80),
                FwRule::deny_all("default-deny"),
            ],
            FwAction::Allow,
        );
        assert_eq!(fw.evaluate(&flow(80)), (FwAction::Allow, Some("allow-web")));
        assert_eq!(
            fw.evaluate(&flow(23)),
            (FwAction::Deny, Some("default-deny"))
        );
    }

    #[test]
    fn firewall_rejects_shadowed_rules() {
        // A default-deny placed BEFORE the allow covers it entirely:
        // under first-match-wins the allow could never fire.
        let shadowed = vec![
            FwRule::deny_all("default-deny"),
            FwRule::allow("allow-web").proto(6).dst_port(80),
        ];
        let err = FirewallEngine::try_new(shadowed, FwAction::Allow).unwrap_err();
        assert!(err.contains("allow-web"), "{err}");
        assert!(err.contains("shadowed"), "{err}");

        // Broader prefix before narrower: also shadowed.
        let prefix_shadow = vec![
            FwRule::deny_all("deny-lab").src("10.0.0.0/16".parse().unwrap()),
            FwRule::allow("allow-host").src("10.0.0.0/24".parse().unwrap()),
        ];
        assert!(FirewallEngine::try_new(prefix_shadow, FwAction::Allow).is_err());

        // Distinct dimensions do NOT shadow: a state qualifier makes
        // the later rule reachable.
        let ok = vec![
            FwRule::deny_all("deny-new").state(StateMatch::New),
            FwRule::allow("allow-established").state(StateMatch::Established),
        ];
        assert!(FirewallEngine::try_new(ok, FwAction::Allow).is_ok());
    }

    #[test]
    #[should_panic(expected = "shadowed")]
    fn firewall_new_panics_on_shadowed_chain() {
        FirewallEngine::new(
            vec![FwRule::deny_all("a"), FwRule::deny_all("b")],
            FwAction::Allow,
        );
    }

    #[test]
    fn firewall_prefix_rules() {
        let fw = FirewallEngine::new(
            vec![FwRule::deny_all("block-lab-subnet").src("10.0.0.0/24".parse().unwrap())],
            FwAction::Allow,
        );
        assert_eq!(fw.evaluate(&flow(80)).0, FwAction::Deny);
        let mut external = flow(80);
        external.nw_src = "192.168.0.1".parse().unwrap();
        assert_eq!(fw.evaluate(&external).0, FwAction::Allow);
    }

    #[test]
    fn firewall_reports_deny_once() {
        let mut fw = FirewallEngine::new(vec![FwRule::deny_all("deny")], FwAction::Allow);
        assert!(fw.inspect(&flow(80), b"").is_some());
        assert!(fw.inspect(&flow(80), b"").is_none());
        assert_eq!(fw.denials, 1);
    }

    fn tcp_packet(key: &FlowKey, flags: TcpFlags, payload: &[u8]) -> Packet {
        PacketBuilder::tcp(key.dl_src, key.dl_dst)
            .ips(key.nw_src, key.nw_dst)
            .ports(key.tp_src, key.tp_dst)
            .tcp_flags(flags)
            .payload_bytes(payload)
            .build()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn firewall_admits_reverse_flow_of_established_connection() {
        // Default-deny inbound, allow outbound web: the reply direction
        // must pass without an explicit rule for it.
        let mut fw = FirewallEngine::new(
            vec![FwRule::allow("allow-out-web").proto(6).dst_port(80)],
            FwAction::Deny,
        );
        let f = flow(80);
        let syn = tcp_packet(&f, TcpFlags::SYN, &[]);
        assert!(fw.inspect_packet(&f, &syn, t(0)).is_none(), "allowed out");
        let rev = f.reversed();
        let synack = tcp_packet(&rev, TcpFlags::SYN | TcpFlags::ACK, &[]);
        assert!(
            fw.inspect_packet(&rev, &synack, t(1)).is_none(),
            "reply admitted without a matching rule"
        );
        assert_eq!(fw.denials, 0);

        // An unrelated inbound connection attempt is still denied.
        let mut inbound = f.reversed();
        inbound.tp_src = 9999;
        inbound.tp_dst = 9998;
        let pkt = tcp_packet(&inbound, TcpFlags::SYN, &[]);
        let finding = fw.inspect_packet(&inbound, &pkt, t(2)).expect("denied");
        assert!(matches!(finding.verdict, Verdict::PolicyViolation { .. }));
    }

    #[test]
    fn firewall_reports_established_once_for_allow_established() {
        let mut fw = FirewallEngine::new(
            vec![FwRule::allow_established("fastpass-web")
                .proto(6)
                .dst_port(80)],
            FwAction::Deny,
        );
        let f = flow(80);
        fw.inspect_packet(&f, &tcp_packet(&f, TcpFlags::SYN, &[]), t(0));
        let rev = f.reversed();
        fw.inspect_packet(
            &rev,
            &tcp_packet(&rev, TcpFlags::SYN | TcpFlags::ACK, &[]),
            t(1),
        );
        let finding = fw
            .inspect_packet(&f, &tcp_packet(&f, TcpFlags::ACK, &[]), t(2))
            .expect("established report");
        assert_eq!(finding.verdict, Verdict::ConnEstablished);
        assert_eq!(finding.flow, f, "reported with the opening direction");
        // More traffic on the same connection: no duplicate report.
        assert!(fw
            .inspect_packet(&f, &tcp_packet(&f, TcpFlags::ACK, b"data"), t(3))
            .is_none());
    }

    #[test]
    fn firewall_closes_admitted_connection_on_teardown_and_expiry() {
        let mut fw = FirewallEngine::new(
            vec![FwRule::allow_established("fastpass-web")
                .proto(6)
                .dst_port(80)],
            FwAction::Allow,
        );
        let f = flow(80);
        fw.inspect_packet(&f, &tcp_packet(&f, TcpFlags::SYN, &[]), t(0));
        let rev = f.reversed();
        fw.inspect_packet(
            &rev,
            &tcp_packet(&rev, TcpFlags::SYN | TcpFlags::ACK, &[]),
            t(1),
        );
        fw.inspect_packet(&f, &tcp_packet(&f, TcpFlags::ACK, &[]), t(2));
        // RST tears it down in-path: ConnClosed right away.
        let finding = fw
            .inspect_packet(&f, &tcp_packet(&f, TcpFlags::RST, &[]), t(3))
            .expect("closed report");
        assert_eq!(finding.verdict, Verdict::ConnClosed);

        // Second connection goes quiet instead: poll() reports it.
        let mut f2 = f;
        f2.tp_src = 41_000;
        fw.inspect_packet(&f2, &tcp_packet(&f2, TcpFlags::SYN, &[]), t(10));
        let rev2 = f2.reversed();
        fw.inspect_packet(
            &rev2,
            &tcp_packet(&rev2, TcpFlags::SYN | TcpFlags::ACK, &[]),
            t(11),
        );
        fw.inspect_packet(&f2, &tcp_packet(&f2, TcpFlags::ACK, &[]), t(12));
        let findings = fw.poll(t(200_000));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].verdict, Verdict::ConnClosed);
        assert_eq!(findings[0].flow, f2);
    }

    #[test]
    fn firewall_detects_syn_flood_once_per_source() {
        let mut fw = FirewallEngine::new(vec![], FwAction::Allow).with_syn_flood_threshold(8);
        let mut reports = Vec::new();
        for i in 0..20u16 {
            let mut f = flow(80);
            f.tp_src = 30_000 + i;
            let pkt = tcp_packet(&f, TcpFlags::SYN, &[]);
            if let Some(finding) = fw.inspect_packet(&f, &pkt, t(i as u64)) {
                reports.push(finding);
            }
        }
        assert_eq!(reports.len(), 1, "one report per flooding source");
        match &reports[0].verdict {
            Verdict::Malicious { attack, severity } => {
                assert!(attack.starts_with("syn-flood"), "{attack}");
                assert_eq!(*severity, 9);
            }
            other => panic!("expected malicious, got {other:?}"),
        }
        assert_eq!(fw.floods_detected, 1);
    }

    #[test]
    fn protoid_classifies_server_banner_from_reply_direction() {
        // SMTP: the client's first bytes say nothing; the server banner
        // identifies the protocol. The conntrack-backed path sees both
        // directions' heads.
        let mut engine = ProtoIdEngine::new();
        let f = flow(25);
        let hello = tcp_packet(&f, TcpFlags::PSH | TcpFlags::ACK, b"\r\n");
        assert!(engine.inspect_packet(&f, &hello, t(0)).is_none());
        let rev = f.reversed();
        let banner = tcp_packet(
            &rev,
            TcpFlags::PSH | TcpFlags::ACK,
            b"220 mail.example.com ESMTP SMTP ready",
        );
        let finding = engine.inspect_packet(&rev, &banner, t(1)).expect("smtp");
        assert_eq!(finding.verdict, Verdict::Application { app: "smtp".into() });
        assert_eq!(finding.flow, f, "tagged on the opening direction");

        // SSH: same shape, server version string in the reply.
        let mut g = flow(22);
        g.nw_src = "10.0.0.7".parse().unwrap();
        let first = tcp_packet(&g, TcpFlags::PSH | TcpFlags::ACK, b"\x00\x00");
        assert!(engine.inspect_packet(&g, &first, t(2)).is_none());
        let grev = g.reversed();
        let vbanner = tcp_packet(&grev, TcpFlags::PSH | TcpFlags::ACK, b"SSH-2.0-OpenSSH_5.8");
        let finding = engine.inspect_packet(&grev, &vbanner, t(3)).expect("ssh");
        assert_eq!(finding.verdict, Verdict::Application { app: "ssh".into() });
    }

    #[test]
    fn protoid_packet_path_reports_once_per_connection() {
        let mut engine = ProtoIdEngine::new();
        let f = flow(80);
        let req = tcp_packet(&f, TcpFlags::PSH | TcpFlags::ACK, b"GET / HTTP/1.1");
        assert!(engine.inspect_packet(&f, &req, t(0)).is_some());
        assert!(engine.inspect_packet(&f, &req, t(1)).is_none());
        let rev = f.reversed();
        let resp = tcp_packet(&rev, TcpFlags::PSH | TcpFlags::ACK, b"HTTP/1.1 200 OK");
        assert!(engine.inspect_packet(&rev, &resp, t(2)).is_none());
        assert_eq!(engine.identifications, 1);
    }
}
