//! The global policy table (paper §IV-A).
//!
//! The LiveSec controller keeps a policy table, pre-configured by the
//! network administrator, that decides for each end-to-end flow whether
//! it is allowed, denied, or must traverse a chain of security service
//! elements before delivery.

use livesec_net::{FlowKey, Ipv4Net, MacAddr};
use livesec_openflow::Match;
use livesec_services::ServiceType;

/// What the policy table decides for a flow.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PolicyDecision {
    /// Forward directly (two-hop routing, no services).
    Allow,
    /// Install a drop rule at the ingress switch.
    Deny,
    /// Steer through one element of each listed service type, in
    /// order, then deliver.
    Chain(Vec<ServiceType>),
}

/// What to do when a flow's application protocol is identified.
///
/// This backs the paper's "aggregate flow control" (§IV-C): e.g. block
/// or keep monitoring BitTorrent once the protocol-identification SE
/// labels a flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppAction {
    /// Leave the flow alone.
    Allow,
    /// Block the flow at its ingress switch.
    Block,
}

/// One policy rule: a header selector plus a decision.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PolicyRule {
    /// Administrator-facing rule name (shows up in monitor events).
    pub name: String,
    /// The flows the rule governs: the header-space cube that scoped
    /// fast-pass teardown and incremental verification key on. The
    /// ingress port stays wildcarded; a policy decides per flow.
    pub matcher: Match,
    /// The decision when the selector matches.
    pub decision: PolicyDecision,
}

impl PolicyRule {
    /// Starts a rule with the given name that matches everything and
    /// allows; refine with the builder methods.
    pub fn named(name: &str) -> Self {
        PolicyRule {
            name: name.to_owned(),
            matcher: Match::any(),
            decision: PolicyDecision::Allow,
        }
    }

    /// Restricts to flows from this source prefix.
    pub fn src(mut self, net: Ipv4Net) -> Self {
        self.matcher = self.matcher.with_nw_src(net);
        self
    }

    /// Restricts to flows to this destination prefix.
    pub fn dst(mut self, net: Ipv4Net) -> Self {
        self.matcher = self.matcher.with_nw_dst(net);
        self
    }

    /// Restricts to flows from this user (source MAC).
    pub fn src_mac(mut self, mac: MacAddr) -> Self {
        self.matcher = self.matcher.with_dl_src(mac);
        self
    }

    /// Restricts to this IP protocol.
    pub fn proto(mut self, proto: u8) -> Self {
        self.matcher = self.matcher.with_nw_proto(proto);
        self
    }

    /// Restricts to this destination port.
    pub fn dst_port(mut self, port: u16) -> Self {
        self.matcher = self.matcher.with_tp_dst(port);
        self
    }

    /// Sets the decision to steer through `services`.
    pub fn chain(mut self, services: Vec<ServiceType>) -> Self {
        self.decision = PolicyDecision::Chain(services);
        self
    }

    /// Sets the decision to deny.
    pub fn deny(mut self) -> Self {
        self.decision = PolicyDecision::Deny;
        self
    }

    /// Sets the decision to allow.
    pub fn allow(mut self) -> Self {
        self.decision = PolicyDecision::Allow;
        self
    }
}

/// One edit to a [`PolicyTable`] — the unit the policy delta compiler
/// emits and [`PolicyTable::apply_delta`] consumes.
///
/// Rule identity is the rule *name*: removes and replaces address the
/// first rule with the given name, so tables driven through deltas
/// should keep names unique (the DSL checker enforces this).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PolicyDelta {
    /// Insert `rule` so that it evaluates at position `index` in the
    /// resulting table (clamped to the table length).
    Insert {
        /// Evaluation position for the new rule.
        index: usize,
        /// The rule to insert.
        rule: PolicyRule,
    },
    /// Remove the rule named `name`.
    Remove {
        /// Name of the rule to remove.
        name: String,
    },
    /// Replace the same-named rule's selectors and decision in place
    /// (evaluation position is preserved).
    Replace {
        /// The replacement; `rule.name` selects the slot.
        rule: PolicyRule,
    },
    /// Change the table's default decision.
    SetDefault {
        /// The new default decision.
        decision: PolicyDecision,
    },
    /// Set (`Some`) or clear (`None`) the action taken when a flow is
    /// identified as application `app`.
    SetAppAction {
        /// The application label.
        app: String,
        /// The new action, or `None` to remove the entry.
        action: Option<AppAction>,
    },
}

/// The ordered, first-match-wins policy table.
///
/// ```rust
/// use livesec::policy::{PolicyRule, PolicyTable, PolicyDecision};
/// use livesec_services::ServiceType;
///
/// let mut table = PolicyTable::allow_all();
/// table.push(PolicyRule::named("no-telnet").dst_port(23).deny());
/// table.push(PolicyRule::named("ids-web")
///     .dst_port(80)
///     .chain(vec![ServiceType::IntrusionDetection]));
/// assert_eq!(table.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PolicyTable {
    rules: Vec<PolicyRule>,
    default_decision: PolicyDecision,
    /// Actions applied when an application label is reported for a
    /// flow (aggregate flow control).
    app_actions: Vec<(String, AppAction)>,
}

impl PolicyTable {
    /// An empty table that allows everything by default.
    pub fn allow_all() -> Self {
        PolicyTable {
            rules: Vec::new(),
            default_decision: PolicyDecision::Allow,
            app_actions: Vec::new(),
        }
    }

    /// An empty table that denies everything by default.
    pub fn deny_all() -> Self {
        PolicyTable {
            rules: Vec::new(),
            default_decision: PolicyDecision::Deny,
            app_actions: Vec::new(),
        }
    }

    /// Appends a rule (evaluated after all earlier rules).
    pub fn push(&mut self, rule: PolicyRule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Registers an action to take when a flow is identified as
    /// `app`. Re-registering an app replaces its action. The list is
    /// kept sorted by app name so a table's app actions compare equal
    /// whatever order they were registered (or delta-edited) in.
    pub fn on_app(&mut self, app: &str, action: AppAction) -> &mut Self {
        match self
            .app_actions
            .binary_search_by(|(a, _)| a.as_str().cmp(app))
        {
            Ok(at) => {
                if let Some(slot) = self.app_actions.get_mut(at) {
                    slot.1 = action;
                }
            }
            Err(at) => self.app_actions.insert(at, (app.to_owned(), action)),
        }
        self
    }

    /// Looks up the decision for a flow, with the matched rule's name
    /// (`None` for the default decision).
    pub fn decide(&self, key: &FlowKey) -> (&PolicyDecision, Option<&str>) {
        for rule in &self.rules {
            // The ingress port is wildcarded in every rule.
            if rule.matcher.matches(0, key) {
                return (&rule.decision, Some(&rule.name));
            }
        }
        (&self.default_decision, None)
    }

    /// The action registered for an identified application, if any.
    pub fn app_action(&self, app: &str) -> Option<AppAction> {
        self.app_actions
            .iter()
            .find(|(a, _)| a == app)
            .map(|(_, act)| *act)
    }

    /// The rule named `name`, if present (first occurrence).
    pub fn get(&self, name: &str) -> Option<&PolicyRule> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// Evaluation position of the rule named `name`, if present.
    pub fn position_of(&self, name: &str) -> Option<usize> {
        self.rules.iter().position(|r| r.name == name)
    }

    /// Inserts `rule` so it evaluates at `index` (clamped to the
    /// table length).
    pub fn insert_at(&mut self, index: usize, rule: PolicyRule) {
        let at = index.min(self.rules.len());
        self.rules.insert(at, rule);
    }

    /// Removes the first rule named `name`; returns whether a rule
    /// was removed.
    pub fn remove_named(&mut self, name: &str) -> bool {
        match self.position_of(name) {
            Some(at) => {
                self.rules.remove(at);
                true
            }
            None => false,
        }
    }

    /// Replaces the same-named rule in place, preserving its
    /// evaluation position; returns whether a slot was found.
    pub fn replace_named(&mut self, rule: PolicyRule) -> bool {
        match self.rules.iter_mut().find(|r| r.name == rule.name) {
            Some(slot) => {
                *slot = rule;
                true
            }
            None => false,
        }
    }

    /// Sets the default decision.
    pub fn set_default(&mut self, decision: PolicyDecision) {
        self.default_decision = decision;
    }

    /// The current default decision.
    pub fn default_decision(&self) -> &PolicyDecision {
        &self.default_decision
    }

    /// The registered application actions, sorted by app name.
    pub fn app_actions(&self) -> &[(String, AppAction)] {
        &self.app_actions
    }

    /// Applies one [`PolicyDelta`]; returns whether the table changed
    /// (a `Remove`/`Replace` naming an absent rule is a no-op).
    pub fn apply_delta(&mut self, delta: &PolicyDelta) -> bool {
        match delta {
            PolicyDelta::Insert { index, rule } => {
                self.insert_at(*index, rule.clone());
                true
            }
            PolicyDelta::Remove { name } => self.remove_named(name),
            PolicyDelta::Replace { rule } => self.replace_named(rule.clone()),
            PolicyDelta::SetDefault { decision } => {
                let changed = self.default_decision != *decision;
                self.default_decision = decision.clone();
                changed
            }
            PolicyDelta::SetAppAction { app, action } => match action {
                Some(act) => {
                    let changed = self.app_action(app) != Some(*act);
                    self.on_app(app, *act);
                    changed
                }
                None => {
                    let before = self.app_actions.len();
                    self.app_actions.retain(|(a, _)| a != app);
                    self.app_actions.len() != before
                }
            },
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table has no explicit rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over the rules in evaluation order.
    pub fn iter(&self) -> impl Iterator<Item = &PolicyRule> {
        self.rules.iter()
    }
}

impl Default for PolicyTable {
    fn default() -> Self {
        PolicyTable::allow_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(dst_port: u16) -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            dl_type: 0x0800,
            nw_src: "10.0.0.5".parse().unwrap(),
            nw_dst: "8.8.8.8".parse().unwrap(),
            nw_proto: 6,
            tp_src: 40000,
            tp_dst: dst_port,
        }
    }

    #[test]
    fn default_decisions() {
        assert_eq!(
            PolicyTable::allow_all().decide(&key(80)).0,
            &PolicyDecision::Allow
        );
        assert_eq!(
            PolicyTable::deny_all().decide(&key(80)).0,
            &PolicyDecision::Deny
        );
        let mut steer = PolicyTable::allow_all();
        steer.set_default(PolicyDecision::Chain(vec![ServiceType::IntrusionDetection]));
        assert_eq!(
            steer.decide(&key(80)).0,
            &PolicyDecision::Chain(vec![ServiceType::IntrusionDetection])
        );
    }

    #[test]
    fn first_match_wins() {
        let mut t = PolicyTable::allow_all();
        t.push(PolicyRule::named("deny-telnet").dst_port(23).deny());
        t.push(PolicyRule::named("ids-all").chain(vec![ServiceType::IntrusionDetection]));
        let (d, name) = t.decide(&key(23));
        assert_eq!(d, &PolicyDecision::Deny);
        assert_eq!(name, Some("deny-telnet"));
        let (d, name) = t.decide(&key(80));
        assert!(matches!(d, PolicyDecision::Chain(_)));
        assert_eq!(name, Some("ids-all"));
    }

    #[test]
    fn selectors_compose() {
        let rule = PolicyRule::named("lab-web-ids")
            .src("10.0.0.0/24".parse().unwrap())
            .proto(6)
            .dst_port(80)
            .chain(vec![ServiceType::IntrusionDetection]);
        let accepts = |k: &FlowKey| rule.matcher.matches(0, k);
        assert!(accepts(&key(80)));
        assert!(!accepts(&key(443)), "wrong port");
        let mut external = key(80);
        external.nw_src = "192.168.1.1".parse().unwrap();
        assert!(!accepts(&external), "wrong subnet");
        let mut udp = key(80);
        udp.nw_proto = 17;
        assert!(!accepts(&udp), "wrong proto");
    }

    #[test]
    fn per_user_rule() {
        let mut t = PolicyTable::allow_all();
        t.push(
            PolicyRule::named("quarantine-user")
                .src_mac(MacAddr::from_u64(1))
                .deny(),
        );
        assert_eq!(t.decide(&key(80)).0, &PolicyDecision::Deny);
        let mut other = key(80);
        other.dl_src = MacAddr::from_u64(9);
        assert_eq!(t.decide(&other).0, &PolicyDecision::Allow);
    }

    #[test]
    fn app_actions() {
        let mut t = PolicyTable::allow_all();
        t.on_app("bittorrent", AppAction::Block);
        assert_eq!(t.app_action("bittorrent"), Some(AppAction::Block));
        assert_eq!(t.app_action("http"), None);
    }

    #[test]
    fn apply_delta_edits_in_place() {
        let mut t = PolicyTable::allow_all();
        t.push(PolicyRule::named("a").dst_port(23).deny());
        t.push(PolicyRule::named("b").dst_port(80).allow());

        // Insert at a clamped position.
        assert!(t.apply_delta(&PolicyDelta::Insert {
            index: 99,
            rule: PolicyRule::named("c").deny(),
        }));
        assert_eq!(t.position_of("c"), Some(2));

        // Replace preserves evaluation order.
        assert!(t.apply_delta(&PolicyDelta::Replace {
            rule: PolicyRule::named("a").dst_port(23).allow(),
        }));
        assert_eq!(t.position_of("a"), Some(0));
        assert_eq!(t.decide(&key(23)).0, &PolicyDecision::Allow);

        // Remove by name; absent names are a no-op.
        assert!(t.apply_delta(&PolicyDelta::Remove { name: "b".into() }));
        assert!(!t.apply_delta(&PolicyDelta::Remove {
            name: "ghost".into()
        }));
        assert!(!t.apply_delta(&PolicyDelta::Replace {
            rule: PolicyRule::named("ghost").deny(),
        }));
        assert_eq!(t.len(), 2);

        // Default + app actions.
        assert!(t.apply_delta(&PolicyDelta::SetDefault {
            decision: PolicyDecision::Deny,
        }));
        assert_eq!(t.default_decision(), &PolicyDecision::Deny);
        assert!(t.apply_delta(&PolicyDelta::SetAppAction {
            app: "bittorrent".into(),
            action: Some(AppAction::Block),
        }));
        assert_eq!(t.app_action("bittorrent"), Some(AppAction::Block));
        assert!(t.apply_delta(&PolicyDelta::SetAppAction {
            app: "bittorrent".into(),
            action: None,
        }));
        assert_eq!(t.app_action("bittorrent"), None);
    }

    #[test]
    fn table_introspection() {
        let mut t = PolicyTable::allow_all();
        assert!(t.is_empty());
        t.push(PolicyRule::named("a").allow());
        t.push(PolicyRule::named("b").deny());
        assert_eq!(t.len(), 2);
        let names: Vec<&str> = t.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
