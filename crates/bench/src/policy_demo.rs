//! E8 — Figure 3: interactive policy enforcement.
//!
//! Demonstrates the full §IV-A loop on a minimal network: a user's web
//! flow is steered through an intrusion-detection element (the 4-entry
//! steering program), the element reports an attack, and the
//! controller blocks the flow at its ingress switch.

use livesec::controller::GUARD_COOKIE;
use livesec::deploy::CampusBuilder;
use livesec::monitor::EventKind;
use livesec::policy::{PolicyRule, PolicyTable};
use livesec_services::{IdsEngine, ServiceElement, ServiceType};
use livesec_sim::{SimDuration, SimTime};
use livesec_switch::Host;
use livesec_workloads::{AttackClient, TcpEchoServer};

/// Timeline of the enforcement loop.
#[derive(Clone, Debug)]
pub struct PolicyDemoResult {
    /// When the flow was admitted and steered.
    pub flow_started: Option<SimTime>,
    /// When the element reported the attack.
    pub attack_detected: Option<SimTime>,
    /// When the drop rule landed at the ingress switch.
    pub flow_blocked: Option<SimTime>,
    /// Detection-to-block reaction time.
    pub reaction: Option<SimDuration>,
    /// Attack packets that reached the victim after the block landed
    /// (should be ~0, bounded by in-flight packets).
    pub leaked_after_block: u32,
    /// Attack packets the victim saw in total.
    pub victim_received: u32,
    /// Packets the attacker sent in total.
    pub attacker_sent: u32,
    /// Steering entries installed across switches for the flow.
    pub steering_entries: usize,
}

/// Runs E8.
pub fn run(seed: u64) -> PolicyDemoResult {
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("ids-web")
            .dst_port(80)
            .chain(vec![ServiceType::IntrusionDetection]),
    );
    let mut b = CampusBuilder::new(seed, 3).with_policy(policy);
    let victim = b.add_gateway_with_app(0, TcpEchoServer::new());
    b.add_service_element(2, ServiceElement::new(IdsEngine::engine()));
    let attacker = b.add_user(
        1,
        AttackClient::new(victim.ip, 10).with_interval(SimDuration::from_millis(10)),
    );
    let mut campus = b.finish();
    campus.world.run_for(SimDuration::from_secs(4));

    let c = campus.controller();
    let mut result = PolicyDemoResult {
        flow_started: None,
        attack_detected: None,
        flow_blocked: None,
        reaction: None,
        leaked_after_block: 0,
        victim_received: 0,
        attacker_sent: 0,
        steering_entries: 0,
    };
    for e in c.monitor().events() {
        match &e.kind {
            EventKind::FlowStart { chain, .. } if !chain.is_empty() => {
                result.flow_started.get_or_insert(e.at);
            }
            EventKind::AttackDetected { .. } => {
                result.attack_detected.get_or_insert(e.at);
            }
            EventKind::FlowBlocked { .. } => {
                result.flow_blocked.get_or_insert(e.at);
            }
            _ => {}
        }
    }
    result.reaction = match (result.attack_detected, result.flow_blocked) {
        (Some(d), Some(b)) if b >= d => Some(b.since(d)),
        _ => None,
    };
    result.victim_received = campus
        .world
        .node::<Host<TcpEchoServer>>(victim.node)
        .app()
        .echoed as u32;
    result.attacker_sent = campus
        .world
        .node::<Host<AttackClient>>(attacker.node)
        .app()
        .sent;
    // Each switch's uplink guard is standing state, not the flow's.
    result.steering_entries = campus
        .as_switches
        .iter()
        .map(|&sw| {
            let table = campus.world.node::<livesec_switch::AsSwitch>(sw).table();
            table.iter().filter(|e| e.cookie != GUARD_COOKIE).count()
        })
        .sum();
    result
}
