//! E10 — design-choice ablations (ours, indexed in DESIGN.md).
//!
//! Three sweeps over the knobs the paper leaves implicit:
//!
//! 1. **Chain length vs latency** — each extra service element in a
//!    flow's chain adds a detour through the legacy fabric plus
//!    processing time; how much?
//! 2. **Report interval vs balance quality** — the minimum-load
//!    dispatcher acts on heartbeat load figures; staler figures mean
//!    worse balance.
//! 3. **Control latency vs first-packet latency** — the cost of a
//!    farther-away controller on flow setup.

use livesec::balance::{Grain, LoadBalancer, MinLoad};
use livesec::deploy::CampusBuilder;
use livesec::policy::{PolicyRule, PolicyTable};
use livesec_services::{IdsEngine, ProtoIdEngine, ServiceElement, ServiceType};
use livesec_sim::SimDuration;
use livesec_workloads::{HttpClient, HttpServer};

use crate::balance_exp::{deviation_stats, processed_packets};
use crate::latency::ping;

/// Result of the chain-length sweep at one length.
#[derive(Clone, Copy, Debug)]
pub struct ChainLatency {
    /// Number of elements in the chain.
    pub chain_len: usize,
    /// Mean ping RTT through the chain.
    pub rtt: SimDuration,
}

/// Sweeps steering-chain length 0..=3 and measures ping RTT.
pub fn chain_length_latency(seed: u64) -> Vec<ChainLatency> {
    let chains: [Vec<ServiceType>; 4] = [
        vec![],
        vec![ServiceType::IntrusionDetection],
        vec![
            ServiceType::IntrusionDetection,
            ServiceType::ProtocolIdentification,
        ],
        vec![
            ServiceType::IntrusionDetection,
            ServiceType::ProtocolIdentification,
            ServiceType::VirusScan,
        ],
    ];
    chains
        .into_iter()
        .map(|chain| {
            let chain_len = chain.len();
            let mut policy = PolicyTable::allow_all();
            if !chain.is_empty() {
                policy.push(PolicyRule::named("chain-icmp").proto(1).chain(chain));
            }
            let mut b = CampusBuilder::new(seed, 4).with_policy(policy);
            b.add_gateway(0);
            b.add_service_element(1, ServiceElement::new(IdsEngine::engine()));
            b.add_service_element(2, ServiceElement::new(ProtoIdEngine::new()));
            b.add_service_element(
                3,
                ServiceElement::new(livesec_services::VirusScanEngine::engine()),
            );
            let rtt = ping(b, 50, SimDuration::from_secs(4), |app| {
                app.rtts.mean().expect("pings answered")
            });
            ChainLatency { chain_len, rtt }
        })
        .collect()
}

/// Result of the report-interval sweep at one interval.
#[derive(Clone, Copy, Debug)]
pub struct ReportIntervalBalance {
    /// SE heartbeat interval.
    pub interval: SimDuration,
    /// Max relative deviation of per-element processed packets.
    pub max_deviation: f64,
}

/// Sweeps the SE heartbeat interval and measures min-load balance
/// quality.
pub fn report_interval_balance(seed: u64) -> Vec<ReportIntervalBalance> {
    [25u64, 100, 400, 1600]
        .into_iter()
        .map(|ms| {
            let interval = SimDuration::from_millis(ms);
            let n_se = 4;
            let mut policy = PolicyTable::allow_all();
            policy.push(
                PolicyRule::named("ids-web")
                    .dst_port(80)
                    .chain(vec![ServiceType::IntrusionDetection]),
            );
            let mut b = CampusBuilder::new(seed, 2 + n_se)
                .with_policy(policy)
                .with_balancer(LoadBalancer::new(MinLoad::new(), Grain::Flow))
                .configure_controller(move |c| {
                    c.set_flow_idle_timeout(SimDuration::from_millis(400));
                    // Keep elements alive across long heartbeat gaps.
                    c.set_se_timeout(SimDuration::from_millis(4 * ms + 500));
                });
            let server = b.add_gateway_with_app(0, HttpServer::new());
            let mut elements = Vec::new();
            for s in 0..n_se {
                elements.push(b.add_service_element(
                    2 + s,
                    ServiceElement::new(IdsEngine::engine()).with_report_interval(interval),
                ));
            }
            for u in 0..12 {
                b.add_user(
                    1,
                    HttpClient::new(server.ip, if u % 3 == 0 { 200_000 } else { 20_000 })
                        .with_think_time(SimDuration::from_millis(30 + u * 7))
                        .with_start_delay(SimDuration::from_millis(900 + 5 * u))
                        .with_rotating_ports()
                        .with_src_port(41_000 + (u as u16) * 97),
                );
            }
            let mut campus = b.finish();
            campus.world.run_for(SimDuration::from_secs(4));
            let (max_deviation, _) = deviation_stats(&processed_packets(&campus, &elements));
            ReportIntervalBalance {
                interval,
                max_deviation,
            }
        })
        .collect()
}

/// Result of the control-latency sweep at one latency.
#[derive(Clone, Copy, Debug)]
pub struct ControlLatencySetup {
    /// One-way control-channel latency.
    pub control_latency: SimDuration,
    /// First-ping RTT (pays flow setup).
    pub first_rtt: SimDuration,
    /// Steady-state mean RTT (table hits only).
    pub steady_rtt: SimDuration,
}

/// Sweeps the controller's distance and measures flow-setup cost.
pub fn control_latency_setup(seed: u64) -> Vec<ControlLatencySetup> {
    [50u64, 100, 500, 2000]
        .into_iter()
        .map(|us| {
            let control_latency = SimDuration::from_micros(us);
            let mut b = CampusBuilder::new(seed, 2).with_control_latency(control_latency);
            b.add_gateway(0);
            let (first, steady) = ping(b, 40, SimDuration::from_secs(4), |app| {
                let samples = app.rtts.samples();
                let first = samples.first().copied().unwrap_or_default();
                let steady = match samples.len() {
                    0 | 1 => first,
                    n => {
                        let total: u64 = samples[1..].iter().map(|d| d.as_nanos()).sum();
                        SimDuration::from_nanos(total / (n - 1) as u64)
                    }
                };
                (first, steady)
            });
            ControlLatencySetup {
                control_latency,
                first_rtt: first,
                steady_rtt: steady,
            }
        })
        .collect()
}
