//! E4 — §V-B.2 load balance.
//!
//! Paper: with the minimum-load method (load judged by processed
//! packets), the real-time load deviation among service elements stays
//! within 5%. This experiment measures that deviation for all four
//! dispatching algorithms (polling, hash, queuing, minimum-load) at
//! flow and user granularity.

use livesec::balance::{Grain, HashDispatch, LeastQueue, LoadBalancer, MinLoad, RoundRobin};
use livesec::deploy::{Campus, CampusBuilder, SeHandle};
use livesec::policy::{PolicyRule, PolicyTable};
use livesec_services::{IdsEngine, ServiceElement, ServiceType, SignatureEngine};
use livesec_sim::SimDuration;
use livesec_switch::Host;
use livesec_workloads::{HttpClient, HttpServer};

/// The dispatching algorithm under test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    /// Polling / round-robin.
    RoundRobin,
    /// Stable hash of the flow key.
    Hash,
    /// Fewest outstanding flows.
    LeastQueue,
    /// Fewest processed packets in the last report (the paper's
    /// method).
    MinLoad,
}

impl Algo {
    /// All algorithms, in paper order.
    pub const ALL: [Algo; 4] = [
        Algo::RoundRobin,
        Algo::Hash,
        Algo::LeastQueue,
        Algo::MinLoad,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::RoundRobin => "polling",
            Algo::Hash => "hash",
            Algo::LeastQueue => "queuing",
            Algo::MinLoad => "min-load",
        }
    }

    fn balancer(self, grain: Grain) -> LoadBalancer {
        match self {
            Algo::RoundRobin => LoadBalancer::new(RoundRobin::new(), grain),
            Algo::Hash => LoadBalancer::new(HashDispatch::new(), grain),
            Algo::LeastQueue => LoadBalancer::new(LeastQueue::new(), grain),
            Algo::MinLoad => LoadBalancer::new(MinLoad::new(), grain),
        }
    }
}

/// The result of one balance run.
#[derive(Clone, Debug)]
pub struct BalanceResult {
    /// Algorithm measured.
    pub algo: Algo,
    /// Granularity measured.
    pub grain: Grain,
    /// Packets processed per element over the run.
    pub per_element: Vec<u64>,
    /// Maximum relative deviation from the mean, 0.0..
    pub max_deviation: f64,
    /// Coefficient of variation (stddev/mean).
    pub cv: f64,
}

/// Max relative deviation from the mean and coefficient of variation
/// of per-element loads; both 0 when no element did any work.
pub(crate) fn deviation_stats(per_element: &[u64]) -> (f64, f64) {
    let n = per_element.len() as f64;
    let mean = per_element.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return (0.0, 0.0);
    }
    let max_dev = per_element
        .iter()
        .map(|&x| (x as f64 - mean).abs() / mean)
        .fold(0.0, f64::max);
    let var = per_element
        .iter()
        .map(|&x| (x as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    (max_dev, var.sqrt() / mean)
}

/// Packets each IDS element processed so far.
pub(crate) fn processed_packets(campus: &Campus, elements: &[SeHandle]) -> Vec<u64> {
    elements
        .iter()
        .map(|h| {
            campus
                .world
                .node::<Host<ServiceElement<SignatureEngine>>>(h.node)
                .app()
                .counters()
                .processed_packets
        })
        .collect()
}

/// Runs E4 for one algorithm/granularity combination.
///
/// `n_se` elements on their own switches serve short HTTP flows from
/// `n_users` users (each issuing a stream of per-request flows via
/// rotating source ports), and the per-element processed-packet
/// counts are compared at the end.
pub fn run(
    algo: Algo,
    grain: Grain,
    n_se: usize,
    n_users: usize,
    seed: u64,
    duration: SimDuration,
) -> BalanceResult {
    let n_user_switches = n_users.div_ceil(4).max(1);
    // Switch 0 carries the server; elements and users get their own.
    let n_switches = 1 + n_se + n_user_switches;

    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("ids-web")
            .dst_port(80)
            .chain(vec![ServiceType::IntrusionDetection]),
    );

    let mut b = CampusBuilder::new(seed, n_switches)
        .with_policy(policy)
        .with_balancer(algo.balancer(grain))
        .configure_controller(|c| c.set_flow_idle_timeout(SimDuration::from_millis(400)));

    let server = b.add_gateway_with_app(0, HttpServer::new());
    let mut elements = Vec::with_capacity(n_se);
    for s in 0..n_se {
        // Fast heartbeats relative to flow lifetimes: the regime the
        // paper's deployment operates in (sessions of seconds, reports
        // sub-second). Stale load figures are what break min-load.
        elements.push(
            b.add_service_element(
                1 + s,
                ServiceElement::new(IdsEngine::engine())
                    .with_report_interval(SimDuration::from_millis(25)),
            ),
        );
    }
    for u in 0..n_users {
        // Heterogeneous object sizes: some users pull 4x more than
        // others, the situation that defeats static assignment.
        let size = if u % 3 == 0 { 200_000 } else { 50_000 };
        b.add_user(
            1 + n_se + (u % n_user_switches),
            HttpClient::new(server.ip, size)
                .with_think_time(SimDuration::from_millis(20 + (u as u64 * 7) % 40))
                .with_start_delay(SimDuration::from_millis(900 + 5 * u as u64))
                .with_rotating_ports()
                .with_src_port(41_000 + (u as u16) * 97),
        );
    }
    let mut campus = b.finish();
    campus
        .world
        .run_for(SimDuration::from_millis(1000) + duration);

    let per_element = processed_packets(&campus, &elements);
    let (max_deviation, cv) = deviation_stats(&per_element);
    BalanceResult {
        algo,
        grain,
        per_element,
        max_deviation,
        cv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_stats_math() {
        let (max_dev, cv) = deviation_stats(&[100, 100, 100, 100]);
        assert_eq!(max_dev, 0.0);
        assert_eq!(cv, 0.0);
        let (max_dev, _) = deviation_stats(&[50, 150]);
        assert!((max_dev - 0.5).abs() < 1e-9);
        assert_eq!(deviation_stats(&[0, 0]), (0.0, 0.0));
    }
}
