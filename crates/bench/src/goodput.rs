//! E2, E3 and E11 — scrubbed goodput, one campus for all three.
//!
//! Paper (§V-B.1): with HTTP flows through IDS elements on one OvS
//! host, one VM reaches 421 Mbps and two reach 827 Mbps, and more VMs
//! are capped by the host's Gigabit NIC (E2); the full deployment
//! (10 OvS hosting elements) delivers at least 8 Gbps of intrusion
//! detection and 2 Gbps of protocol identification (E3). E11 (ours)
//! sets the traditional design of Figure 1, one middlebox at the
//! gateway, against Figure 2's elements distributed over the
//! Access-Switching layer: the one box flattens at its own capacity
//! while the distributed elements keep pace with demand.
//!
//! Reproduction: element switches come first, then one switch pair per
//! HTTP client/server pair, so nothing but the elements (and an element
//! switch's 1 Gbps uplink, the host NIC) bottlenecks. The min-load
//! balancer steers every web flow through one element of the measured
//! service. IDS elements run at the paper's measured 421 Mbps per VM,
//! protocol identification at 100 Mbps (L7-filter's regex matching is
//! far heavier per byte than Snort's compiled string sets). Twenty such
//! elements measure 1.92 Gbps, short of the paper's "at least 2 Gbps":
//! `tests/paper_bounds.rs` lists it as a known miss. Each flow pins to one
//! element, so two pairs more than elements saturate every element.
//! Goodput is what the clients receive over the window after a 1.8 s
//! warm-up.

use livesec::balance::LoadBalancer;
use livesec::deploy::{Campus, CampusBuilder};
use livesec::policy::{PolicyRule, PolicyTable};
use livesec_services::{IdsEngine, Inspector, ProtoIdEngine, ServiceElement, ServiceType};
use livesec_sim::{LinkSpec, SimDuration};
use livesec_switch::Host;
use livesec_workloads::{HttpClient, HttpServer};

/// Per-VM HTTP-through-IDS processing rate measured by the paper.
pub const PAPER_PER_VM_BPS: u64 = 421_000_000;

/// Modeled per-VM capacity of a protocol-identification element.
pub const PROTOID_PER_VM_BPS: u64 = 100_000_000;

/// One scrubbed-goodput campus: where the elements sit and how many
/// client/server pairs load them.
#[derive(Clone, Copy, Debug)]
pub struct Scrub {
    service: ServiceType,
    element_switches: usize,
    per_switch: usize,
    pairs: usize,
    /// Gap between successive clients' start times, in ms.
    stagger_ms: u64,
}

impl Scrub {
    /// E2: `n_se` IDS elements on one host, loaded by `n_se + 2` pairs.
    pub fn one_host(n_se: usize) -> Self {
        assert!(n_se >= 1, "need at least one element");
        Scrub {
            service: ServiceType::IntrusionDetection,
            element_switches: 1,
            per_switch: n_se,
            pairs: n_se + 2,
            stagger_ms: 7,
        }
    }

    /// E3: `hosts × per_host` elements of `service`, loaded by two
    /// pairs more than there are elements.
    pub fn deployment(service: ServiceType, hosts: usize, per_host: usize) -> Self {
        Scrub {
            service,
            element_switches: hosts,
            per_switch: per_host,
            pairs: hosts * per_host + 2,
            stagger_ms: 3,
        }
    }

    /// E11: `pairs` pairs scrubbed by one gateway box on switch 0
    /// (Figure 1), or by one IDS element per pair, each on its own
    /// switch (`distributed`, Figure 2).
    pub fn baseline(distributed: bool, pairs: usize) -> Self {
        Scrub {
            service: ServiceType::IntrusionDetection,
            element_switches: if distributed { pairs } else { 1 },
            per_switch: 1,
            pairs,
            stagger_ms: 7,
        }
    }

    /// Number of service elements deployed.
    pub fn elements(&self) -> usize {
        self.element_switches * self.per_switch
    }

    /// Builds the campus, warms it up, and returns the clients'
    /// aggregate goodput over `window`, bits per second.
    pub fn goodput(&self, seed: u64, window: SimDuration) -> f64 {
        let mut policy = PolicyTable::allow_all();
        policy.push(
            PolicyRule::named("scrub-web")
                .dst_port(80)
                .chain(vec![self.service]),
        );
        // The workload is closed-loop (one object outstanding per
        // pair), so queues sized above pairs x object_size absorb the
        // in-flight data without tail drops — the role TCP flow control
        // plays on the real testbed.
        let mut big = LinkSpec::gigabit();
        big.queue_bytes = 32 * 1024 * 1024;
        let first_pair = self.element_switches;
        let mut b =
            CampusBuilder::with_legacy_tiers_uplink(seed, first_pair + 2 * self.pairs, 0, big)
                .with_policy(policy)
                .with_balancer(LoadBalancer::min_load())
                .with_user_link(big)
                .with_se_link(big);

        for s in 0..self.element_switches {
            for _ in 0..self.per_switch {
                if self.service == ServiceType::ProtocolIdentification {
                    b.add_service_element(s, element(ProtoIdEngine::new(), PROTOID_PER_VM_BPS));
                } else {
                    b.add_service_element(s, element(IdsEngine::engine(), PAPER_PER_VM_BPS));
                }
            }
        }
        let clients: Vec<_> = (0..self.pairs)
            .map(|p| {
                let server = b.add_user(first_pair + 2 * p + 1, HttpServer::new());
                let start = SimDuration::from_millis(900 + self.stagger_ms * p as u64);
                b.add_user(
                    first_pair + 2 * p,
                    HttpClient::new(server.ip, 1_000_000).with_start_delay(start),
                )
            })
            .collect();
        let mut campus = b.finish();

        campus.world.run_for(SimDuration::from_millis(1800));
        let received = |campus: &Campus| -> u64 {
            clients
                .iter()
                .map(|c| {
                    campus
                        .world
                        .node::<Host<HttpClient>>(c.node)
                        .app()
                        .bytes_received
                })
                .sum()
        };
        let before = received(&campus);
        campus.world.run_for(window);
        ((received(&campus) - before) * 8) as f64 / window.as_secs_f64()
    }
}

/// An element at `bps` per VM with no per-packet cost and a 400 ms
/// backlog.
fn element<I: Inspector>(engine: I, bps: u64) -> ServiceElement<I> {
    ServiceElement::new(engine)
        .with_capacity_bps(bps)
        .with_per_packet_overhead(SimDuration::ZERO)
        .with_max_backlog(SimDuration::from_millis(400))
}
