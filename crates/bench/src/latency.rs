//! E5 — §V-B.3 latency.
//!
//! Paper: pinging an Internet server through LiveSec increases average
//! RTT by only ≈10% over the plain legacy network.
//!
//! Reproduction: the "Internet server" sits behind a gateway link with
//! WAN-scale propagation delay. The baseline world is hosts + legacy
//! learning switches only; the LiveSec world inserts the
//! Access-Switching layer and steers the pings through an IDS element.
//! Both run the same [`Pinger`].

use livesec::deploy::{CampusBuilder, NullApp};
use livesec::policy::{PolicyRule, PolicyTable};
use livesec_net::Ipv4Net;
use livesec_services::{IdsEngine, ServiceElement, ServiceType};
use livesec_sim::{LinkSpec, NodeId, PortId, SimDuration, World};
use livesec_switch::{Host, LearningSwitch};
use livesec_workloads::Pinger;

/// One-way WAN delay to the modeled Internet server.
pub const WAN_DELAY: SimDuration = SimDuration::from_micros(250);

/// The result of one latency comparison.
#[derive(Clone, Copy, Debug)]
pub struct LatencyResult {
    /// Mean RTT through the plain legacy network.
    pub baseline_rtt: SimDuration,
    /// Mean RTT through LiveSec (with IDS steering).
    pub livesec_rtt: SimDuration,
    /// First-ping RTT through LiveSec (pays flow setup).
    pub livesec_first_rtt: SimDuration,
    /// Relative overhead of the mean, e.g. 0.10 = +10%.
    pub overhead: f64,
    /// Ping loss through LiveSec (first packets may be lost while
    /// paths install; should be ~0 thanks to packet-out).
    pub livesec_loss: f64,
}

fn wan_link() -> LinkSpec {
    LinkSpec::gigabit().with_delay(WAN_DELAY)
}

/// Measures the baseline: user → legacy switch → Internet server.
fn baseline_rtt(seed: u64, pings: u32) -> SimDuration {
    let mut world = World::new(seed);
    let sw = world.add_node(LearningSwitch::new(4));
    let subnet: Ipv4Net = "10.0.0.0/16".parse().expect("valid");
    let gw_ip = "10.0.255.254".parse().expect("valid");
    let user: NodeId = world.add_node(
        Host::new(
            livesec_net::MacAddr::from_u64(0x11),
            "10.0.1.1".parse().expect("valid"),
            Pinger::new("8.8.8.8".parse().expect("valid"))
                .with_start_delay(SimDuration::from_millis(100))
                .with_max_pings(pings),
        )
        .with_gateway(subnet, gw_ip),
    );
    let gw = world.add_node(
        Host::new(livesec_net::MacAddr::from_u64(0x22), gw_ip, NullApp)
            .with_proxy_arp_outside(subnet),
    );
    world.connect(user, PortId(1), sw, PortId(1), LinkSpec::fast_ethernet());
    world.connect(gw, PortId(1), sw, PortId(2), wan_link());
    world.run_for(SimDuration::from_secs(5));
    world
        .node::<Host<Pinger>>(user)
        .app()
        .rtts
        .mean()
        .expect("baseline pings answered")
}

/// Adds the ping probe — a [`Pinger`] to 8.8.8.8 on switch 1 sending
/// `pings` echoes from 900 ms on — as the campus's last node, runs the
/// campus for `run`, and reads the probe with `read`.
pub(crate) fn ping<R>(
    mut b: CampusBuilder,
    pings: u32,
    run: SimDuration,
    read: impl FnOnce(&Pinger) -> R,
) -> R {
    let user = b.add_user(
        1,
        Pinger::new("8.8.8.8".parse().expect("valid"))
            .with_start_delay(SimDuration::from_millis(900))
            .with_max_pings(pings),
    );
    let mut campus = b.finish();
    campus.world.run_for(run);
    read(campus.world.node::<Host<Pinger>>(user.node).app())
}

/// Compares the baseline with LiveSec: user → AS layer → legacy →
/// (IDS SE when `steer`) → gateway.
fn compare(seed: u64, pings: u32, steer: bool) -> LatencyResult {
    let baseline = baseline_rtt(seed, pings);
    let mut policy = PolicyTable::allow_all();
    if steer {
        policy.push(
            PolicyRule::named("ids-icmp")
                .proto(1)
                .chain(vec![ServiceType::IntrusionDetection]),
        );
    }
    let mut b = CampusBuilder::new(seed, 2)
        .with_policy(policy)
        .with_gateway_link(wan_link());
    b.add_gateway(0);
    if steer {
        b.add_service_element(0, ServiceElement::new(IdsEngine::engine()));
    }
    let (livesec, first, loss) = ping(b, pings, SimDuration::from_secs(6), |app| {
        let mean = app.rtts.mean().expect("livesec pings answered");
        let first = app.rtts.samples().first().copied().unwrap_or(mean);
        (mean, first, app.loss_rate())
    });
    LatencyResult {
        baseline_rtt: baseline,
        livesec_rtt: livesec,
        livesec_first_rtt: first,
        overhead: (livesec.as_nanos() as f64 - baseline.as_nanos() as f64)
            / baseline.as_nanos() as f64,
        livesec_loss: loss,
    }
}

/// Runs E5.
pub fn run(seed: u64, pings: u32) -> LatencyResult {
    compare(seed, pings, true)
}

/// Runs the no-steering variant (pure AS-layer overhead, no SE
/// detour) — used by the ablation experiment.
pub fn run_unsteered(seed: u64, pings: u32) -> LatencyResult {
    compare(seed, pings, false)
}
