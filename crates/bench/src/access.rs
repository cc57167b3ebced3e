//! E1 — §V-B.1 access throughput.
//!
//! The paper measures, with UDP flows, ≈100 Mbps access throughput for
//! a wired user behind an OvS and ≈43 Mbps for a wireless user behind
//! a Pantou OF Wi-Fi AP. Here one user floods UDP at the Internet
//! gateway through the LiveSec fabric; we report the goodput delivered
//! to the gateway over the measurement window.

use livesec::deploy::{CampusBuilder, NullApp};
use livesec::policy::PolicyTable;
use livesec_sim::SimDuration;
use livesec_switch::Host;
use livesec_workloads::UdpBlaster;

/// Which access technology the user is behind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// 100 Mbps wired port on an OvS.
    WiredOvs,
    /// 43 Mbps Pantou OF Wi-Fi.
    PantouWifi,
}

/// The result of one access-throughput run.
#[derive(Clone, Copy, Debug)]
pub struct AccessResult {
    /// The access technology measured.
    pub access: Access,
    /// Goodput delivered to the gateway, bits per second.
    pub goodput_bps: f64,
    /// The user's raw access-link rate, for reference.
    pub link_bps: f64,
}

/// Runs E1 for one access type.
///
/// `window` is the steady-state measurement window (preceded by a
/// fixed 1.5 s warm-up that covers discovery and flow setup).
pub fn run(access: Access, seed: u64, window: SimDuration) -> AccessResult {
    let mut b = CampusBuilder::new(seed, 1).with_policy(PolicyTable::allow_all());
    let gw = b.add_gateway(0);
    // Offer twice the link rate so the access link is the bottleneck.
    let (switch, link_bps) = match access {
        Access::WiredOvs => (0, 100_000_000.0),
        Access::PantouWifi => (b.add_wifi_ap(), 43_000_000.0),
    };
    let blaster = UdpBlaster::new(gw.ip, (link_bps * 2.0) as u64)
        .with_start_delay(SimDuration::from_millis(900));
    b.add_user(switch, blaster);
    let mut campus = b.finish();

    campus.world.run_for(SimDuration::from_millis(1500));
    let before = campus.world.node::<Host<NullApp>>(gw.node).rx_bytes();
    campus.world.run_for(window);
    let after = campus.world.node::<Host<NullApp>>(gw.node).rx_bytes();

    AccessResult {
        access,
        goodput_bps: ((after - before) * 8) as f64 / window.as_secs_f64(),
        link_bps,
    }
}
