//! E6/E7 — Figures 7 and 8: visualization frames and event replay.
//!
//! Runs the campus scenario and captures the WebUI frames the paper
//! screenshots: the "normal network environment" (Figure 7: five
//! wireless users, four browsing, one on SSH, low load) and the
//! "network events" view (Figure 8: a user left, a browser turned
//! into a BitTorrent downloader driving link load up, and a malicious
//! access was detected and blocked).

use livesec::monitor::{Monitor, UiFrame};
use livesec_sim::{SimDuration, SimTime};
use livesec_workloads::{CampusScenario, ScenarioConfig};

/// The result of the visualization run.
#[derive(Debug)]
pub struct VizResult {
    /// Frame captured during the normal phase (Figure 7).
    pub normal: UiFrame,
    /// Frame captured after the scripted events (Figure 8).
    pub events: UiFrame,
    /// The full event history (for replay).
    pub monitor: Monitor,
    /// Scenario handles for cross-checking.
    pub narrative: Narrative,
    /// §IV-C service-aware statistics at the end of the run.
    pub app_traffic: Vec<(String, livesec::TrafficTally)>,
}

/// The Figure-8 narrative extracted from the event log.
#[derive(Clone, Debug, Default)]
pub struct Narrative {
    /// The leaver departed.
    pub user_left: bool,
    /// BitTorrent was identified.
    pub bittorrent_seen: bool,
    /// SSH was identified.
    pub ssh_seen: bool,
    /// An attack was detected.
    pub attack_detected: bool,
    /// The attack flow was blocked.
    pub attack_blocked: bool,
}

/// Runs the scenario and captures the two figure frames.
pub fn run(seed: u64) -> VizResult {
    let mut s = CampusScenario::build(ScenarioConfig {
        seed,
        torrent_at: SimDuration::from_secs(4),
        attack_after_requests: 40,
        ..ScenarioConfig::default()
    });
    s.campus.world.run_for(SimDuration::from_secs(9));

    let monitor = s.campus.controller().monitor().clone();
    let app_traffic = s.campus.controller().app_traffic();
    let normal = monitor.frame(SimTime::from_nanos(3_000_000_000));
    let events = monitor.frame(SimTime::from_nanos(9_000_000_000));

    let mut narrative = Narrative::default();
    for e in monitor.events() {
        use livesec::monitor::EventKind::*;
        match &e.kind {
            UserLeave { mac } if *mac == s.leaver.mac => narrative.user_left = true,
            AppIdentified { app, .. } if app == "bittorrent" => {
                narrative.bittorrent_seen = true;
            }
            AppIdentified { app, .. } if app == "ssh" => narrative.ssh_seen = true,
            AttackDetected { .. } => narrative.attack_detected = true,
            FlowBlocked { .. } => narrative.attack_blocked = true,
            _ => {}
        }
    }

    VizResult {
        normal,
        events,
        monitor,
        narrative,
        app_traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorded history replays to the Figure 8 frame. The
    /// frames' counted facts are `BENCH_paper.txt`'s E6 and E7 lines.
    #[test]
    fn replay_reproduces_the_figure_8_frame() {
        let r = run(42);
        assert_eq!(r.monitor.frame(r.events.at), r.events);
    }
}
