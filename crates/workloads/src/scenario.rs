//! The paper's campus scenario (Figures 6–8).
//!
//! Builds the deployment of §V-B.4: OvS switches plus one OF Wi-Fi AP,
//! intrusion-detection and protocol-identification service elements,
//! five wireless users (four browsing, one on SSH), and the scripted
//! events of Figure 8 — a user leaving, a browser turning into a
//! BitTorrent downloader, and a user hitting a malicious site.

use crate::apps::{AttackClient, HttpClient, HttpServer, SshSession, TcpEchoServer};
use livesec::deploy::{Campus, CampusBuilder, SeHandle, UserHandle};
use livesec::policy::{PolicyRule, PolicyTable};
use livesec_net::{Packet, Payload, TcpFlags};
use livesec_services::{IdsEngine, ProtoIdEngine, ServiceElement, ServiceType};
use livesec_sim::{FaultKind, FaultPlan, SimDuration};
use livesec_switch::{App, HostIo};
use std::net::Ipv4Addr;

/// A user who browses the web until `switch_at`, then starts a
/// BitTorrent download (Figure 8's behavioural change).
#[derive(Debug)]
pub struct WebThenTorrent {
    server: Ipv4Addr,
    switch_at: SimDuration,
    start_delay: SimDuration,
    torrenting: bool,
    handshake_sent: bool,
    bt_rate_bps: u64,
    /// Web requests issued during the browsing phase.
    pub web_requests: u32,
    /// Torrent pieces sent during the download phase.
    pub pieces: u64,
}

impl WebThenTorrent {
    /// Creates the user; browsing begins after 1 s, torrenting at
    /// `switch_at` (measured from simulation start).
    pub fn new(server: Ipv4Addr, switch_at: SimDuration) -> Self {
        WebThenTorrent {
            server,
            switch_at,
            start_delay: SimDuration::from_secs(1),
            torrenting: false,
            handshake_sent: false,
            bt_rate_bps: 30_000_000,
            web_requests: 0,
            pieces: 0,
        }
    }
}

impl App for WebThenTorrent {
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        io.set_timer(self.start_delay, 1);
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, _token: u64) {
        if io.now().as_secs_f64() >= self.switch_at.as_secs_f64() {
            self.torrenting = true;
        }
        if !self.torrenting {
            self.web_requests += 1;
            io.send_tcp(
                self.server,
                40_100,
                80,
                self.web_requests,
                0,
                TcpFlags::PSH | TcpFlags::ACK,
                Payload::from(b"GET /size/2000 HTTP/1.1\r\nHost: x\r\n\r\n".as_ref()),
            );
            io.set_timer(SimDuration::from_millis(500), 1);
        } else {
            let payload: Payload = if self.handshake_sent {
                self.pieces += 1;
                Payload::Synthetic(1400)
            } else {
                self.handshake_sent = true;
                let mut hs = vec![0x13u8];
                hs.extend_from_slice(b"BitTorrent protocol");
                hs.resize(68, 0);
                Payload::from(hs)
            };
            io.send_tcp(
                self.server,
                40_101,
                6881,
                self.pieces as u32,
                0,
                TcpFlags::PSH | TcpFlags::ACK,
                payload,
            );
            // ~30 Mbps piece stream.
            let frame_bits = (1400u64 + 58) * 8;
            io.set_timer(
                SimDuration::from_nanos(frame_bits * 1_000_000_000 / self.bt_rate_bps),
                1,
            );
        }
    }

    fn on_packet(&mut self, _io: &mut HostIo<'_, '_>, _pkt: &Packet) {}
}

/// Scheduled control-plane faults for the campus scenario — the
/// deterministic chaos the robustness suite runs under.
///
/// The default plan partitions every AS switch's secure channel once
/// (staggered, each outage longer than both liveness timeouts so the
/// switch degrades *and* the controller deregisters it), corrupts a
/// few control frames right after each heal, and power-cycles one
/// switch mid-run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed of the fault injector's corruption RNG.
    pub fault_seed: u64,
    /// When the first control-channel partition starts.
    pub partition_at: SimDuration,
    /// How long each partition lasts.
    pub partition_len: SimDuration,
    /// Delay between successive switches' partitions.
    pub partition_stagger: SimDuration,
    /// Index (into the builder's AS switches) of a switch to
    /// power-cycle, if any.
    pub crash_switch: Option<usize>,
    /// When the power cycle happens.
    pub crash_at: SimDuration,
    /// Control frames to corrupt from each switch right after its
    /// partition heals (exercises resynchronization through garbage).
    pub corrupt_frames: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            fault_seed: 0xc4a05,
            partition_at: SimDuration::from_secs(5),
            partition_len: SimDuration::from_secs(4),
            partition_stagger: SimDuration::from_secs(6),
            crash_switch: Some(1),
            crash_at: SimDuration::from_secs(6),
            corrupt_frames: 2,
        }
    }
}

impl ChaosConfig {
    /// When the last scheduled fault has healed, given `n_switches` AS
    /// switches — run the world at least this long plus settling time
    /// to observe full recovery.
    pub fn last_heal(&self, n_switches: usize) -> SimDuration {
        let stagger = self.partition_stagger.as_nanos() * n_switches.saturating_sub(1) as u64;
        SimDuration::from_nanos(
            self.partition_at.as_nanos() + stagger + self.partition_len.as_nanos(),
        )
    }
}

/// Configuration of the campus scenario.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of wired OvS switches (the paper's figures show 3).
    pub n_ovs: usize,
    /// When the browsing user turns to BitTorrent.
    pub torrent_at: SimDuration,
    /// When the attacker turns malicious (benign requests before).
    pub attack_after_requests: u32,
    /// Location (ARP) timeout — short so a silent user "leaves"
    /// visibly within the run.
    pub arp_timeout: SimDuration,
    /// Switch-entry idle timeout. Shorter than a client's think time
    /// makes every request a fresh flow setup of the same key.
    pub flow_idle: SimDuration,
    /// Scheduled control-plane faults (`None` = fault-free run).
    pub chaos: Option<ChaosConfig>,
    /// Controller shards. `0` (the default) runs the plain unsharded
    /// controller; `n ≥ 1` wraps it into an n-shard
    /// [`livesec::ShardedControlPlane`]. The history is byte-identical
    /// at every value; only ownership, failover and the handoff count
    /// depend on it.
    pub shards: u32,
    /// Forwarding-attestation sampling modulus for every AS switch
    /// (`0` = attestations off, the default; `1` = attest every
    /// packet). Drives the accountability detector. It samples
    /// (flow, frame length) classes, not packets: a class whose tag is
    /// a multiple of it is attested on every packet, the rest never.
    pub attest_every: u64,
    /// Declarative policy source (`.lsp`) to compile and install in
    /// place of the built-in Figure-7 table. Compilation errors panic
    /// — scenario policies are static test inputs, not user data.
    pub policy_src: Option<&'static str>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            n_ovs: 3,
            torrent_at: SimDuration::from_secs(4),
            attack_after_requests: 50,
            arp_timeout: SimDuration::from_secs(3),
            flow_idle: SimDuration::from_secs(1),
            chaos: None,
            shards: 0,
            attest_every: 0,
            policy_src: None,
        }
    }
}

/// The assembled Figure-7/8 campus.
#[derive(Debug)]
pub struct CampusScenario {
    /// The testbed (run `campus.world` to advance time).
    pub campus: Campus,
    /// Web-browsing wireless users.
    pub web_users: Vec<UserHandle>,
    /// The SSH user.
    pub ssh_user: UserHandle,
    /// The user who leaves mid-run (stops talking after a few
    /// requests; the ARP timeout then evicts them).
    pub leaver: UserHandle,
    /// The user who switches from web to BitTorrent.
    pub torrent_user: UserHandle,
    /// The user who accesses a malicious site.
    pub attacker: UserHandle,
    /// The SSH server host.
    pub ssh_server: UserHandle,
    /// Intrusion-detection elements.
    pub ids_elements: Vec<SeHandle>,
    /// Protocol-identification elements.
    pub protoid_elements: Vec<SeHandle>,
}

impl CampusScenario {
    /// Builds the scenario.
    pub fn build(cfg: ScenarioConfig) -> Self {
        // Policy: every TCP flow is protocol-identified; web flows
        // additionally pass intrusion detection first. A scenario can
        // swap in a declarative `.lsp` source instead.
        let policy = match cfg.policy_src {
            Some(src) => match livesec_policy::compile(src) {
                Ok(compiled) => compiled.table,
                Err(diags) => panic!("scenario policy does not compile: {diags:?}"),
            },
            None => {
                let mut policy = PolicyTable::allow_all();
                policy.push(
                    PolicyRule::named("web-ids-protoid")
                        .proto(6)
                        .dst_port(80)
                        .chain(vec![
                            ServiceType::IntrusionDetection,
                            ServiceType::ProtocolIdentification,
                        ]),
                );
                policy.push(
                    PolicyRule::named("tcp-protoid")
                        .proto(6)
                        .chain(vec![ServiceType::ProtocolIdentification]),
                );
                policy
            }
        };

        let arp_timeout = cfg.arp_timeout;
        let flow_idle = cfg.flow_idle;
        let mut b = CampusBuilder::new(cfg.seed, cfg.n_ovs)
            .with_policy(policy)
            .configure_controller(move |c| {
                c.set_flow_idle_timeout(flow_idle);
                // Short location timeout so departures show up.
                c.set_arp_timeout(arp_timeout);
                // Link-load sampling for the Figure-8 utilization view.
                c.set_stats_polling(10);
            });
        if cfg.shards > 0 {
            b = b.with_shards(cfg.shards);
        }
        if cfg.attest_every > 0 {
            b = b.with_attestation(cfg.attest_every);
        }

        let gw = b.add_gateway_configured(0, HttpServer::new(), |h| {
            h.with_reannounce_interval(SimDuration::from_secs(1))
        });
        let ap = b.add_wifi_ap();

        // Service elements: 2 IDS + 2 proto-id, on the wired OvS.
        let ids_elements = vec![
            b.add_service_element(0, ServiceElement::new(IdsEngine::engine())),
            b.add_service_element(1, ServiceElement::new(IdsEngine::engine())),
        ];
        let protoid_elements = vec![
            b.add_service_element(1, ServiceElement::new(ProtoIdEngine::new())),
            b.add_service_element(2, ServiceElement::new(ProtoIdEngine::new())),
        ];

        // A wired SSH server for the SSH user.
        let ssh_server = b.add_user_with(2, TcpEchoServer::new(), |h| {
            h.with_reannounce_interval(SimDuration::from_secs(1))
        });

        // Hosts re-announce faster than the scenario's short ARP
        // timeout, so present users stay in the routing table.
        let announce = SimDuration::from_secs(1);

        // Five wireless users on the AP.
        let mut web_users = Vec::new();
        // Two steady browsers.
        for i in 0..2 {
            web_users.push(
                b.add_user_with(
                    ap,
                    HttpClient::new(gw.ip, 20_000)
                        .with_think_time(SimDuration::from_millis(400))
                        .with_src_port(41_000 + i as u16),
                    move |h| h.with_reannounce_interval(announce),
                ),
            );
        }
        // The leaver: a browser whose machine departs mid-run; the
        // controller notices via ARP timeout (paper §III-C.2).
        let depart_at =
            livesec_sim::SimTime::from_nanos(cfg.torrent_at.as_nanos().saturating_sub(500_000_000));
        let leaver = b.add_user_with(
            ap,
            HttpClient::new(gw.ip, 20_000)
                .with_think_time(SimDuration::from_millis(200))
                .with_src_port(41_100),
            move |h| {
                h.with_reannounce_interval(announce)
                    .with_departure_at(depart_at)
            },
        );
        // The web→BitTorrent user (torrents toward the gateway).
        let torrent_user =
            b.add_user_with(ap, WebThenTorrent::new(gw.ip, cfg.torrent_at), move |h| {
                h.with_reannounce_interval(announce)
            });
        // The SSH user.
        let ssh_user = b.add_user_with(ap, SshSession::new(ssh_server.ip), move |h| {
            h.with_reannounce_interval(announce)
        });
        // The attacker is a wired user browsing a malicious site.
        let attacker = b.add_user_with(
            1,
            AttackClient::new(gw.ip, cfg.attack_after_requests)
                .with_interval(SimDuration::from_millis(50)),
            move |h| h.with_reannounce_interval(announce),
        );

        let mut campus = b.finish();

        // Schedule the chaos plan against the finished topology: the
        // faults are ordinary simulator events, so a faulty run is
        // exactly as deterministic as a fault-free one.
        if let Some(chaos) = cfg.chaos {
            let mut plan = FaultPlan::new(chaos.fault_seed);
            let mut at = chaos.partition_at.as_nanos();
            for &sw in &campus.as_switches {
                plan.push(
                    livesec_sim::SimTime::from_nanos(at),
                    FaultKind::PartitionControl { node: sw },
                );
                let heal = at + chaos.partition_len.as_nanos();
                plan.push(
                    livesec_sim::SimTime::from_nanos(heal),
                    FaultKind::HealControl { node: sw },
                );
                if chaos.corrupt_frames > 0 {
                    plan.push(
                        livesec_sim::SimTime::from_nanos(heal),
                        FaultKind::CorruptControl {
                            node: sw,
                            count: chaos.corrupt_frames,
                        },
                    );
                }
                at += chaos.partition_stagger.as_nanos();
            }
            if let Some(idx) = chaos.crash_switch {
                if let Some(&sw) = campus.as_switches.get(idx) {
                    plan.push(
                        livesec_sim::SimTime::from_nanos(chaos.crash_at.as_nanos()),
                        FaultKind::CrashRestart { node: sw },
                    );
                }
            }
            // Built in code from `ChaosConfig`: every heal follows its
            // partition, and nothing is scheduled before t = 0.
            campus
                .world
                .install_fault_plan(&plan)
                .expect("a chaos plan is valid by construction");
        }

        CampusScenario {
            campus,
            web_users,
            ssh_user,
            leaver,
            torrent_user,
            attacker,
            ssh_server,
            ids_elements,
            protoid_elements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec::monitor::EventKind;

    #[test]
    fn declarative_policy_source_replaces_the_builtin_table() {
        // The `.lsp` equivalent of the built-in Figure-7 policy
        // lowers to the exact same table.
        let s = CampusScenario::build(ScenarioConfig {
            policy_src: Some(
                "chain web-chain = [ ids, protoid ]\n\
                 chain tcp-chain = [ protoid ]\n\
                 rule web-ids-protoid: proto tcp port 80 via web-chain\n\
                 rule tcp-protoid: proto tcp via tcp-chain\n\
                 default allow\n",
            ),
            ..ScenarioConfig::default()
        });
        let builtin = CampusScenario::build(ScenarioConfig::default());
        assert_eq!(
            s.campus.controller().policy(),
            builtin.campus.controller().policy()
        );
    }

    #[test]
    fn scenario_produces_the_figure_8_narrative() {
        let mut s = CampusScenario::build(ScenarioConfig {
            torrent_at: SimDuration::from_secs(3),
            attack_after_requests: 20,
            ..ScenarioConfig::default()
        });
        s.campus.world.run_for(SimDuration::from_secs(8));
        let c = s.campus.controller();
        let summary = c.monitor().summary();

        // Users and elements came up.
        assert!(summary.get("user_join").copied().unwrap_or(0) >= 8);
        assert_eq!(summary.get("se_online").copied(), Some(4));

        // Applications were identified (http from browsers, ssh,
        // bittorrent after the switch).
        let apps: livesec_net::HashSet<String> = c
            .monitor()
            .of_tag("app_identified")
            .filter_map(|e| match &e.kind {
                EventKind::AppIdentified { app, .. } => Some(app.clone()),
                _ => None,
            })
            .collect();
        assert!(apps.contains("http"), "apps: {apps:?}");
        assert!(apps.contains("ssh"), "apps: {apps:?}");
        assert!(apps.contains("bittorrent"), "apps: {apps:?}");

        // The attack was detected and blocked.
        assert!(summary.get("attack_detected").copied().unwrap_or(0) >= 1);
        assert!(summary.get("flow_blocked").copied().unwrap_or(0) >= 1);

        // The leaver went quiet and was evicted by the ARP timeout.
        let left = c
            .monitor()
            .of_tag("user_leave")
            .any(|e| matches!(&e.kind, EventKind::UserLeave { mac } if *mac == s.leaver.mac));
        assert!(left, "leaver departed; summary: {summary:?}");
    }
}
