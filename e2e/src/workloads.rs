//! The workload table: six whole-campus workloads, each built through
//! the real `CampusBuilder`/`CampusScenario`, each with the reason it
//! exists. Sizes are constants here and in the README; `--seed` feeds
//! only the generated inputs (start jitter, object sizes, think times,
//! payload bytes, the attack's timing and padding) — the program never
//! sees the seed itself, and `World`'s own RNG is drawn by no node the
//! campus uses.

use crate::apps::{BlobClient, BlobSink, ProbeSink, Prober, SplitMix64};
use livesec::deploy::{Campus, CampusBuilder, UserHandle};
use livesec_net::Payload;
use livesec_services::{ContentInspectionEngine, IdsEngine, ProtoIdEngine, ServiceElement};
use livesec_sim::{NodeId, SimDuration, SimTime};
use livesec_switch::Host;
use livesec_workloads::{
    AttackClient, CampusScenario, ChaosConfig, HttpClient, HttpServer, ScenarioConfig,
};
use std::net::Ipv4Addr;

/// One row of the workload table.
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (also the `why` in BENCHMARK.json).
    pub why: &'static str,
    /// Simulated convergence warm-up, counted in `setup_s`: switch
    /// handshakes, LLDP mesh, host announcements, SEs online.
    pub warmup: SimDuration,
    /// The measured window, in simulated time. Fixed, so every
    /// simulated-clock metric and every counter repeats exactly.
    pub window: SimDuration,
    /// The shortest window that still holds the attack and its block,
    /// for the in-tree tests.
    pub test_window: SimDuration,
    pub build: fn(u64) -> Built,
}

/// A campus ready to run, plus what the benchmark must know about it
/// to score the run.
pub struct Built {
    pub campus: Campus,
    pub attack: AttackPlan,
    /// Hosts scripted to leave mid-run: an operation they had in flight
    /// when they left is not a failure of the network.
    pub departing: Vec<NodeId>,
    /// The policy as `.lsp` text (what `policy.compile_ns` compiles).
    pub policy_src: String,
    /// Simulated interval in which injected faults are active: an
    /// operation that resolves as failed inside it is a casualty of
    /// the fault plan, reported apart from failures of the program.
    pub fault_phase: Option<(SimTime, SimTime)>,
}

/// The one attacker every workload carries, and its schedule.
#[derive(Clone, Copy, Debug)]
pub struct AttackPlan {
    pub host: UserHandle,
    /// When the first malicious request leaves the attacker.
    pub first_malicious: SimTime,
    pub interval: SimDuration,
}

const ATTACK_START: SimDuration = SimDuration::from_secs(1);
const ATTACK_INTERVAL: SimDuration = SimDuration::from_millis(50);

/// The attacker app: `benign` innocent requests, then a directory
/// traversal the IDS rules catch, padded with seeded bytes so that the
/// request's size on the wire is one of the run's generated inputs.
fn attacker(server: Ipv4Addr, benign: u32, rng: &mut SplitMix64) -> AttackClient {
    let pad = rng.below(16) as usize;
    let mut payload = b"GET /../../etc/passwd HTTP/1.1\r\nHost: victim\r\nX-Pad: ".to_vec();
    payload.extend(rng.payload(pad));
    payload.extend_from_slice(b"\r\n\r\n");
    AttackClient::new(server, benign)
        .with_start_delay(ATTACK_START)
        .with_interval(ATTACK_INTERVAL)
        .with_attack_payload(payload)
}

fn attack_plan(host: UserHandle, benign: u32) -> AttackPlan {
    AttackPlan {
        host,
        first_malicious: SimTime::ZERO
            + ATTACK_START
            + SimDuration::from_nanos(ATTACK_INTERVAL.as_nanos() * u64::from(benign)),
        interval: ATTACK_INTERVAL,
    }
}

/// The Figure-7 policy as `.lsp` (lowers to the scenario's built-in
/// table; `CampusScenario`'s own test pins that).
const FIG7_POLICY: &str = "chain web-chain = [ ids, protoid ]\n\
    chain tcp-chain = [ protoid ]\n\
    rule web-ids-protoid: proto tcp port 80 via web-chain\n\
    rule tcp-protoid: proto tcp via tcp-chain\n\
    default allow\n";

/// `campus_fig7` and `chaos_4shard`: the paper's own scenario.
fn scenario(seed: u64, chaos: bool) -> Built {
    let mut rng = SplitMix64::new(seed);
    let benign = 40 + rng.below(21) as u32;
    // The fault plan is the repo's default, seed included: which byte
    // of which control frame a corruption hits decides whether the
    // campus can recover at all (a flipped datapath id registers a
    // phantom switch), so the plan is part of the workload, not of its
    // seeded inputs.
    let chaos_cfg = chaos.then(ChaosConfig::default);
    let defaults = ScenarioConfig::default();
    let cfg = ScenarioConfig {
        seed,
        torrent_at: SimDuration::from_secs(4) + rng.jitter(SimDuration::from_millis(250)),
        attack_after_requests: benign,
        // Below the browsers' 400 ms think time, so every request
        // re-sets-up a key the cache already holds.
        flow_idle: if chaos {
            defaults.flow_idle
        } else {
            SimDuration::from_millis(300)
        },
        chaos: chaos_cfg,
        shards: if chaos { 4 } else { 0 },
        attest_every: if chaos { 16 } else { 0 },
        ..defaults
    };
    let mut s = CampusScenario::build(cfg);
    // Re-draw the browsers' inputs from the seed: same clients, ports
    // and think times as the scenario's, seeded object size and start.
    let gw_ip = s.campus.gateway.expect("scenario adds a gateway").ip;
    let browsers = s
        .web_users
        .iter()
        .zip(41_000u16..)
        .map(|(u, port)| (*u, port, 400))
        .chain([(s.leaver, 41_100, 200)]);
    for (user, port, think_ms) in browsers {
        let size = 20_000 + rng.below(400) as u32;
        let start = SimDuration::from_secs(1) + rng.jitter(SimDuration::from_millis(50));
        *s.campus
            .world
            .node_mut::<Host<HttpClient>>(user.node)
            .app_mut() = HttpClient::new(gw_ip, size)
            .with_think_time(SimDuration::from_millis(think_ms))
            .with_src_port(port)
            .with_start_delay(start);
    }
    *s.campus
        .world
        .node_mut::<Host<AttackClient>>(s.attacker.node)
        .app_mut() = attacker(gw_ip, benign, &mut rng);
    let fault_phase = chaos_cfg.map(|c| {
        let n = s.campus.as_switches.len();
        // A healed switch reconnects with capped backoff through the
        // scheduled frame corruption (worst case heal + 7 s), then is
        // audited and rediscovered — the repo's own chaos suite waits
        // heal + 9 s; flows that straddled that abort one stall later.
        let grace = SimDuration::from_secs(10);
        (
            SimTime::ZERO + c.partition_at,
            SimTime::ZERO + c.last_heal(n) + grace,
        )
    });
    Built {
        attack: attack_plan(s.attacker, benign),
        departing: vec![s.leaver.node],
        campus: s.campus,
        policy_src: FIG7_POLICY.to_string(),
        fault_phase,
    }
}

/// A `rules`-rule policy whose matching rules sit at the very end: the
/// filler rules name source prefixes no campus host lives in, so every
/// cold decision scans the whole table first.
fn long_policy(rules: usize, tail: &str, tail_rules: usize) -> String {
    let mut src = String::from(
        "chain web-chain = [ ids, protoid ]\n\
         chain tcp-chain = [ protoid ]\n\
         chain deep-chain = [ ids, inspect, protoid ]\n",
    );
    for i in 0..rules - tail_rules {
        src.push_str(&format!(
            "rule fill-{i}: from 172.{}.{}.0/24 proto tcp port 80 deny\n",
            16 + i / 256,
            i % 256
        ));
    }
    src.push_str(tail);
    src.push_str("default allow\n");
    src
}

fn compile(src: &str) -> livesec::PolicyTable {
    match livesec_policy::compile(src) {
        Ok(compiled) => compiled.table,
        Err(diags) => panic!("workload policy does not compile: {diags:?}"),
    }
}

/// Adds the attacker (a wired user hitting the gateway's web server,
/// turning malicious after `benign` requests, 50 ms apart — inside the
/// workload's measured window) and four prober/sink pairs spread over
/// the switches.
fn add_attacker_and_probers(
    b: &mut CampusBuilder,
    rng: &mut SplitMix64,
    gw: UserHandle,
    n_switches: usize,
    benign: u32,
) -> AttackPlan {
    let host = b.add_user(1 % n_switches, attacker(gw.ip, benign, rng));
    for i in 0..4 {
        let sink = b.add_user((i * 2 + 1) % n_switches, ProbeSink::default());
        let start = SimDuration::from_secs(1) + rng.jitter(SimDuration::from_millis(50));
        b.add_user(
            (i * 2) % n_switches,
            Prober::new(sink.ip, SimDuration::from_millis(50), start),
        );
    }
    attack_plan(host, benign)
}

const CHURN_SWITCHES: usize = 48;
const CHURN_EDGES: usize = 4;
const CHURN_CLIENTS_PER_SWITCH: usize = 10;
const CHURN_SES_PER_KIND: usize = 8;
const CHURN_RULES: usize = 200;
const THINK: SimDuration = SimDuration::from_millis(400);
const FLOW_IDLE: SimDuration = SimDuration::from_millis(300);

/// `flow_churn` / `flow_rehit`: one topology, one policy, one client
/// population; only whether a request reuses its source port differs.
fn churn(seed: u64, rotating: bool) -> Built {
    let mut rng = SplitMix64::new(seed);
    let policy_src = long_policy(
        CHURN_RULES,
        "rule web-ids-protoid: proto tcp port 80 via web-chain\n\
         rule tcp-protoid: proto tcp via tcp-chain\n\
         rule probes: proto udp port 9100 allow\n",
        3,
    );
    let mut b = CampusBuilder::with_legacy_tiers(seed, CHURN_SWITCHES, CHURN_EDGES)
        .with_policy(compile(&policy_src))
        .configure_controller(|c| c.set_flow_idle_timeout(FLOW_IDLE));
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    for i in 0..CHURN_SES_PER_KIND {
        let sw = i * (CHURN_SWITCHES / CHURN_SES_PER_KIND);
        b.add_service_element(sw, ServiceElement::new(IdsEngine::engine()));
        b.add_service_element(sw + 3, ServiceElement::new(ProtoIdEngine::new()));
    }
    for sw in 0..CHURN_SWITCHES {
        for _ in 0..CHURN_CLIENTS_PER_SWITCH {
            let client = HttpClient::new(gw.ip, 3_000 + rng.below(64) as u32)
                .with_think_time(THINK)
                .with_start_delay(SimDuration::from_secs(1) + rng.jitter(THINK));
            b.add_user(
                sw,
                if rotating {
                    client.with_rotating_ports()
                } else {
                    client
                },
            );
        }
    }
    let benign = 40 + rng.below(21) as u32;
    let attack = add_attacker_and_probers(&mut b, &mut rng, gw, CHURN_SWITCHES, benign);
    Built {
        campus: b.finish(),
        attack,
        departing: Vec::new(),
        policy_src,
        fault_phase: None,
    }
}

const BLOB_BURST: u32 = 32;
const BLOB_POOL: usize = 64;
/// Keeps each inspecting element about a tenth busy: the attacker's
/// request then queues behind a burst in few runs instead of every
/// third, and `mitigation_ms` measures enforcement, not burst phase
/// (at 1 ms think its spread over ten seeds was 25 %).
const BLOB_THINK: SimDuration = SimDuration::from_millis(6);

/// `ids_payload`: eight long-lived real-byte streams through three
/// inspecting elements each; the controller idles.
fn ids_payload(seed: u64) -> Built {
    let mut rng = SplitMix64::new(seed);
    let policy_src = long_policy(
        4,
        "rule blobs: proto tcp port 9000 via deep-chain\n\
         rule web-ids-protoid: proto tcp port 80 via web-chain\n\
         rule probes: proto udp port 9100 allow\n",
        3,
    );
    let mut b = CampusBuilder::new(seed, 3).with_policy(compile(&policy_src));
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    for sw in 0..3 {
        b.add_service_element(sw, ServiceElement::new(IdsEngine::engine()));
        b.add_service_element(
            (sw + 1) % 3,
            ServiceElement::new(ContentInspectionEngine::engine()),
        );
        b.add_service_element((sw + 2) % 3, ServiceElement::new(ProtoIdEngine::new()));
    }
    for pair in 0..8usize {
        // The largest and the smallest segment an Ethernet TCP stream
        // carries, alternating: per-byte and per-packet cost in every
        // burst, so the eight streams' transactions are one population
        // (four streams of each size gave a bimodal latency whose
        // median sat on the edge between the modes and moved 17 %
        // from seed to seed).
        let pool: Vec<Payload> = (0..BLOB_POOL)
            .map(|i| if i % 2 == 0 { 1_400 } else { 64 })
            .map(|len| Payload::from(rng.payload(len)))
            .collect();
        let sink = b.add_user((pair + 1) % 3, BlobSink::new(BLOB_BURST));
        b.add_user(
            pair % 3,
            BlobClient::new(
                sink.ip,
                40_900 + pair as u16,
                BLOB_BURST,
                // Seeded to the microsecond: streams drift against each
                // other differently in every run, so queueing at shared
                // elements — and every latency digit — is an input.
                BLOB_THINK + rng.jitter(SimDuration::from_micros(100)),
                // A fixed stagger, not a seeded one: the order in which
                // the eight flows reach the balancer decides which
                // elements serve them, and with that how many fabric
                // crossings every packet of the run makes (+-8 % events).
                SimDuration::from_secs(1) + SimDuration::from_millis(pair as u64),
                pool,
            ),
        );
    }
    let benign = 6 + rng.below(11) as u32;
    let attack = add_attacker_and_probers(&mut b, &mut rng, gw, 3, benign);
    Built {
        campus: b.finish(),
        attack,
        departing: Vec::new(),
        policy_src,
        fault_phase: None,
    }
}

const WIDE_SWITCHES: usize = 128;
const WIDE_EDGES: usize = 16;
const WIDE_HOSTS_PER_SWITCH: usize = 10;
const WIDE_SES_PER_KIND: usize = 8;
const WIDE_THINK: SimDuration = SimDuration::from_secs(2);
/// Clients start inside the warm-up, and so does every client's first
/// fetch: the gateway host has to ARP for each client it has never
/// answered, and at this many first contacts per second its shell's
/// shared retry timer drops pending replies (`switch::host`, a cost of
/// the load generator, not of the system under test).
const WIDE_START: SimDuration = SimDuration::from_secs(1);

/// `campus_wide`: cost that grows with switch count.
fn campus_wide(seed: u64) -> Built {
    let mut rng = SplitMix64::new(seed);
    let policy_src = long_policy(
        3,
        "rule web-ids-protoid: proto tcp port 80 via web-chain\n\
         rule tcp-protoid: proto tcp via tcp-chain\n\
         rule probes: proto udp port 9100 allow\n",
        3,
    );
    let mut b = CampusBuilder::with_legacy_tiers(seed, WIDE_SWITCHES, WIDE_EDGES)
        .with_policy(compile(&policy_src))
        // Well below the think time: a request never races the expiry
        // of its predecessor's entries.
        .configure_controller(|c| c.set_flow_idle_timeout(FLOW_IDLE))
        .with_shards(4);
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    for i in 0..WIDE_SES_PER_KIND {
        let sw = i * (WIDE_SWITCHES / WIDE_SES_PER_KIND);
        b.add_service_element(sw, ServiceElement::new(IdsEngine::engine()));
        b.add_service_element(sw + 1, ServiceElement::new(ProtoIdEngine::new()));
    }
    for sw in 0..WIDE_SWITCHES {
        for _ in 0..WIDE_HOSTS_PER_SWITCH {
            b.add_user(
                sw,
                HttpClient::new(gw.ip, 3_000 + rng.below(64) as u32)
                    .with_think_time(WIDE_THINK)
                    .with_start_delay(SimDuration::from_secs(1) + rng.jitter(WIDE_START)),
            );
        }
    }
    let benign = 50 + rng.below(21) as u32;
    let attack = add_attacker_and_probers(&mut b, &mut rng, gw, WIDE_SWITCHES, benign);
    Built {
        campus: b.finish(),
        attack,
        departing: Vec::new(),
        policy_src,
        fault_phase: None,
    }
}

/// Long enough for switch handshakes, the first LLDP rounds, host
/// announcements and SE registration on every campus here, and for the
/// clients (which start at 1 s) to have made their first contact.
const WARMUP: SimDuration = SimDuration::from_secs(2);

/// The table. Order is the order of BENCHMARK.json. Windows are sized
/// so that one rep's measured window costs about a second of wall time
/// at the seed (README.md has the sizes and why).
pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "campus_fig7",
        why: "the paper's Figure-7 campus: a 30 Mbit/s stream through SE hairpins with ~5 flow set-ups/s, so it is data-plane work and a control-plane change must not move it",
        warmup: WARMUP,
        window: SimDuration::from_secs(120),
        test_window: SimDuration::from_secs(6),
        build: |seed| scenario(seed, false),
    },
    Spec {
        name: "flow_churn",
        why: "every request is a new 5-tuple: packet-in, cold decide over a 200-rule policy, path compile, codec, per-switch flow-mod install, expiry; the control-plane write path",
        warmup: WARMUP,
        window: SimDuration::from_secs(4),
        test_window: SimDuration::from_millis(2_200),
        build: |seed| churn(seed, true),
    },
    Spec {
        name: "flow_rehit",
        why: "flow_churn with fixed source ports: every request re-sets-up a key the decision cache holds, so a gain for reads that costs writes moves it against flow_churn",
        warmup: WARMUP,
        window: SimDuration::from_secs(4),
        test_window: SimDuration::from_millis(2_200),
        build: |seed| churn(seed, false),
    },
    Spec {
        name: "ids_payload",
        why: "eight long-lived real-byte streams (1400 B and 64 B segments) through IDS, content inspection and proto-id; the controller idles, so it bypasses every control-plane change",
        // Three switches converge in well under a second, and every
        // warm-up second past the clients' start is a second of
        // full-rate streaming charged to set-up.
        warmup: SimDuration::from_millis(1_200),
        window: SimDuration::from_secs(3),
        test_window: SimDuration::from_millis(700),
        build: ids_payload,
    },
    Spec {
        name: "chaos_4shard",
        why: "Figure-7 campus under the default fault plan on 4 shards with attestations: the only entry into liveness, reconciliation, shard routing and attestation replay",
        warmup: WARMUP,
        // Faults end at 27 s, recovery by 37 s; the rest is the healthy
        // tail in which every operation must succeed again.
        window: SimDuration::from_secs(90),
        test_window: SimDuration::from_secs(40),
        build: |seed| scenario(seed, true),
    },
    Spec {
        name: "campus_wide",
        why: "128 switches and 1280 hosts on 4 shards: cost that grows with switch count (LLDP discovery, echo probing, audits, per-switch timers) leads setup_s and peak_heap_mib",
        // A second more than the others: see WIDE_START.
        warmup: SimDuration::from_secs(3),
        window: SimDuration::from_secs(5),
        test_window: SimDuration::from_millis(1_700),
        build: campus_wide,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
