//! The paper's evaluation (§V), E1–E11, as one deterministic record.
//!
//! Prints one `E<id>.<name> <value>` line per reported number:
//! durations and instants in integer nanoseconds, rates in integer
//! bit/s, counts as integers, ratios as the shortest decimal that
//! round-trips the `f64`. `BENCH_paper.txt` at the repository root is
//! this binary's release stdout; `scripts/check.sh` diffs a fresh run
//! against it, and `tests/paper_bounds.rs` asserts the paper's bounds
//! on it. Re-record with
//! `cargo run --release -p livesec-bench --bin exp > BENCH_paper.txt`.

use livesec::balance::Grain;
use livesec_bench::balance_exp::{self, Algo};
use livesec_bench::goodput::Scrub;
use livesec_bench::{ablation, access, latency, policy_demo, viz};
use livesec_services::ServiceType;
use livesec_sim::{SimDuration, SimTime};

/// A rate in whole bits per second.
fn bps(rate: f64) -> u64 {
    rate.round() as u64
}

/// Nanoseconds, or `none` for a step that never happened.
fn ns(n: Option<u64>) -> String {
    n.map_or_else(|| "none".to_owned(), |n| n.to_string())
}

/// Per-element packet counts, space-separated.
fn counts(per_element: &[u64]) -> String {
    per_element
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

/// One WebUI frame's counted facts: switches, links, users, users per
/// identified application, elements online, alerts.
fn frame(id: &str, f: &livesec::monitor::UiFrame) {
    println!("{id}.switches {}", f.switches.len());
    println!("{id}.links {}", f.links.len());
    println!("{id}.users {}", f.users.len());
    let mut apps = std::collections::BTreeMap::<&str, usize>::new();
    for app in f.users.values().filter_map(|u| u.app.as_deref()) {
        *apps.entry(app).or_default() += 1;
    }
    for (app, n) in apps {
        println!("{id}.app.{app} {n}");
    }
    println!("{id}.elements {}", f.elements.len());
    println!("{id}.alerts {}", f.alerts.len());
}

fn main() {
    // E1 — §V-B.1 access throughput.
    for (name, kind, paper) in [
        ("wired", access::Access::WiredOvs, 100.0e6),
        ("wifi", access::Access::PantouWifi, 43.0e6),
    ] {
        let r = access::run(kind, 1, SimDuration::from_secs(1));
        println!("E1.{name}.goodput_bps {}", bps(r.goodput_bps));
        println!("E1.{name}.vs_paper {}", r.goodput_bps / paper);
    }

    // E2 — §V-B.1 IDS elements on one OvS host.
    for n in [1usize, 2, 3, 4, 6, 8] {
        let rate = Scrub::one_host(n).goodput(3, SimDuration::from_millis(600));
        println!("E2.se{n}.goodput_bps {}", bps(rate));
        println!("E2.se{n}.per_se_bps {}", bps(rate / n as f64));
    }

    // E3 — §V-B.1 aggregate capacity, 10 switches × 2 elements.
    for (name, service) in [
        ("ids", ServiceType::IntrusionDetection),
        ("protoid", ServiceType::ProtocolIdentification),
    ] {
        let scrub = Scrub::deployment(service, 10, 2);
        println!("E3.{name}.elements {}", scrub.elements());
        let rate = scrub.goodput(5, SimDuration::from_millis(400));
        println!("E3.{name}.goodput_bps {}", bps(rate));
    }

    // E4 — §V-B.2 load deviation, 8 elements and 24 users.
    for (grain_name, grain) in [("flow", Grain::Flow), ("user", Grain::User)] {
        for algo in Algo::ALL {
            let r = balance_exp::run(algo, grain, 8, 24, 11, SimDuration::from_secs(5));
            let id = format!("E4.{grain_name}.{}", algo.name());
            println!("{id}.max_dev {}", r.max_deviation);
            println!("{id}.cv {}", r.cv);
            println!("{id}.packets {}", counts(&r.per_element));
        }
    }

    // E5 — §V-B.3 ping RTT, steered through an IDS element and, as an
    // ablation, over the AS layer alone.
    let r = latency::run(17, 200);
    println!("E5.baseline_rtt_ns {}", r.baseline_rtt.as_nanos());
    println!("E5.livesec_rtt_ns {}", r.livesec_rtt.as_nanos());
    println!("E5.first_rtt_ns {}", r.livesec_first_rtt.as_nanos());
    println!("E5.overhead {}", r.overhead);
    println!("E5.loss {}", r.livesec_loss);
    let u = latency::run_unsteered(17, 200);
    println!("E5.unsteered_rtt_ns {}", u.livesec_rtt.as_nanos());
    println!("E5.unsteered_overhead {}", u.overhead);

    // E6/E7 — Figures 7 and 8; the frames' text is the
    // `visualization_replay` example's.
    let r = viz::run(42);
    frame("E6", &r.normal);
    frame("E7", &r.events);
    let n = &r.narrative;
    println!("E7.user_left {}", n.user_left);
    println!("E7.ssh_seen {}", n.ssh_seen);
    println!("E7.bittorrent_seen {}", n.bittorrent_seen);
    println!("E7.attack_detected {}", n.attack_detected);
    println!("E7.attack_blocked {}", n.attack_blocked);
    println!("E7.events {}", r.monitor.len());
    for (app, t) in &r.app_traffic {
        println!("E7.traffic.{app}.flows {}", t.flows);
        println!("E7.traffic.{app}.packets {}", t.packets);
        println!("E7.traffic.{app}.bytes {}", t.bytes);
    }

    // E8 — Figure 3's enforcement loop.
    let r = policy_demo::run(23);
    for (step, at) in [
        ("flow_started", r.flow_started),
        ("attack_detected", r.attack_detected),
        ("flow_blocked", r.flow_blocked),
    ] {
        println!("E8.{step}_ns {}", ns(at.map(SimTime::as_nanos)));
    }
    let reaction = r.reaction.map(SimDuration::as_nanos);
    println!("E8.reaction_ns {}", ns(reaction));
    println!("E8.attacker_sent {}", r.attacker_sent);
    println!("E8.victim_received {}", r.victim_received);
    println!("E8.steering_entries {}", r.steering_entries);

    // E9 — Figure 4's schematic: 2 hosts over 2 elements, min-load.
    let r = balance_exp::run(
        Algo::MinLoad,
        Grain::Flow,
        2,
        2,
        9,
        SimDuration::from_secs(3),
    );
    println!("E9.packets {}", counts(&r.per_element));
    println!("E9.max_dev {}", r.max_deviation);

    // E10 — design-choice ablations (ours).
    for row in ablation::chain_length_latency(31) {
        println!("E10.chain{}.rtt_ns {}", row.chain_len, row.rtt.as_nanos());
    }
    for row in ablation::report_interval_balance(31) {
        let ms = row.interval.as_nanos() / 1_000_000;
        println!("E10.report_{ms}ms.max_dev {}", row.max_deviation);
    }
    for row in ablation::control_latency_setup(33) {
        let id = format!("E10.control_{}us", row.control_latency.as_nanos() / 1_000);
        println!("{id}.first_rtt_ns {}", row.first_rtt.as_nanos());
        println!("{id}.steady_rtt_ns {}", row.steady_rtt.as_nanos());
    }

    // E11 — one gateway box (Figure 1) vs distributed elements
    // (Figure 2) under growing demand (ours).
    let window = SimDuration::from_millis(500);
    for pairs in [1usize, 2, 4, 8] {
        let trad = Scrub::baseline(false, pairs).goodput(5, window);
        let live = Scrub::baseline(true, pairs).goodput(5, window);
        println!("E11.pairs{pairs}.traditional_bps {}", bps(trad));
        println!("E11.pairs{pairs}.livesec_bps {}", bps(live));
        println!("E11.pairs{pairs}.ratio {}", live / trad);
    }
}
