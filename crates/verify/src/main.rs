//! `livesec-verify` — build a scenario, run it, snapshot the emitted
//! dataplane, and pretty-print every invariant violation with the
//! header-space witness packet that triggers it.
//!
//! ```text
//! livesec-verify --scenario baseline           # fault-free campus
//! livesec-verify --scenario service-chain      # chained flows active
//! livesec-verify --scenario chaos-heal         # audit after fault heals
//! livesec-verify --scenario tamper-quarantine  # audit after a rule-tamper
//!                                              # attack is quarantined
//! ```
//!
//! Exits 0 when all invariants are proven, 1 when any violation
//! survives settling, 2 on usage errors.

use livesec_sim::{FaultKind, FaultPlan, SimDuration};
use livesec_verify::{audit_settled, Snapshot, Violation};
use livesec_workloads::scenario::{CampusScenario, ChaosConfig, ScenarioConfig};

fn usage() -> ! {
    eprintln!(
        "usage: livesec-verify --scenario \
         <baseline|service-chain|chaos-heal|tamper-quarantine> [--seed N]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario = String::new();
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scenario" => {
                i += 1;
                scenario = args.get(i).cloned().unwrap_or_default();
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    let violations = match scenario.as_str() {
        "baseline" => run_steady(seed, 3, "baseline"),
        "service-chain" => run_steady(seed, 6, "service-chain"),
        "chaos-heal" => run_chaos_heal(seed),
        "tamper-quarantine" => run_tamper_quarantine(seed),
        _ => usage(),
    };

    if violations.is_empty() {
        println!("ok: all invariants hold");
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!("FAIL: {} violation(s)", violations.len());
        std::process::exit(1);
    }
}

fn settle(scn: &mut CampusScenario) -> Vec<Violation> {
    audit_settled(&mut scn.campus, 30, SimDuration::from_millis(100))
}

fn report_snapshot(scn: &CampusScenario, label: &str) {
    let snap = Snapshot::of_campus(&scn.campus);
    println!(
        "[{label}] switches={} entries={} hosts={} flows={} blocks={} fastpasses={}",
        snap.switches.len(),
        snap.entry_count(),
        snap.hosts.len(),
        snap.flows.len(),
        snap.blocks.len(),
        snap.fastpasses.len(),
    );
}

/// A fault-free campus audited mid-traffic after `secs` simulated
/// seconds. At 3 s this is the steady-state proof; by 6 s the torrent
/// switch and the attack verdict have landed, so chained flows and
/// blocks are both present. The scenario runs no firewall, so it never
/// has a fast-pass.
fn run_steady(seed: u64, secs: u64, label: &str) -> Vec<Violation> {
    let cfg = ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    };
    let mut scn = CampusScenario::build(cfg);
    scn.campus.world.run_for(SimDuration::from_secs(secs));
    report_snapshot(&scn, label);
    settle(&mut scn)
}

/// Accountability run: per-packet attestation on, traffic converged,
/// then a `RuleTamper` fault silently rewrites a flow entry on the
/// mid-path switch hosting service-element replicas. The controller
/// must detect the forged forwarding, quarantine the switch, and
/// re-steer — and the settled dataplane (quarantine isolation
/// included) must audit clean.
fn run_tamper_quarantine(seed: u64) -> Vec<Violation> {
    let cfg = ScenarioConfig {
        seed,
        attest_every: 1,
        ..ScenarioConfig::default()
    };
    let mut scn = CampusScenario::build(cfg);
    // Let flow setup and steering converge before the compromise.
    scn.campus.world.run_for(SimDuration::from_secs(3));

    // as_switches[1] (dpid 2) hosts one IDS and one ProtoId replica —
    // tampering it forces the detour/quarantine machinery to re-steer
    // chained traffic through the replicas on switches 1 and 3.
    let victim = scn.campus.as_switches[1];
    let tamper_at = scn.campus.world.kernel().now() + SimDuration::from_millis(500);
    let plan = FaultPlan::new(seed ^ 0x7a3f).at(tamper_at, FaultKind::RuleTamper { node: victim });
    scn.campus
        .world
        .install_fault_plan(&plan)
        .expect("the tamper is scheduled ahead of the clock");

    // Run well past detection + quarantine + re-steering.
    scn.campus.world.run_for(SimDuration::from_secs(4));

    let quarantined = scn.campus.controller().quarantined();
    println!("[tamper-quarantine] quarantined dpids: {quarantined:?}");
    if quarantined != vec![2] {
        eprintln!("FAIL: expected the tampered switch (dpid 2) quarantined");
        std::process::exit(1);
    }
    report_snapshot(&scn, "tamper-quarantine");
    settle(&mut scn)
}

/// Chaos run: partitions, a crash-restart, and corrupted control
/// frames; the audit re-runs after every heal the simulator logs and
/// must come back clean each time.
fn run_chaos_heal(seed: u64) -> Vec<Violation> {
    let chaos = ChaosConfig {
        partition_stagger: SimDuration::from_secs(2),
        ..ChaosConfig::default()
    };
    let cfg = ScenarioConfig {
        seed,
        chaos: Some(chaos),
        ..ScenarioConfig::default()
    };
    let n_switches = cfg.n_ovs + 1; // wired OvS plus the wifi AP
    let mut scn = CampusScenario::build(cfg);

    let end = chaos.last_heal(n_switches) + SimDuration::from_secs(9);
    let mut audited_heals = 0usize;
    let mut violations = Vec::new();
    while scn.campus.world.kernel().now().as_nanos() < end.as_nanos() {
        scn.campus.world.run_for(SimDuration::from_secs(1));
        let heals = scn.campus.world.heal_times().len();
        if heals > audited_heals {
            audited_heals = heals;
            // Give reconciliation its settling time, then demand a
            // clean dataplane before moving on to the next fault.
            let vs = settle(&mut scn);
            println!(
                "[chaos-heal] after heal #{audited_heals}: {} violation(s)",
                vs.len()
            );
            violations.extend(vs);
        }
    }
    report_snapshot(&scn, "chaos-heal");
    violations.extend(settle(&mut scn));
    violations
}
