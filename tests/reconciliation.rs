//! Property: flow-table reconciliation converges for *any* fault
//! schedule. Arbitrary combinations of control-channel partitions and
//! switch power-cycles are thrown at the campus; after the dust
//! settles, every switch's installed flow table must equal the
//! controller's desired state for that switch — no stale entries left
//! behind by a partition (so no flow can keep being served from state
//! the controller no longer believes in), nothing missing after a
//! wipe.
//!
//! The vendored proptest stand-in runs a fixed global number of cases
//! per `proptest!` block, which is far too many for whole-campus
//! simulations, so this test drives the same strategy machinery
//! through a small set of deterministic case seeds instead.

#[path = "support/switch_book.rs"]
mod switch_book;

use livesec_suite::prelude::*;
use livesec_switch::AsSwitch;
use livesec_workloads::{CampusScenario, ScenarioConfig};
use proptest::strategy::{Strategy, TestRng};
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Mirror of the controller's untracked self-expiring deny tag: deny
/// entries are excluded from audits, so they are excluded here too.
const DENY_COOKIE: u64 = 4;

#[derive(Clone, Debug)]
struct Outage {
    switch: usize,
    start_ms: u64,
    len_ms: u64,
}

#[derive(Clone, Debug)]
struct Schedule {
    outages: Vec<Outage>,
    crash: Option<(usize, u64)>,
}

fn arb_schedule() -> impl Strategy<Value = Schedule> {
    let outage =
        (0usize..4, 1_000u64..8_000, 500u64..5_000).prop_map(|(switch, start_ms, len_ms)| Outage {
            switch,
            start_ms,
            len_ms,
        });
    (
        proptest::collection::vec(outage, 1..5),
        proptest::option::of((0usize..4, 1_000u64..9_000)),
    )
        .prop_map(|(outages, crash)| Schedule { outages, crash })
}

/// Does every switch's installed table (minus self-expiring deny
/// entries) equal the controller's desired state for it?
fn converged(campus: &Campus) -> bool {
    let c = campus.controller();
    for &node in &campus.as_switches {
        let Some(dpid) = c.topology().dpid_of_node(node) else {
            return false; // a switch never re-registered
        };
        let want: BTreeSet<(String, u16)> = c
            .desired_entries(dpid)
            .into_iter()
            .map(|(m, p, _)| (m.to_string(), p))
            .collect();
        let have: BTreeSet<(String, u16)> = campus
            .world
            .node::<AsSwitch>(node)
            .table()
            .iter()
            .filter(|e| e.cookie != DENY_COOKIE)
            .map(|e| (e.matcher.to_string(), e.priority))
            .collect();
        if want != have {
            return false;
        }
    }
    true
}

fn check_schedule(case: u64, schedule: &Schedule) {
    let mut s = CampusScenario::build(ScenarioConfig {
        seed: case,
        // No BitTorrent phase: steady light traffic keeps the run fast.
        torrent_at: SimDuration::from_secs(3_600),
        // Entries never idle out within the horizon, so every installed
        // entry is pinned by an active record and desired state equals
        // installed state exactly (no teardown in flight to race with).
        flow_idle: SimDuration::from_secs(120),
        ..ScenarioConfig::default()
    });

    let mut plan = FaultPlan::new(case ^ 0x0fa);
    let mut last_ns = 0u64;
    for o in &schedule.outages {
        let node = s.campus.as_switches[o.switch];
        let start = o.start_ms * 1_000_000;
        let end = (o.start_ms + o.len_ms) * 1_000_000;
        plan.push(
            SimTime::from_nanos(start),
            FaultKind::PartitionControl { node },
        );
        plan.push(SimTime::from_nanos(end), FaultKind::HealControl { node });
        last_ns = last_ns.max(end);
    }
    if let Some((idx, at_ms)) = schedule.crash {
        let node = s.campus.as_switches[idx];
        let at = at_ms * 1_000_000;
        plan.push(SimTime::from_nanos(at), FaultKind::CrashRestart { node });
        last_ns = last_ns.max(at);
    }
    s.campus
        .world
        .install_fault_plan(&plan)
        .expect("valid fault plan");

    // Run through the whole schedule plus the worst-case reconnect
    // backoff (capped at 8 s), then give the audit a beat.
    s.campus
        .world
        .run_for(SimDuration::from_nanos(last_ns + 12_000_000_000));

    // Convergence, not instantaneous equality: a flow set up in the
    // last few hundred microseconds may have its flow-mods still in
    // flight, so the check is retried over a bounded settling window.
    let mut ok = converged(&s.campus);
    for _ in 0..30 {
        if ok {
            break;
        }
        s.campus.world.run_for(SimDuration::from_millis(100));
        ok = converged(&s.campus);
    }
    let c = s.campus.controller();
    let h = c.health_stats();
    assert!(
        ok,
        "case {case}: tables did not converge to desired state\n\
         schedule: {schedule:?}\nhealth: {h:?}"
    );
    assert_eq!(
        h.switch_ups, h.switch_downs,
        "case {case}: a switch stayed down: {h:?}"
    );
    assert_eq!(
        h.switches_online, 4,
        "case {case}: not every switch re-registered: {h:?}"
    );
    assert!(
        c.monitor().of_tag("flow_start").count() > 0,
        "case {case}: the run carried no traffic at all"
    );
    switch_book::assert_switch_book(c);
}

#[test]
fn reconciliation_converges_for_any_fault_schedule() {
    let strat = arb_schedule();
    for case in 0..8u64 {
        let mut rng = TestRng::seed_from_u64(0x5eed ^ case);
        let schedule = strat.generate(&mut rng);
        check_schedule(case, &schedule);
    }
}
