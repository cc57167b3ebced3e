//! Integration: whole-system determinism. Two runs of the full campus
//! scenario from the same seed must produce byte-identical event
//! histories — the property that makes every experiment in this
//! repository reproducible.

use livesec_suite::prelude::*;
use livesec_workloads::{CampusScenario, ChaosConfig, ScenarioConfig};

fn run_history(seed: u64) -> (String, FastPathStats) {
    let mut s = CampusScenario::build(ScenarioConfig {
        seed,
        // Entries idle out between requests (clients think for
        // 400 ms), so recurring flows re-enter setup.
        flow_idle: SimDuration::from_millis(300),
        ..ScenarioConfig::default()
    });
    s.campus.world.run_for(SimDuration::from_secs(6));
    let c = s.campus.controller();
    (c.monitor().to_json(), c.fast_path_stats())
}

#[test]
fn identical_seeds_reproduce_identical_histories() {
    let ((a, _), (b, _)) = (run_history(42), run_history(42));
    assert_eq!(a, b, "same seed, same history, byte for byte");
}

/// The controller keeps no decision cache: every flow setup is decided
/// cold, and a same-seed rerun sets up the same flows and reports the
/// same (cache-free) fast-path counters, not just the same history.
#[test]
fn identical_seeds_reproduce_identical_histories_without_the_cache() {
    let ((a, stats_a), (b, stats_b)) = (run_history(42), run_history(42));
    assert_eq!(a, b, "same seed, same history, byte for byte");
    assert_eq!(stats_a, stats_b, "same seed, same fast-path counters");
    assert!(stats_a.flow_setups > 0, "no flow was set up: {stats_a:?}");
    assert_eq!(
        (stats_a.hits, stats_a.misses, stats_a.entries),
        (0, 0, 0),
        "a decision cache reported activity: {stats_a:?}"
    );
}

/// Runs `cfg` under an n-shard control plane (`shards = 0` means the
/// plain unsharded controller) for `secs`.
fn sharded(cfg: ScenarioConfig, shards: u32, secs: u64) -> CampusScenario {
    let mut s = CampusScenario::build(ScenarioConfig { shards, ..cfg });
    s.campus.world.run_for(SimDuration::from_secs(secs));
    s
}

/// The monitor history of [`sharded`].
fn sharded_history(cfg: ScenarioConfig, shards: u32, secs: u64) -> String {
    sharded(cfg, shards, secs)
        .campus
        .controller()
        .monitor()
        .to_json()
}

/// The fault-free campus of `run_history`.
fn calm() -> ScenarioConfig {
    ScenarioConfig {
        seed: 42,
        flow_idle: SimDuration::from_millis(300),
        ..ScenarioConfig::default()
    }
}

/// The sharding golden trace, part 1: a 1-shard plane is the plain
/// controller. Not just "same events" — the serialized history must be
/// byte-identical, so pre-sharding baselines stay valid.
#[test]
fn one_shard_plane_matches_the_single_controller_baseline() {
    for secs in [3u64, 6] {
        assert_eq!(
            sharded_history(calm(), 0, secs),
            sharded_history(calm(), 1, secs),
            "a 1-shard plane must be byte-identical to the unsharded controller ({secs}s)"
        );
    }
}

/// The sharding golden trace, part 2: shard count is invisible. The
/// baseline (3 s, steady traffic) and service-chain (6 s, torrent
/// switch + attack verdict landed) scenarios must produce histories at
/// 2 and 4 shards that agree with the unsharded controller's. Events
/// carry no shard tag, so agreeing modulo tags means byte-identical.
#[test]
fn histories_agree_across_shard_counts_modulo_tags() {
    for secs in [3u64, 6] {
        let plain = sharded_history(calm(), 0, secs);
        for shards in [2u32, 4] {
            let s = sharded(calm(), shards, secs);
            assert_eq!(
                plain,
                s.campus.controller().monitor().to_json(),
                "{shards}-shard history diverged from the unsharded run ({secs}s scenario)"
            );
            if shards < 4 {
                continue;
            }
            // The comparison is only meaningful if the switches span
            // owners and set-ups actually crossed shards.
            let plane = s.campus.shard_plane().expect("campus is sharded");
            let owners = plane
                .shard_stats()
                .iter()
                .filter(|st| !st.owned.is_empty())
                .count();
            assert!(owners >= 2, "one shard owns every switch ({secs}s)");
            assert!(plane.handoffs() > 0, "no flow crossed shards ({secs}s)");
        }
    }
}

/// Sharding under faults: the default chaos plan (partitions, corrupted
/// frames, a power-cycled switch) with attestations on gives histories
/// at 1, 2 and 4 shards byte-identical to the unsharded one. No
/// `ShardDown` is scheduled, so the plane may change nothing.
#[test]
fn faulted_attested_histories_are_byte_identical_at_every_shard_count() {
    let chaos = ScenarioConfig {
        seed: 42,
        chaos: Some(ChaosConfig::default()),
        attest_every: 16,
        ..ScenarioConfig::default()
    };
    // Past the plan's last heal (27 s on this campus) and its recovery.
    let secs = 30;
    let plain = sharded(chaos, 0, secs);
    let c = plain.campus.controller();
    assert!(
        c.health_stats().switch_downs > 0 && c.accountability_stats().attestations_seen > 0,
        "the chaos plan took no switch down or no switch attested"
    );
    let plain = c.monitor().to_json();
    for shards in [1u32, 2, 4] {
        assert_eq!(
            plain,
            sharded_history(chaos, shards, secs),
            "{shards}-shard faulted history diverged from the unsharded run"
        );
    }
}

#[test]
fn different_seeds_still_reproduce_the_same_shape() {
    // Different seeds change identities/ordering details but the
    // scenario's structure holds.
    let mut s = CampusScenario::build(ScenarioConfig {
        seed: 1337,
        ..ScenarioConfig::default()
    });
    s.campus.world.run_for(SimDuration::from_secs(6));
    let summary = s.campus.controller().monitor().summary();
    assert_eq!(summary.get("switch_join").copied(), Some(4));
    assert_eq!(summary.get("se_online").copied(), Some(4));
    assert!(summary.get("flow_start").copied().unwrap_or(0) > 5);
}
