//! Integration: whole-system determinism. Two runs of the full campus
//! scenario from the same seed must produce byte-identical event
//! histories — the property that makes every experiment in this
//! repository reproducible.

use livesec_suite::prelude::*;
use livesec_workloads::{CampusScenario, ScenarioConfig};

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

/// Runs the scenario under an n-shard control plane (`shards = 0`
/// means the plain unsharded controller) and returns the monitor
/// history both as recorded (shard-tagged) and with the tags scrubbed.
fn sharded_history(seed: u64, shards: u32, secs: u64) -> (String, String) {
    let mut s = CampusScenario::build(ScenarioConfig {
        seed,
        shards,
        flow_idle: SimDuration::from_millis(300),
        ..ScenarioConfig::default()
    });
    s.campus.world.run_for(SimDuration::from_secs(secs));
    let m = s.campus.controller().monitor();
    (m.to_json(), m.to_json_untagged())
}

/// The sharding golden trace, part 1: a 1-shard plane is the plain
/// controller. Not just "same events" — the serialized history must be
/// byte-identical, tags included (a single shard is shard 0, and zero
/// tags are not serialized), so pre-sharding baselines stay valid.
#[test]
fn one_shard_plane_matches_the_single_controller_baseline() {
    let (plain, _) = sharded_history(42, 0, 6);
    let (one_shard, one_shard_untagged) = sharded_history(42, 1, 6);
    assert_eq!(
        plain, one_shard,
        "a 1-shard plane must be byte-identical to the unsharded controller"
    );
    assert_eq!(one_shard, one_shard_untagged, "one shard never tags");
}

/// The sharding golden trace, part 2: shard count is invisible. The
/// baseline (3 s, steady traffic) and service-chain (6 s, torrent
/// switch + attack verdict landed) scenarios must produce identical
/// histories at 1, 2 and 4 shards — modulo the shard-id tags, which
/// are routing bookkeeping, not behaviour.
#[test]
fn histories_agree_across_shard_counts_modulo_tags() {
    for secs in [3u64, 6] {
        let (plain, _) = sharded_history(42, 0, secs);
        let mut tagged_somewhere = false;
        for shards in [1u32, 2, 4] {
            let (tagged, untagged) = sharded_history(42, shards, secs);
            assert_eq!(
                plain, untagged,
                "{shards}-shard history diverged from the unsharded run ({secs}s scenario)"
            );
            tagged_somewhere |= tagged != untagged;
        }
        // The comparison is only meaningful if routing actually spread
        // events over non-zero shards somewhere.
        assert!(
            tagged_somewhere,
            "no event was ever handled off shard 0 ({secs}s scenario)"
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
