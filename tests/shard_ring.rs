//! Property tests for the control plane's consistent-hash ring
//! ([`livesec::HashRing`]): the structure that decides which shard
//! owns which switch.
//!
//! The properties pinned here are exactly what makes shard failover
//! cheap and deterministic:
//!
//! 1. removing a shard remaps *only* that shard's keys (≈K/N of them)
//!    — every other key keeps its owner, so a failover re-homes only
//!    the dead shard's switches;
//! 2. no key ever resolves to a departed shard, however many shards
//!    have been removed;
//! 3. the assignment depends only on the shard *set*, never on the
//!    order shards were added in.

use livesec::HashRing;
use proptest::prelude::*;

/// The owner of each switch key.
fn owners(ring: &HashRing, keys: &[u64]) -> Vec<u32> {
    keys.iter().map(|&k| ring.shard_of_dpid(k)).collect()
}

proptest! {
    /// Property 1: removing one shard remaps only its own keys.
    #[test]
    fn removal_remaps_only_the_departed_shards_keys(
        n in 2u32..=8,
        dead_pick in 0u32..8,
        keys in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        let mut ring = HashRing::new(n);
        let dead = dead_pick % n;
        let before = owners(&ring, &keys);
        ring.remove_shard(dead);
        let after = owners(&ring, &keys);
        for (key, (&old, &new)) in keys.iter().zip(before.iter().zip(after.iter())) {
            prop_assert!(new != dead, "key {} routed to the dead shard", key);
            if old != dead {
                prop_assert_eq!(old, new, "survivor's key {} was remapped", key);
            }
        }
    }

    /// Property 2: under repeated failures (down to a single survivor)
    /// every key still resolves, and only to live shards.
    #[test]
    fn keys_never_resolve_to_departed_shards(
        n in 2u32..=8,
        kill_order in proptest::collection::vec(any::<u32>(), 7),
        keys in proptest::collection::vec(any::<u64>(), 1..100),
    ) {
        let mut ring = HashRing::new(n);
        let mut live: Vec<u32> = (0..n).collect();
        for pick in kill_order {
            if live.len() == 1 {
                break;
            }
            let dead = live.remove(pick as usize % live.len());
            ring.remove_shard(dead);
            for owner in owners(&ring, &keys) {
                prop_assert!(live.contains(&owner), "owner {} is dead", owner);
            }
        }
    }

    /// Property 3: the assignment is a function of the shard set, not
    /// of insertion order.
    #[test]
    fn assignment_is_insertion_order_independent(
        n in 2u32..=8,
        priorities in proptest::collection::vec(any::<u64>(), 8),
        keys in proptest::collection::vec(any::<u64>(), 1..100),
    ) {
        // `HashRing::new(n)` inserts 0..n in order; build the same set
        // in an arbitrary permutation (ids sorted by random priority).
        let reference = HashRing::new(n);
        let mut ids: Vec<u32> = (0..n).collect();
        ids.sort_by_key(|&id| priorities[id as usize]);
        let shuffled = HashRing::of(&ids);
        prop_assert_eq!(owners(&reference, &keys), owners(&shuffled, &keys));
    }
}

/// The ≈K/N sizing claim, pinned deterministically: with 64 vnodes per
/// shard, per-shard ownership of a large key population stays within a
/// factor of two of the ideal even share.
#[test]
fn ownership_is_roughly_balanced() {
    for n in [2u32, 4, 8] {
        let ring = HashRing::new(n);
        let keys: u64 = 10_000;
        let mut counts = vec![0u64; n as usize];
        for k in 0..keys {
            counts[ring.shard_of_dpid(k) as usize] += 1;
        }
        let ideal = keys / u64::from(n);
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                c >= ideal / 2 && c <= ideal * 2,
                "shard {shard}/{n} owns {c} of {keys} keys (ideal {ideal})"
            );
        }
    }
}

/// The scale-out floor: a packet-in belongs to its ingress switch's
/// owner, so on a 1000-switch campus 4 shards split the set-up work at
/// least 3× only if no shard owns more than 333 switches. (The largest
/// owns 266.)
#[test]
fn four_shards_split_a_thousand_switches_at_least_three_ways() {
    let ring = HashRing::new(4);
    let mut owned = [0u32; 4];
    for dpid in 1..=1_000 {
        owned[ring.shard_of_dpid(dpid) as usize] += 1;
    }
    assert!(
        owned.iter().all(|&n| n <= 333),
        "dpids per shard: {owned:?}"
    );
}
