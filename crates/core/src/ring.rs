//! Deterministic consistent-hash ring mapping switches to controller
//! shards.
//!
//! The sharded control plane (DESIGN.md §9) partitions the AS layer
//! across N shards. Ownership must be a pure function of the key and
//! the live shard set — independent of insertion order, host platform,
//! or process history — so every component (the plane, the tests, the
//! bench) computes the same assignment. The ring hashes each shard to
//! a fixed set of virtual points (64 per shard) with a splitmix64
//! finalizer and assigns a key to the first point clockwise from the
//! key's own hash. Removing a shard removes only its points, so only
//! keys that landed on those points move (≈K/N of them), and they move
//! to the next surviving point — never back to the departed shard.

/// Virtual points per shard. More points smooth the partition sizes;
/// 64 keeps the worst observed imbalance under ~20% at 8 shards.
const VNODES: u64 = 64;

/// splitmix64 finalizer: a cheap, well-distributed, platform-stable
/// 64-bit mix (the same construction the sim kernel's RNG seeds with).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Domain separation tags so a switch key and a shard's virtual points
/// hash to unrelated positions even for equal integer inputs.
const DOMAIN_DPID: u64 = 0x6470_6964; // "dpid"
const DOMAIN_SHARD: u64 = 0x0073_6861_7264; // "shard"

/// A deterministic consistent-hash ring over shard ids.
///
/// ```rust
/// use livesec::ring::HashRing;
///
/// let ring = HashRing::new(4);
/// let owner = ring.shard_of_dpid(7);
/// assert!(owner < 4);
/// // Assignment is a pure function: a fresh ring agrees.
/// assert_eq!(HashRing::new(4).shard_of_dpid(7), owner);
/// ```
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, shard)` sorted by point; ties cannot occur in practice
    /// (splitmix64 over distinct inputs) but sorting by the pair keeps
    /// even that case deterministic.
    points: Vec<(u64, u32)>,
    /// Shards currently in the ring, ascending.
    shards: Vec<u32>,
}

impl HashRing {
    /// A ring over shards `0..n` (n ≥ 1).
    pub fn new(n: u32) -> Self {
        Self::of(&(0..n).collect::<Vec<_>>())
    }

    /// A ring over exactly the given shard ids (non-empty). The
    /// resulting assignment depends only on the id *set* — insertion
    /// order is irrelevant, which is what makes rebuilt rings (e.g.
    /// after failover bookkeeping) interchangeable with evolved ones.
    pub fn of(shards: &[u32]) -> Self {
        assert!(!shards.is_empty(), "a ring needs at least one shard");
        let mut ring = HashRing {
            points: Vec::new(),
            shards: Vec::new(),
        };
        for &shard in shards {
            ring.add_shard(shard);
        }
        ring
    }

    /// Adds a shard's virtual points. Idempotent.
    fn add_shard(&mut self, shard: u32) {
        if self.shards.contains(&shard) {
            return;
        }
        for v in 0..VNODES {
            let point = splitmix64(
                splitmix64(DOMAIN_SHARD ^ u64::from(shard).wrapping_mul(0x1_0000_0001)) ^ v,
            );
            self.points.push((point, shard));
        }
        self.points.sort_unstable();
        self.shards.push(shard);
        self.shards.sort_unstable();
    }

    /// Removes a shard's virtual points; keys it owned move to the next
    /// surviving point clockwise. Removing the last shard is an error.
    pub fn remove_shard(&mut self, shard: u32) {
        assert!(
            self.shards.len() > 1 || !self.shards.contains(&shard),
            "cannot remove the last shard"
        );
        self.points.retain(|&(_, s)| s != shard);
        self.shards.retain(|&s| s != shard);
    }

    /// Shards currently in the ring, ascending.
    pub fn shards(&self) -> &[u32] {
        &self.shards
    }

    /// Number of shards in the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the ring has no shards (never true for a `new` ring).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning an arbitrary pre-hashed point.
    fn owner_of(&self, hash: u64) -> u32 {
        debug_assert!(!self.points.is_empty(), "ring has no points");
        // First point at or clockwise past the key's hash, wrapping.
        let (Ok(i) | Err(i)) = self.points.binary_search(&(hash, 0));
        self.points
            .get(i)
            .or(self.points.first())
            .map_or(0, |&(_, shard)| shard)
    }

    /// The shard owning a switch (by datapath id).
    pub fn shard_of_dpid(&self, dpid: u64) -> u32 {
        self.owner_of(splitmix64(splitmix64(DOMAIN_DPID) ^ dpid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::new(1);
        for d in 0..100 {
            assert_eq!(ring.shard_of_dpid(d), 0);
        }
    }

    #[test]
    fn assignment_is_reproducible() {
        let a = HashRing::new(4);
        let b = HashRing::new(4);
        for d in 0..1000 {
            assert_eq!(a.shard_of_dpid(d), b.shard_of_dpid(d));
        }
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let forward = HashRing::new(4);
        let mut shuffled = HashRing::new(1); // starts with shard 0
        shuffled.add_shard(3);
        shuffled.add_shard(2);
        shuffled.add_shard(1);
        for d in 0..1000 {
            assert_eq!(forward.shard_of_dpid(d), shuffled.shard_of_dpid(d));
        }
    }

    #[test]
    fn partitions_are_roughly_balanced() {
        let ring = HashRing::new(4);
        let mut counts = [0usize; 4];
        for d in 0..10_000u64 {
            counts[ring.shard_of_dpid(d) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (1_500..=3_500).contains(&c),
                "partition sizes out of band: {counts:?}"
            );
        }
    }

    #[test]
    fn removal_never_routes_to_departed_shard() {
        let mut ring = HashRing::new(4);
        ring.remove_shard(2);
        for d in 0..5_000 {
            assert_ne!(ring.shard_of_dpid(d), 2);
        }
    }

    #[test]
    fn removal_moves_only_the_departed_shards_keys() {
        let before = HashRing::new(4);
        let mut after = HashRing::new(4);
        after.remove_shard(1);
        for d in 0..5_000 {
            let was = before.shard_of_dpid(d);
            let is = after.shard_of_dpid(d);
            if was != 1 {
                assert_eq!(was, is, "key {d} moved although its shard survived");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = HashRing::new(0);
    }
}
