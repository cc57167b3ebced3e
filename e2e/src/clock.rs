//! The benchmark's only wall clock, and the fixed-work calibration
//! kernel that tells a slow host phase from a slow program.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the root clippy.toml bans wall clocks from the simulation; timing the simulation from outside is this module's whole job"
)]

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::OnceLock;
// livesec-lint: allow(wall-clock, reason = "the benchmark measures the simulator's host cost; this is its one wall-clock source")
use std::time::Instant;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds of wall time since the first call.
pub fn now_ns() -> u64 {
    // livesec-lint: allow(wall-clock, reason = "the single wall-clock read every timing in the benchmark goes through")
    let anchor = *ANCHOR.get_or_init(Instant::now);
    anchor.elapsed().as_nanos() as u64
}

/// Wall time of `f`, in nanoseconds, with its result.
pub fn time<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = now_ns();
    let r = f();
    (now_ns() - t0, r)
}

/// What [`calibrate`] reads on this host (2-vCPU Xeon @ 2.1 GHz
/// microVM) in a quiet moment. The two host-clock metrics are scaled by
/// `calibration / CALIBRATION_REFERENCE_NS`; on the reference host in a
/// quiet phase that factor is 1.
pub const CALIBRATION_REFERENCE_NS: u64 = 10_600_000;

/// Times a fixed amount of work that depends on nothing the repo ships
/// but leans on the host the way the simulator does: a binary heap
/// pushed and popped, a hash map of small heap-allocated values
/// inserted, replaced and probed (fixed hasher keys, so the work is the
/// same every time). This host runs one binary 1.2-1.5x slower for
/// minutes at a time with nothing changed, and the slow phases hit
/// allocation- and cache-heavy code hardest; the fastest calibration
/// of a run tracks the fastest the run's own reps could go (r = 0.7-0.9
/// over runs of 5-8 reps, README.md), which a small ALU loop did not
/// (r = 0.24).
pub fn calibrate() -> u64 {
    type FixedState = BuildHasherDefault<DefaultHasher>;
    let (ns, sum) = time(|| {
        let mut heap = BinaryHeap::new();
        let mut map: HashMap<u64, Vec<u8>, FixedState> = HashMap::default();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0usize;
        for i in 0..60_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            heap.push(Reverse((x >> 20, i)));
            map.insert(x % 4096, vec![0u8; 64 + (x % 200) as usize]);
            if i % 2 == 1 {
                acc += heap.pop().map_or(0, |Reverse((key, _))| key as usize);
            }
            acc += map.get(&(x % 4099)).map_or(0, Vec::len);
        }
        acc + heap.len() + map.len()
    });
    black_box(sum);
    ns
}
