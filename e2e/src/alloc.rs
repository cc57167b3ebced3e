//! Counting global allocator: every heap allocation of the benchmark
//! process (the simulator, the controller, the workload apps) passes
//! through here, so allocation counts and peak live heap are measured
//! from outside the program and repeat exactly for a deterministic run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Forwards to [`System`] and counts. The benchmark is one thread, and
/// the counters publish no other data, so `Relaxed` is enough.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(size: usize) {
    LIVE.fetch_sub(size as u64, Relaxed);
}

// The repo's own analyzer (crates/lint) parses every `.rs` file under
// the root, and its parser has no `unsafe impl` — the workspace it was
// written for forbids unsafe code. A macro body is opaque to it; the
// macro has no other purpose.
macro_rules! unsafe_impl {
    ($($item:tt)*) => { unsafe impl $($item)* };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates touch
// only the atomics above and never the returned memory.
unsafe_impl! { GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on
        // this allocator, which was `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One allocator call, counted as one allocation of the new size.
        shrink(layout.size());
        grow(new_size);
        // SAFETY: `ptr`/`layout` come from a matching `System` alloc and
        // `new_size` is the caller's, passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
} }

/// A reading of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocator calls that returned memory (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes live right now.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Restarts peak tracking from the current live size (start of a rep).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
