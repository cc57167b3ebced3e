//! A per-thread counting allocator for the root package's test
//! binaries that gate allocation (`decoder_fuzz`, `codec_alloc`).
//! Including this file installs it as the binary's global allocator.
//!
//! Allocations are counted per thread, so a harness's parallel tests do
//! not see each other's, and only while [`measure`] runs its closure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;

thread_local! {
    /// Allocation requests (`alloc`, `alloc_zeroed`, `realloc`) this
    /// thread made since [`measure`] last armed it.
    static CALLS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those requests asked for.
    static BYTES: Cell<usize> = const { Cell::new(0) };
    /// Set while a call is measured: the name of what is measured.
    static ARMED: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// No input in these suites justifies one request this large. Past it
/// the allocator refuses rather than let a lying length reserve
/// gigabytes: it names what was measured and returns null, and the
/// process aborts on the allocation failure.
const CEILING: usize = 64 << 20;

struct Counting;

fn note(size: usize) -> bool {
    let armed = ARMED.with(Cell::get);
    if armed.is_none() {
        return true;
    }
    CALLS.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get().saturating_add(size)));
    if size <= CEILING {
        return true;
    }
    ARMED.with(|a| a.set(None));
    let _ = writeln!(
        std::io::stderr(),
        "{} requested {size} bytes in one allocation, over the {CEILING}-byte ceiling",
        armed.unwrap_or("?"),
    );
    false
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, or returns null, which the
// contract allows; the bookkeeping touches only the thread-locals
// above, which are const-initialised and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !note(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !note(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `System` alloc.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !note(new_size) {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr`/`layout` come from a matching `System` alloc and
        // `new_size` is the caller's, passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What one measured call requested from the allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Allocated {
    /// Allocation requests, a `realloc` counted as one.
    pub calls: usize,
    /// Bytes requested, summed over the calls.
    pub bytes: usize,
}

/// What `f` requests from the allocator on this thread; `name` labels
/// it if a request breaks the ceiling.
pub fn measure(name: &'static str, f: impl FnOnce()) -> Allocated {
    CALLS.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    ARMED.with(|a| a.set(Some(name)));
    f();
    ARMED.with(|a| a.set(None));
    Allocated {
        calls: CALLS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}
