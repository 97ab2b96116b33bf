//! Counting global allocator.
//!
//! Counts allocation calls and requested bytes, but only while counting
//! is switched on: the end-to-end runs leave it off and pay one relaxed
//! load per allocation. A `realloc` counts as one allocation of its new
//! size. Counters are process-wide, so allocations made by the engine's
//! shard workers are included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// The three atomics publish no other data; they are statistics read
// between layer calls on the main thread, after the workers have joined.
static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if ON.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System` upholds the `GlobalAlloc` contract; the
// counting touches only the atomics above and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls and bytes requested since some earlier snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    pub calls: u64,
    pub bytes: u64,
}

/// Switch counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Relaxed);
}

/// Run `f` and return what it allocated (zero when counting is off).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let (c0, b0) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let out = f();
    let allocs = Allocs {
        calls: CALLS.load(Relaxed) - c0,
        bytes: BYTES.load(Relaxed) - b0,
    };
    (out, allocs)
}
