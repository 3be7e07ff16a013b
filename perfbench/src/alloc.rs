//! A counting wrapper around the system allocator: allocation count and
//! peak live heap bytes, for the per-layer ledger.
//!
//! Counting is off unless [`enable`] was called, so end-to-end runs pay
//! one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

// Every atomic here is a statistic that publishes no other data, so
// `Relaxed` is enough throughout.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The process allocator: [`System`] plus optional counting.
pub struct Counting;

impl Counting {
    fn grew(size: usize) {
        ALLOCS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(size, Relaxed) + size;
        PEAK.fetch_max(live, Relaxed);
    }

    fn shrank(size: usize) {
        // Blocks allocated before counting started can be freed after it;
        // saturate instead of wrapping.
        let _ = LIVE.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(size)));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters are plain
// atomics touched only after the forwarded call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which hands out only
        // `System` blocks, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if ENABLED.load(Relaxed) {
            Self::shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` obeys the caller's contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            Self::shrank(layout.size());
            Self::grew(new_size);
        }
        p
    }
}

/// Start counting. Blocks allocated earlier are invisible to the peak.
pub fn enable() {
    ENABLED.store(true, Relaxed);
}

/// Allocations (including reallocations) counted so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Highest live heap size seen since counting started, in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}
