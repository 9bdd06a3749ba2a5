//! A counting global allocator. It counts only while [`Counting`] is alive,
//! which the benchmark arranges only inside the traced run's runtime probe;
//! the rest of the time each allocation pays one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, plus allocation and byte counts while enabled.
pub struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        if ENABLED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(size as u64, Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counters
// are plain atomics that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// While alive, the global allocator counts allocations (reallocations
/// included) and requested bytes, process-wide. Only one may be alive at a
/// time; the counts are exact when one thread allocates.
pub struct Counting {
    allocs: u64,
    bytes: u64,
}

impl Counting {
    /// Start counting.
    pub fn start() -> Counting {
        let was = ENABLED.swap(true, Relaxed);
        assert!(!was, "only one allocation count may be open at a time");
        Counting {
            allocs: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    /// Allocations and bytes counted since [`Counting::start`].
    pub fn stop(self) -> (u64, u64) {
        let counts = (
            ALLOCS.load(Relaxed) - self.allocs,
            BYTES.load(Relaxed) - self.bytes,
        );
        drop(self);
        counts
    }
}

impl Drop for Counting {
    fn drop(&mut self) {
        ENABLED.store(false, Relaxed);
    }
}
