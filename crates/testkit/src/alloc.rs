//! Allocation-counting global allocator for steady-state tests.
//!
//! The simulation loop promises *zero steady-state allocation*: once its
//! scratch buffers (egress buffers, timeout lists, utilization samples)
//! have grown to their working size, processing more packets must
//! not touch the allocator. That invariant is easy to break silently — a
//! stray `Vec::new()` in a hot path compiles fine and benches "okay" — so
//! it is enforced by a test hook instead: install [`CountingAllocator`] as
//! the `#[global_allocator]` of a test binary and compare
//! [`CountingAllocator::allocations`] deltas around the region of interest.
//!
//! ```ignore
//! use albatross_testkit::alloc::CountingAllocator;
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! #[test]
//! fn steady_state_does_not_allocate() {
//!     warm_up();
//!     let before = CountingAllocator::allocations();
//!     hot_loop();
//!     let after = CountingAllocator::allocations();
//!     assert!(after - before < SMALL_SLACK);
//! }
//! ```
//!
//! The allocation count is per thread: a test harness allocates on its own
//! threads while a test runs (reporting results, spawning the next test),
//! and those allocations never count into the calling thread's deltas. The
//! deallocation and byte counters are process-wide relaxed atomics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialized and drop-free, so touching it from inside the
    // allocator never allocates.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation(bytes: usize) {
    BYTES_ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    // An allocation during thread teardown goes uncounted.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// A [`System`]-backed allocator that counts every allocation.
///
/// Zero-sized and `const`-constructible so it can be a
/// `#[global_allocator]` static.
#[derive(Debug)]
pub struct CountingAllocator;

impl CountingAllocator {
    /// Creates the allocator (zero-sized; counters are global statics).
    pub const fn new() -> Self {
        Self
    }

    /// Allocation calls (`alloc` + `realloc`) the calling thread has made
    /// since it started; other threads never count into its deltas.
    pub fn allocations() -> u64 {
        THREAD_ALLOCATIONS.with(Cell::get)
    }

    /// Total deallocation calls since process start.
    pub fn deallocations() -> u64 {
        DEALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Total bytes requested from the allocator since process start.
    pub fn bytes_allocated() -> u64 {
        BYTES_ALLOCATED.load(Ordering::Relaxed)
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: defers entirely to `System`; the counter updates are lock-free
// atomics and a const thread-local cell, and perform no allocation
// themselves.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }
}
