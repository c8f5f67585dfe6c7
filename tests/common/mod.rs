//! Per-thread heap-allocation counting shared by the integration tests.
//!
//! Declaring `mod common;` installs [`CountingAllocator`] as the test
//! binary's global allocator.  The count is kept per thread, so allocations
//! made on other threads — a sibling test running an 8-worker engine, say —
//! never leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations made by the current thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every heap allocation per thread, then delegates to the system
/// allocator.
struct CountingAllocator;

// SAFETY: delegates verbatim to the system allocator; the counter is a
// const-initialised thread-local `Cell` that never allocates and has no
// destructor, so it is usable at any point of a thread's life.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many heap allocations it made on the calling
/// thread, together with its result.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (ALLOCATIONS.with(Cell::get) - before, value)
}
