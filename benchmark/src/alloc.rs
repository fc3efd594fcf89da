//! The counting allocator: every heap allocation the process makes
//! bumps two process-wide counters. The benchmark reads them around
//! the steady-state slices (`allocs_per_pkt`, `alloc_bytes_per_pkt`)
//! and around every trace span, so a span's allocations are the
//! counter difference across it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Relaxed: the counters are statistics and publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, with allocation and requested-byte counters in front.
pub struct Counting;

#[inline]
fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` is heap traffic too: one allocation of the
        // new size.
        count(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` since process start.
#[inline]
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs the allocator too (see main.rs), so
    // the counters see this test's own allocations. Other tests
    // allocate concurrently: assert lower bounds only.
    #[test]
    fn counts_allocations_and_bytes() {
        let (a0, b0) = snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let (a1, b1) = snapshot();
        assert!(a1 > a0);
        assert!(b1 - b0 >= 4096);
        drop(v);
        let (a2, _) = snapshot();
        assert!(a2 >= a1, "frees are not counted as allocations");
    }

    #[test]
    fn realloc_counts_as_one_allocation_of_the_new_size() {
        let mut v: Vec<u8> = Vec::with_capacity(16);
        let (a0, b0) = snapshot();
        v.reserve_exact(1 << 16);
        let (a1, b1) = snapshot();
        assert!(a1 > a0);
        assert!(b1 - b0 >= 1 << 16);
    }
}
