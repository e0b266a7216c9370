//! Counting global allocator: live and peak heap bytes for
//! `peak_heap_mb`. The benchmark is single-threaded, so the counters are
//! statistics only and publish no other data (`Relaxed` throughout).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Starts a peak window at the current live heap; returns that baseline.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Peak live heap since the last [`reset_peak`], in bytes.
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

/// Checks that the allocator sees a known allocation: a 16 MiB buffer
/// must raise the peak above the baseline by at least its size, and
/// freeing it must return the live count to the baseline.
pub fn self_check() -> Result<(), String> {
    const N: usize = 16 << 20;
    let base = reset_peak();
    let buf = std::hint::black_box(vec![1u8; N]);
    let seen = peak() - base;
    drop(buf);
    let after = LIVE.load(Relaxed);
    if seen < N || after != base {
        return Err(format!(
            "heap counter self-check: saw {seen} B of a {N} B allocation, live {after} B after free vs {base} B before"
        ));
    }
    Ok(())
}
