//! Heap allocation counter: the system allocator, counting the bytes and
//! calls of allocations while switched on. The traced run switches it on
//! for its untraced rounds, so span bookkeeping is not counted; the
//! untraced run never switches it on and pays one relaxed load per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if ON.load(Relaxed) {
        BYTES.fetch_add(size as u64, Relaxed);
        CALLS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Switches counting on or off.
pub fn set_on(on: bool) {
    ON.store(on, Relaxed);
}

/// Bytes and calls counted so far.
pub fn totals() -> (u64, u64) {
    (BYTES.load(Relaxed), CALLS.load(Relaxed))
}
