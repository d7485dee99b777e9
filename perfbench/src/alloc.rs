//! A counting global allocator for traced runs.
//!
//! Every allocation (and every reallocation, counted as a new allocation of
//! its new size) is charged to the layer of the innermost open span
//! ([`crate::span::current`]). Counting is off unless [`set_counting`]
//! turned it on, so untraced runs pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::span::{self, LAYERS};

/// Forwards to the system allocator and counts calls per layer.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNT: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static BYTES: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];

#[inline]
fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let layer = span::current();
        COUNT[layer].fetch_add(1, Ordering::Relaxed);
        BYTES[layer].fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Takes the per-layer allocation counts and bytes, resetting them.
pub fn take() -> ([u64; LAYERS], [u64; LAYERS]) {
    let count = std::array::from_fn(|i| COUNT[i].swap(0, Ordering::Relaxed));
    let bytes = std::array::from_fn(|i| BYTES[i].swap(0, Ordering::Relaxed));
    (count, bytes)
}
