//! Counting global allocator with a per-thread "client" mark.
//!
//! The service workloads report server-side heap allocations per
//! request: every allocation made while counting is on, minus those made
//! on threads that marked themselves as the benchmark's own load
//! generator. The sim and fleet workloads leave counting off, so the
//! allocator costs them one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CLIENT: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if ON.load(Ordering::Relaxed) && !CLIENT.try_with(Cell::get).unwrap_or(false) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call defers to the system allocator unchanged; counting
// is a side effect that touches no returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract for `alloc` is passed on unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`; `new_size` is the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Marks the calling thread as load generator: its allocations are not
/// counted.
pub fn mark_client() {
    CLIENT.with(|c| c.set(true));
}

/// Counts allocations (outside client threads) made while `f` runs.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNT.load(Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    let out = f();
    ON.store(false, Ordering::SeqCst);
    (out, COUNT.load(Ordering::SeqCst) - before)
}

/// [`count`] with the calling thread marked as load generator while
/// `f` runs: only the server's threads are counted.
pub fn count_server<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let was = CLIENT.with(|c| c.replace(true));
    let out = count(f);
    CLIENT.with(|c| c.set(was));
    out
}
