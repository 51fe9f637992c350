//! Counting-allocator pin for the decoder's up-front reservations: a
//! crafted file of nested collections, each claiming as many elements as
//! there are bytes left, must come back `Malformed` having requested only
//! a small multiple of its own size — not one reservation of
//! `claimed × size_of::<Value>()` per nesting level.
//!
//! This file holds exactly one `#[test]` because the `#[global_allocator]`
//! counts every allocation in the process; concurrent tests would pollute
//! the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use glacsweb_snapshot::{crc32, from_bytes, SnapshotError, MAGIC, SCHEMA_VERSION};
use serde::Value;

struct PeakAllocator;

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Most bytes allocated at once since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// Payload tags from the envelope format (see the crate docs).
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;
/// Not a tag at all: the innermost collection's first element fails on it.
const TAG_BAD: u8 = 0xFF;

/// A snapshot whose payload is `depth` nested collections of `tag`, each
/// claiming the most elements the bytes after it could hold
/// (`per_element` bytes each), around `filler` bytes of garbage.
fn crafted(tag: u8, per_element: u64, depth: usize, filler: usize) -> Vec<u8> {
    let mut payload = Vec::with_capacity(depth * 9 + filler);
    for level in 0..depth {
        let after = ((depth - level - 1) * 9 + filler) as u64;
        payload.push(tag);
        payload.extend_from_slice(&(after / per_element).to_le_bytes());
    }
    payload.resize(payload.len() + filler, TAG_BAD);
    let mut bytes = Vec::with_capacity(24 + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

/// Decodes `bytes`, returning the result and the peak bytes requested
/// on top of what was live beforehand.
fn decode_peak(bytes: &[u8]) -> (Result<Value, SnapshotError>, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = from_bytes::<Value>(bytes);
    (result, PEAK.load(Ordering::Relaxed) - before)
}

#[test]
fn nested_collection_claims_reserve_a_bounded_multiple_of_the_file() {
    const FILE_BYTES: usize = 5_000_000;
    for (tag, per_element) in [(TAG_SEQ, 1), (TAG_MAP, 2)] {
        let bytes = crafted(tag, per_element, 100, FILE_BYTES);
        let (result, peak) = decode_peak(&bytes);
        assert!(
            matches!(result, Err(SnapshotError::Malformed(_))),
            "tag {tag}: expected Malformed, got {result:?}"
        );
        assert!(
            peak <= 2 * bytes.len(),
            "tag {tag}: decoding a {}-byte file requested {peak} bytes at peak",
            bytes.len()
        );
    }
}
