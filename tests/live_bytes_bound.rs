//! What a live transaction costs the streaming checker, in heap bytes
//! held: on a clean stream over a wide key space most of the live set
//! is finished transactions whose last versions are still the newest
//! of their keys, and each should cost its writes, its place in the
//! tables and its node in G2's graph — no G1c graph (no read is ever
//! parked, so no dependency cycle can close), no read buffers. Here
//! that is ≈ 1 460 B per live transaction in a debug build, 1 380 B in
//! release; a build that fed G1c's graph on every commit and let
//! finished transactions keep their read buffers held ≈ 1 950 / 1 860.
//! The allocations per event stay flat as the live set grows.
//!
//! Alone in this file — so alone in its process — because it installs
//! a counting `#[global_allocator]`; CI also runs it in release, beside
//! the other work bounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use adya::online::{OnlineChecker, StreamFeed};

mod common;
use common::{sliding_window_events, stream_notation, SlidingWindow};

struct Counting;

/// Bytes requested and not yet given back.
static HELD: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call goes straight to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        HELD.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        HELD.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_live_transaction_costs_its_writes_and_its_table_rows() {
    // `stream-wide`'s shape: a 4096-key window that moves onto fresh
    // keys every 8192 events, 32 transactions open, strict 2PL.
    let cfg = SlidingWindow {
        keys: 4096,
        slide: 8192,
        open: 32,
        dirty: false,
    };
    const EVENTS: usize = 120_000;
    let text = stream_notation(&sliding_window_events(cfg, 11, EVENTS));

    let before = HELD.load(Ordering::Relaxed);
    let mut checker = OnlineChecker::new();
    checker.set_provenance(true); // as `adya-check --stream` runs it
    let mut feed = StreamFeed::new(checker);
    let mut allocs = [0u64; 2];
    let mut events = 0;
    for tok in text.split_whitespace() {
        let event = feed.parse(tok).expect("generated tokens parse");
        let counted = ALLOCS.load(Ordering::Relaxed);
        feed.ingest(&event);
        // The two halves of the stream after the first window.
        if events >= EVENTS / 5 {
            let half = usize::from(events >= EVENTS * 3 / 5);
            allocs[half] += ALLOCS.load(Ordering::Relaxed) - counted;
        }
        events += 1;
        assert_eq!(
            feed.checker().cycle_graphs()[0],
            Some((0, 0)),
            "G1c's graph at event {events}, with no read ever parked"
        );
    }
    assert_eq!(events, EVENTS);
    let held = HELD.load(Ordering::Relaxed) - before;
    let live = feed.checker().live_txns();
    let per_txn = held as f64 / live as f64;
    let per_event = allocs.map(|a| a as f64 / (EVENTS as f64 * 2.0 / 5.0));
    eprintln!(
        "{held} bytes held for {live} live transactions: {per_txn:.0} B each; \
         allocations per event {:.3} then {:.3}",
        per_event[0], per_event[1]
    );
    assert!(
        live > 10_000,
        "{live} transactions live: the window must pin them"
    );
    assert!(
        per_txn <= 1_600.0,
        "{per_txn:.0} heap bytes per live transaction"
    );
    assert!(
        per_event[1] <= per_event[0] * 1.25,
        "allocations per event grew from {:.3} to {:.3}",
        per_event[0],
        per_event[1]
    );
    drop(feed);
    assert!(
        HELD.load(Ordering::Relaxed) - before < 1 << 16,
        "dropping the feed gives back what it held"
    );
}
