//! The allocation bounds of the streaming path, token to verdict line:
//! at steady state the checker allocates per transaction, not per
//! event, and rendering a verdict into a reused buffer allocates
//! nothing; and no single allocation an `ingest` makes grows with the
//! keys the stream has written — the largest is one chunk of the key
//! table, at 40 k events as at 400 k (the build before, whose object
//! table was a hash map over a slab, made one of 768 KiB at 40 k and
//! of 12 MiB at 400 k: a rehash and a doubling copy on the verdict
//! path). Alone in this
//! file — so alone in its process — because it installs a counting
//! `#[global_allocator]`; its counters are per thread, so the tests
//! here do not count each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adya::history::Event;
use adya::online::{OnlineChecker, StreamFeed, Verdict};

mod common;
use common::{sliding_window_events, stream_notation, SlidingWindow};

struct Counting;

thread_local! {
    // `const`-initialised and without a destructor: reading them never
    // allocates, so the allocator may.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The largest single allocation (or reallocation) since the last
    /// [`largest`] call.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    ALLOCS.with(|a| a.set(a.get() + 1));
    LARGEST.with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call goes straight to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The largest allocation since the last call.
fn largest() -> usize {
    LARGEST.with(|l| l.replace(0))
}

/// The most bytes one chunk of the checker's key table holds.
const CHUNK_BYTES: usize = 16 << 10;

#[test]
fn no_single_allocation_in_ingest_grows_with_the_keys() {
    // `stream-wide`'s shape: a 4096-key window that moves onto fresh
    // keys every 8192 events, 32 transactions open, clean. At 400 k
    // events the stream has written ten times the keys it has at 40 k.
    let cfg = SlidingWindow {
        keys: 4096,
        slide: 8192,
        open: 32,
        dirty: false,
    };
    let mut seen = Vec::new();
    for events in [40_000, 400_000] {
        let text = stream_notation(&sliding_window_events(cfg, 11, events));
        let mut checker = OnlineChecker::new();
        checker.set_provenance(true); // as `adya-check --stream` runs it
        let mut feed = StreamFeed::new(checker);
        let mut most = 0;
        for tok in text.split_whitespace() {
            let event = feed.parse(tok).expect("generated tokens parse");
            largest();
            feed.ingest(&event);
            most = most.max(largest());
        }
        eprintln!(
            "{events} events, {} keys: the largest allocation in an ingest is {most} B",
            feed.parser().interned()
        );
        seen.push((feed.parser().interned(), most));
    }
    let [(keys, small), (more_keys, large)] = seen[..] else {
        unreachable!()
    };
    assert!(more_keys > 8 * keys, "{keys} then {more_keys} keys");
    assert_eq!(small, large, "the largest allocation grew with the keys");
    assert!(large <= CHUNK_BYTES, "{large} B in one allocation");
}

#[test]
fn ingest_allocates_per_transaction_and_rendering_not_at_all() {
    // The hot-key shape: few keys, dirty reads and aborts. The G1c and
    // G2 lanes latch in the warm-up, and with them gone no graph is
    // left: the provenance map is cleared and stays empty, and a prune
    // contracts nothing. What is measured is the tables, the parked and
    // buffered reads and the edge plan.
    let cfg = SlidingWindow {
        keys: 16,
        slide: 1 << 40,
        open: 8,
        dirty: true,
    };
    const WARM_UP: usize = 10_000;
    const MEASURED: usize = 50_000;
    let text = stream_notation(&sliding_window_events(cfg, 11, WARM_UP + MEASURED));

    let mut checker = OnlineChecker::new();
    checker.set_provenance(true); // as `adya-check --stream` runs it
    let mut feed = StreamFeed::new(checker);
    let mut line = String::with_capacity(4096);
    let (mut ingest, mut render) = (0u64, 0u64);
    let (mut events, mut lines) = (0usize, 0usize);
    for tok in text.split_whitespace() {
        let event: Event = feed.parse(tok).expect("generated tokens parse");
        events += 1;
        let measured = events > WARM_UP;

        let before = allocs();
        let verdict: Option<Verdict> = feed.ingest(&event);
        if measured {
            ingest += allocs() - before;
        }

        if let Some(v) = &verdict {
            line.clear();
            let before = allocs();
            v.write_json(&mut line);
            if measured {
                render += allocs() - before;
                lines += 1;
            }
            assert!(line.starts_with("{\"txn\": ") && line.ends_with('}'));
        }
    }
    assert_eq!(events, WARM_UP + MEASURED);
    assert!(lines > MEASURED / 10, "{lines} verdict lines");
    assert_eq!(render, 0, "rendering {lines} lines into a reused buffer");
    let per_event = ingest as f64 / MEASURED as f64;
    assert!(
        per_event <= 0.25,
        "{ingest} allocations over {MEASURED} events = {per_event:.2} per event"
    );
    eprintln!("ingest: {per_event:.3} allocations per event; rendering: {render}");
}
