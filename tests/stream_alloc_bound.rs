//! The allocation bound of the streaming path, token to verdict line:
//! at steady state the checker allocates per transaction, not per
//! event, and rendering a verdict into a reused buffer allocates
//! nothing. Alone in this file — so alone in its process — because it
//! installs a counting `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adya::history::Event;
use adya::online::{OnlineChecker, StreamFeed, Verdict};

mod common;
use common::{sliding_window_events, stream_notation, SlidingWindow};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call goes straight to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
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
