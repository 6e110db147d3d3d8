//! What the streaming checker holds, in heap bytes, on a clean stream
//! over a wide key space: its rows are the transactions the watermark
//! has not passed — a finished transaction leaves once it has, its
//! newest versions staying behind as cold entries in their objects'
//! rows — so what grows with the stream is the objects and their names,
//! and the bound is per interned key. Each key should cost its row in
//! the key table and its name, once — no node in G2's graph once the
//! watermark has passed it (the peel), no G1c graph (no read is ever
//! parked, so no dependency cycle can close), no transaction row, no
//! parser counter, no hot object state once nothing holds the object.
//! Here that is ≈ 38 B per interned key, debug or release: a 16-byte
//! row in a fixed-size chunk, ≈ 19 B of name (its bytes, its end
//! offset, its slot in the name index) and a share of the rows held.
//! The build whose object table was a keyed hash map over a slab of
//! 40-byte object states, beside a superseded-entry map and a name
//! table with two hash maps, held ≈ 133 B per key in a debug build and
//! 110 B in release; the one that kept every finished transaction
//! whose versions were still the newest ≈ 216 B per key in release
//! (488 B for each of 19 800 rows), and its live set grew with the
//! stream. The rows held stay at most 512 all along, at 40 k events as
//! at 160 k.
//!
//! Beside it: what the parser's name table costs per interned name;
//! that `OnlineChecker::provenance_bytes` is what provenance adds to
//! the heap, measured without collection, where G2's graph and the map
//! hold the whole history (≈ 1.6 MB of chains; with it they hold a few
//! hundred bytes, which the allocator's noise would swamp); what a
//! session shaped like `adya-serve`'s (256 keys, eight open, provenance
//! off) holds, as a bare feed and as an `adya-serve` `Session` with its
//! log and replay window (whose verdicts are 40-byte facts, not their
//! lines); and that G2's graph holds as many nodes at 160 k events
//! as at 40 k (22 and 27; the build before the peel held the live set).
//! The allocations per event stay flat as the stream goes on.
//!
//! Alone in this file — so alone in its process — because it installs
//! a counting `#[global_allocator]`, and in one test, because the
//! counters are the process's; CI also runs it in release, beside the
//! other work bounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use adya::history::ObjectId;
use adya::online::{GcConfig, OnlineChecker, StreamFeed, StreamParser};
use adya::serve::{Session, SessionConfig};
use adya_faults::{TapCrashConfig, TapCrashPlane};

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

/// Debug builds' slots carry a generation tag, so their rows are wider.
/// Each bound is this build's measurement plus less than a tenth: 37.7
/// / 37.3 B per interned key (debug / release), 19.0 B per interned
/// name and 38.3 / 35.1 kB per session (21 rows held each). The build
/// before, whose objects were found by a keyed hash over a slab of
/// 40-byte states and whose names by two hash maps, held 133.4 / 109.8
/// B per key, 24.9 B per name and 47.1 / 41.9 kB per session; the one
/// before that, which kept every finished transaction whose versions
/// were still the newest, 215.8 B per key in release and 81.2 / 74.1
/// kB per session (192 rows); the one before the peel 134.6 / 127.5
/// kB; one with 24-byte write entries, a reader buffer per object and
/// 24-byte chains 154 / 142 kB; one that also kept every running-only
/// buffer on every row, the provenance side indexes, a shared
/// `Arc<str>` per name and a ring per object 84 B per interned name and
/// 192 / 180 kB per session.
const PER_KEY: f64 = if cfg!(debug_assertions) { 41.0 } else { 40.0 };
const PER_NAME: f64 = 20.5;
const PER_SESSION: f64 = if cfg!(debug_assertions) {
    42_000.0
} else {
    38_500.0
};
/// An `adya-serve` `Session` of that shape, 1 250 events, its window
/// untrimmed: 49.8 / 46.5 kB (debug / release; 58.7 / 53.5 kB before
/// the key table), of which the replay window is 49.9 B per retained
/// verdict — a 40-byte fact and the `Vec`'s slack. The build that kept
/// each verdict's JSON line held 89.9 kB per session in release, ≈ 220
/// B per retained verdict.
const PER_SERVED: f64 = if cfg!(debug_assertions) {
    54_500.0
} else {
    51_000.0
};
const PER_WINDOW_VERDICT: f64 = 54.0;

fn held() -> i64 {
    HELD.load(Ordering::Relaxed)
}

/// Collection off: the checker keeps every transaction, and G2's graph
/// the whole history.
const EXACT: GcConfig = GcConfig {
    enabled: false,
    interval: 64,
};

/// A feed over a checker collecting as `gc` says, with provenance as
/// asked.
fn feed(provenance: bool, gc: GcConfig) -> StreamFeed {
    let mut checker = OnlineChecker::with_gc(gc);
    checker.set_provenance(provenance);
    StreamFeed::new(checker)
}

/// Feeds every token of `text` to `feed`.
fn run(feed: &mut StreamFeed, text: &str) {
    for tok in text.split_whitespace() {
        let event = feed.parse(tok).expect("generated tokens parse");
        feed.ingest(&event);
    }
}

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

    // As `adya-check --stream` runs it: provenance on.
    let before = held();
    let mut wide = feed(true, GcConfig::default());
    let mut allocs = [0u64; 2];
    for (i, tok) in text.split_whitespace().enumerate() {
        let event = wide.parse(tok).expect("generated tokens parse");
        let counted = ALLOCS.load(Ordering::Relaxed);
        wide.ingest(&event);
        // The two halves of the stream after the first window.
        if i >= EVENTS / 5 {
            allocs[usize::from(i >= EVENTS * 3 / 5)] += ALLOCS.load(Ordering::Relaxed) - counted;
        }
        assert_eq!(
            wide.checker().cycle_graphs()[0],
            Some((0, 0)),
            "G1c's graph at event {i}, with no read ever parked"
        );
    }
    let held_on = held() - before;
    let keys = wide.parser().interned();
    let per_key = held_on as f64 / keys as f64;
    let per_event = allocs.map(|a| a as f64 / (EVENTS as f64 * 2.0 / 5.0));
    eprintln!(
        "{held_on} bytes held for {keys} interned keys: {per_key:.1} B each \
         ({} rows held); allocations per event {:.3} then {:.3}",
        wide.checker().live_txns(),
        per_event[0],
        per_event[1]
    );
    assert!(
        per_key <= PER_KEY,
        "{per_key:.1} heap bytes per interned key"
    );
    assert!(
        per_event[1] <= per_event[0] * 1.25,
        "allocations per event grew from {:.3} to {:.3}",
        per_event[0],
        per_event[1]
    );

    // The parser's name table: each name once, in one buffer.
    let names: Vec<String> = (0..wide.parser().interned() as u32)
        .map(|o| wide.parser().object_name(ObjectId(o)).to_string())
        .collect();
    let before_names = held();
    let mut parser = StreamParser::new();
    for name in &names {
        parser.intern(name);
    }
    let per_name = (held() - before_names) as f64 / names.len() as f64;
    eprintln!("{} names interned: {per_name:.1} B each", names.len());
    assert!(names.len() > 40_000, "{} names", names.len());
    assert!(
        per_name <= PER_NAME,
        "{per_name:.1} heap bytes per interned name"
    );
    drop((parser, names));

    drop(wide);
    assert!(
        held() - before < 1 << 16,
        "dropping the feed gives back what it held"
    );

    // Provenance: `provenance_bytes` is what it adds to the heap. With
    // collection on, the peel leaves G2's graph a score of nodes and the
    // map a few hundred bytes, below the allocator's noise; without it
    // the graph, and the map, hold the whole history.
    let before_exact = held();
    let mut on = feed(true, EXACT);
    run(&mut on, &text);
    let held_exact = held() - before_exact;
    let reported = on.checker().provenance_bytes() as f64;
    let before_off = held();
    let mut off = feed(false, EXACT);
    run(&mut off, &text);
    let added = (held_exact - (held() - before_off)) as f64;
    eprintln!("provenance adds {added} bytes; provenance_bytes reports {reported}");
    assert!(
        reported > 1e6,
        "{reported} B of provenance without collection"
    );
    assert!(
        (reported - added).abs() <= added * 0.1,
        "provenance_bytes reports {reported} B, provenance adds {added} B"
    );
    drop((on, off));

    // Sessions shaped like `adya-serve`'s: 256 keys, eight open, 1 250
    // events each, provenance off (a session's default).
    let session = SlidingWindow {
        keys: 256,
        slide: 1 << 40,
        open: 8,
        dirty: false,
    };
    let before_sessions = held();
    let sessions: Vec<StreamFeed> = (0..8)
        .map(|seed| {
            let mut f = feed(false, GcConfig::default());
            run(
                &mut f,
                &stream_notation(&sliding_window_events(session, seed, 1_250)),
            );
            f
        })
        .collect();
    let per_session = (held() - before_sessions) as f64 / sessions.len() as f64;
    let live: usize = sessions.iter().map(|f| f.checker().live_txns()).sum();
    eprintln!(
        "a session holds {per_session:.0} B ({} live transactions each)",
        live / sessions.len()
    );
    assert!(
        per_session <= PER_SESSION,
        "{per_session:.0} heap bytes per session"
    );
    drop(sessions);

    // `adya-serve`'s own `Session`s of that shape, one transaction per
    // line, under the default `LogConfig`: one snapshot lands at 1 024
    // events, so the replay window keeps every verdict (≈ 206).
    let tap = TapCrashPlane::new(TapCrashConfig::default());
    let data = common::data_dir("live-bytes-sessions");
    let before_served = held();
    let served: Vec<Session> = (0..8)
        .map(|seed| {
            let name = format!("s{seed}");
            let mut s = Session::create(&data, &name, SessionConfig::default(), None)
                .expect("create a session");
            let text = stream_notation(&sliding_window_events(session, seed, 1_250));
            for line in text.lines() {
                s.apply_line(line, &tap).expect("apply a line");
            }
            s
        })
        .collect();
    let per_served = (held() - before_served) as f64 / served.len() as f64;
    let (window, retained) = served.iter().fold((0, 0), |(bytes, n), s| {
        let log = s.verdict_log();
        (bytes + log.heap_bytes(), n + log.count() - log.base())
    });
    let per_verdict = window as f64 / retained as f64;
    eprintln!(
        "a served session holds {per_served:.0} B; its replay window {per_verdict:.1} B \
         for each of {} verdicts",
        retained / served.len() as u64
    );
    assert!(
        served
            .iter()
            .all(|s| s.verdict_log().base() == 0 && s.records() == 1_250),
        "one snapshot, the window untrimmed"
    );
    assert!(
        per_served <= PER_SERVED,
        "{per_served:.0} heap bytes per served session"
    );
    assert!(
        per_verdict <= PER_WINDOW_VERDICT,
        "{per_verdict:.1} window bytes per retained verdict"
    );
    drop(served);
    let _ = std::fs::remove_dir_all(&data);

    // G2's graph does not grow with the stream: at 40 k events and at
    // 160 k, the peel keeps it to the transactions the watermark has not
    // passed and those with an edge into them from one it has not.
    for events in [40_000, 160_000] {
        let mut f = feed(true, GcConfig::default());
        let text = stream_notation(&sliding_window_events(cfg, 11, events));
        let (mut peak, mut rows) = (0, 0);
        for (i, tok) in text.split_whitespace().enumerate() {
            let event = f.parse(tok).expect("generated tokens parse");
            f.ingest(&event);
            let (nodes, _) = f.checker().cycle_graphs()[1].expect("G2 never latches here");
            peak = peak.max(nodes);
            if i % 1_000 == 0 {
                let live = f.checker().live_txns();
                assert!(
                    live <= 512,
                    "{events} events: {live} rows held at event {i}"
                );
                rows = rows.max(live);
            }
        }
        eprintln!("{events} events: G2's graph peaked at {peak} nodes, the tables at {rows} rows");
        assert!(peak <= 64, "{events} events: G2's graph held {peak} nodes");
    }
}
