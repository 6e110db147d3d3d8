//! The work bound of the streaming checker's watermark GC: a
//! collection pass costs what the watermark has just passed and what it
//! releases, never the rows it has to keep, and the peel costs the
//! transactions the watermark closes and those it peels. Alone in this
//! file — so alone in its process, and in one test — because it reads
//! the process-wide `online.gc_*` counters.

use adya::history::{Event, ObjectId, ReadEvent, TxnId, VersionId};
use adya::online::{GcConfig, OnlineChecker};

mod common;
use common::{sliding_window_events, SlidingWindow};

/// The collector's counters so far: (visited, closed, released, peeled,
/// peel visits).
fn counters() -> [u64; 5] {
    let c = adya_obs::global().snapshot();
    [
        "online.gc_visited",
        "online.gc_closed",
        "online.gc_pruned",
        "online.gc_peeled",
        "online.gc_peel_visited",
    ]
    .map(|name| c.counter(name))
}

fn since(then: [u64; 5]) -> [u64; 5] {
    let now = counters();
    std::array::from_fn(|i| now[i] - then[i])
}

#[test]
fn a_gc_pass_visits_what_it_can_prune_not_the_live_set() {
    // An insert-mostly table: nearly every transaction stays the last
    // writer of a key nobody touches again. The rows go all the same —
    // their versions stay as cold entries —, so the tables hold the
    // transactions the watermark has not passed, not the history.
    let cfg = SlidingWindow {
        keys: 2048,
        slide: 4096,
        open: 16,
        dirty: false,
    };
    let gc = GcConfig::default();
    let stream = sliding_window_events(cfg, 11, 40_000 + gc.interval as usize);
    let (events, tail) = stream.split_at(40_000);
    let mut checker = OnlineChecker::with_gc(gc);
    let mut peak = 0;
    let before = counters();
    for e in events {
        checker.ingest(e);
        peak = peak.max(checker.live_txns());
    }
    let [visited, closed, released, peeled, peel_visited] = since(before);
    let committed = checker.finish().committed;
    let passes = events.len() as u64 / gc.interval;
    eprintln!(
        "{committed} committed, {peak} rows at most; {closed} closed, {released} released, \
         {visited} visits in {passes} passes; {peeled} peeled, {peel_visited} peel visits"
    );
    assert!(committed > 5_000, "the history must be long: {committed}");
    assert!(peak <= 512, "{peak} rows held");
    assert!(
        released > committed * 9 / 10,
        "{released} of {committed} released"
    );
    // Each transaction is visited when the queue passes it and when a
    // pin, a retirement or a peel may have freed it: a scan of the rows
    // per pass would put `visited` at rows × passes.
    assert!(
        visited <= 2 * (closed + released + passes),
        "{visited} visits for {closed} closed and {released} released in {passes} passes"
    );
    // The peel walks its queue only as far as the watermark, so each
    // transaction closes once; past that it visits the out-neighbours of
    // what it peels, no other part of the graphs.
    assert!(
        closed > committed / 2 && peeled >= 100,
        "the watermark must close most of the history, and the peel take \
         those a graph holds: {closed} closed, {peeled} peeled of {committed}"
    );
    assert!(
        peel_visited <= 2 * (closed + peeled),
        "{peel_visited} peel visits for {closed} closed and {peeled} peeled"
    );

    // `stream-pinned`: the same stream with one reader open from the
    // start. It pins the watermark, so nothing closes and every row
    // stays — the one shape where nothing is released. A pass costs
    // nothing all the same, and the first pass after the reader commits
    // lets the backlog go.
    let pinned = TxnId(4_000_000_000);
    let mut checker = OnlineChecker::with_gc(gc);
    checker.ingest(&Event::Begin(pinned));
    checker.ingest(&Event::Read(ReadEvent {
        txn: pinned,
        object: ObjectId(0),
        version: VersionId::INIT,
        through_cursor: false,
    }));
    let before = counters();
    for e in events {
        checker.ingest(e);
    }
    let [visited, closed, released, ..] = since(before);
    let held = checker.live_txns();
    eprintln!("pinned: {held} rows held; {closed} closed, {visited} visits");
    assert!(held > 5_000, "the rows must pile up: {held}");
    assert_eq!((closed, released), (0, 0));
    assert!(
        visited <= 2 * (closed + released + passes),
        "{visited} visits in {passes} passes while pinned"
    );
    let before = counters();
    checker.ingest(&Event::Commit(pinned));
    for e in tail {
        checker.ingest(e);
    }
    let [visited, closed, released, ..] = since(before);
    let left = checker.live_txns();
    eprintln!(
        "the pass after: {left} rows left; {closed} closed, {released} released, {visited} visits"
    );
    assert!(left <= 512, "{left} rows left after the reader committed");
    assert!(
        visited <= 2 * (closed + released + 1),
        "{visited} visits for {closed} closed and {released} released in one pass"
    );

    // `stream-pinned`, dirty: G2's graph latches early, and reads park
    // now and then, so G1c's graph fills and is shed again and again,
    // each shed letting its nodes go without a peel. The pass looks at
    // the nodes a shed let go, never at the rows the reader pins, and
    // none of those is a candidate until the watermark passes it.
    let dirty = SlidingWindow {
        keys: 128,
        slide: 4096,
        open: 32,
        dirty: true,
    };
    let mut checker = OnlineChecker::with_gc(gc);
    checker.ingest(&Event::Begin(pinned));
    checker.ingest(&Event::Read(ReadEvent {
        txn: pinned,
        object: ObjectId(0),
        version: VersionId::INIT,
        through_cursor: false,
    }));
    let stream = sliding_window_events(dirty, 11, 40_000 + 4 * gc.interval as usize);
    let (events, tail) = stream.split_at(40_000);
    let before = counters();
    let mut filled = 0;
    for e in events {
        checker.ingest(e);
        filled += usize::from(checker.cycle_graphs()[0].is_some_and(|(n, _)| n > 0));
    }
    let [visited, closed, released, ..] = since(before);
    let held = checker.live_txns();
    eprintln!(
        "pinned, dirty: {held} rows held; {closed} closed, {released} released, \
         {visited} visits; G1c's graph held nodes after {filled} events"
    );
    assert!(checker.cycle_graphs()[1].is_none(), "G2's graph must latch");
    assert!(
        held > 5_000 && filled > 100,
        "{held} rows, G1c filled {filled}"
    );
    assert!(
        visited <= 2 * (closed + released + passes),
        "{visited} visits in {passes} passes while pinned"
    );
    let before = counters();
    checker.ingest(&Event::Commit(pinned));
    for e in tail {
        checker.ingest(e);
    }
    let [visited, closed, released, ..] = since(before);
    let left = checker.live_txns();
    eprintln!(
        "the passes after: {left} rows left; {closed} closed, {released} released, {visited} visits"
    );
    assert!(left <= 512, "{left} rows left after the reader committed");
    assert!(
        visited <= 2 * (closed + released + 4),
        "{visited} visits for {closed} closed and {released} released in four passes"
    );
}
