//! The work bound of the streaming checker's watermark GC: a
//! collection pass costs the transactions it can prune, not the ones
//! it has to keep, and the peel costs the transactions the watermark
//! closes and those it peels. Alone in this file — so alone in its
//! process — because it reads the process-wide `online.gc_*` counters.

use adya::online::{GcConfig, OnlineChecker};

mod common;
use common::{sliding_window_events, SlidingWindow};

#[test]
fn a_gc_pass_visits_what_it_can_prune_not_the_live_set() {
    // An insert-mostly table: nearly every transaction stays the last
    // writer of a key nobody touches again, so the live set only grows.
    let cfg = SlidingWindow {
        keys: 2048,
        slide: 4096,
        open: 16,
        dirty: false,
    };
    let events = sliding_window_events(cfg, 11, 40_000);
    let gc = GcConfig::default();
    let mut checker = OnlineChecker::with_gc(gc);
    for e in &events {
        checker.ingest(e);
    }
    let live = checker.live_txns();
    assert!(live > 5_000, "the live set must be large: {live}");

    let counters = adya_obs::global().snapshot();
    let visited = counters.counter("online.gc_visited");
    let pruned = counters.counter("online.gc_pruned");
    let passes = events.len() as u64 / gc.interval;
    assert!(pruned >= 20, "the stream must prune: {pruned}");
    // A transaction waits a few passes for the watermark to move past
    // it, and a pass with nothing to do costs nothing: a scan of the
    // live set per pass would put `visited` near live/2 × passes,
    // three orders of magnitude up.
    assert!(
        visited <= 8 * (pruned + passes),
        "{visited} visits for {pruned} prunes in {passes} passes ({live} live)"
    );

    // The peel walks its queue only as far as the watermark, so each
    // transaction closes once; past that it visits the out-neighbours of
    // what it peels (and of what a pass prunes), no other part of the
    // live set.
    let closed = counters.counter("online.gc_closed");
    let peeled = counters.counter("online.gc_peeled");
    let peel_visited = counters.counter("online.gc_peel_visited");
    eprintln!("{closed} closed, {peeled} peeled, {peel_visited} peel visits; {visited} prune visits, {pruned} pruned");
    assert!(
        closed > live as u64 / 2 && peeled >= 100,
        "the watermark must close most of the live set, and the peel take \
         those a graph holds: {closed} closed, {peeled} peeled of {live} live"
    );
    assert!(
        peel_visited <= 2 * (closed + peeled),
        "{peel_visited} peel visits for {closed} closed and {peeled} peeled"
    );
}
