//! The bound on the stream parser's state: a `StreamFeed`'s parser
//! keeps a write counter only while the checker holds its transaction,
//! so however long the stream runs it holds a few counters per live
//! transaction. Alone in this file — so alone in its process — and run
//! in release builds by CI beside the other work bounds.
//!
//! The exception is the checker's, not the parser's: the watermark GC
//! keeps everything that ended after the oldest running transaction
//! began, so a transaction that never commits pins the watermark, and
//! the live set — with the counters of every transaction in it — grows
//! until that transaction ends. The bound here is relative to the peak
//! live set for that reason.

use std::collections::HashMap;

use adya::online::{OnlineChecker, StreamFeed, StreamParser};

mod common;
use common::{sliding_window_events, stream_notation, SlidingWindow};

const WARM_UP: usize = 10_000;
const MEASURED: usize = 200_000;

/// The hot-key shape `stream-hot` runs: few keys, dirty reads and
/// aborts, every transaction superseded and pruned soon after it ends.
fn hot_stream() -> String {
    let cfg = SlidingWindow {
        keys: 16,
        slide: 1 << 40,
        open: 8,
        dirty: true,
    };
    stream_notation(&sliding_window_events(cfg, 12, WARM_UP + MEASURED))
}

/// Feeds `text` through a `StreamFeed` as `adya-check --stream` runs
/// it, and checks that its parser's counters stay within four per
/// transaction of the peak live set — a generated transaction makes at
/// most four writes — and far below what a parser that never forgets
/// keeps.
fn check_the_bound(text: &str) {
    let mut checker = OnlineChecker::new();
    checker.set_provenance(true); // as `adya-check --stream` runs it
    let mut feed = StreamFeed::new(checker);
    let (mut peak_live, mut peak_counters) = (0usize, 0usize);
    for (i, tok) in text.split_whitespace().enumerate() {
        let event = feed.parse(tok).expect("generated tokens parse");
        feed.ingest(&event);
        peak_live = peak_live.max(feed.checker().live_txns());
        if i >= WARM_UP {
            peak_counters = peak_counters.max(feed.parser().counters());
        }
    }
    assert!(
        peak_counters <= 4 * peak_live,
        "{peak_counters} counters at peak, {peak_live} transactions live at peak"
    );
    assert!(peak_live < 1_000, "the live set grew: {peak_live}");

    // The same tokens through a parser nobody prunes for: one counter
    // per (transaction, object) the stream ever wrote.
    let mut alone = StreamParser::new();
    for tok in text.split_whitespace() {
        alone.parse_token(tok).expect("generated tokens parse");
    }
    assert!(
        alone.counters() > 20 * peak_counters,
        "{} counters without forgetting, {peak_counters} with",
        alone.counters()
    );
    eprintln!(
        "counters: {peak_counters} at peak ({peak_live} live); {} without forgetting",
        alone.counters()
    );
}

#[test]
fn parser_counters_stay_within_a_multiple_of_the_live_set() {
    check_the_bound(&hot_stream());
}

#[test]
fn writes_after_commit_are_forgotten_with_their_transaction() {
    // A peer's ill-formed stream: right after its commit, every
    // transaction writes `zstray`, `zafter` and, again, the first
    // object it wrote before. The checker ignores those writes; the
    // parser counts them, and must forget them when the checker
    // releases the transaction, or its counters grow with the stream.
    let clean = hot_stream();
    let mut text = String::with_capacity(2 * clean.len());
    let mut first_write: HashMap<&str, &str> = HashMap::new();
    for tok in clean.split_whitespace() {
        text.push_str(tok);
        text.push(' ');
        if let Some((t, object)) = tok.strip_prefix('w').and_then(|w| w.split_once('(')) {
            first_write.entry(t).or_insert(object.trim_end_matches(')'));
        }
        if let Some(t) = tok.strip_prefix('a') {
            first_write.remove(t);
        }
        if let Some(t) = tok.strip_prefix('c') {
            text.push_str(&format!("w{t}(zstray) w{t}(zafter) "));
            if let Some(object) = first_write.remove(t) {
                text.push_str(&format!("w{t}({object}) "));
            }
            text.push('\n');
        }
    }
    check_the_bound(&text);
}
