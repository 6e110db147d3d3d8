//! E14 — the streaming checker's reason to exist: per-commit verdicts
//! from one incremental pass versus re-running the batch checker on
//! every committed prefix. Both sides produce a verdict after *every*
//! commit, so the comparison is work-per-decision at equal information,
//! and both must agree on the final classification.
//!
//! The batch side is the honest alternative a user without
//! `adya-online` would deploy: truncate the event log at each commit,
//! complete the open transactions with aborts (the paper's completion
//! rule), rebuild the `History` and DSG, and run the six ANSI-chain
//! detectors. That is O(n) histories of O(n) events — O(n²) total —
//! while the online checker does one O(n) ingest, so the speedup must
//! grow with history length.

use std::time::Instant;

use adya_bench::overhead::overhead_history;
use adya_bench::{banner, note, verdict, write_report, Table};
use adya_core::{g0, g1a, g1b, g1c, g2, g2_item, Dsg, IsolationLevel, PhenomenonKind};
use adya_history::{Event, History, TxnId};
use adya_online::{GcConfig, OnlineChecker};

struct Comparison {
    txns: usize,
    events: usize,
    commits: usize,
    online_ns: u128,
    batch_ns: u128,
    online_level: Option<IsolationLevel>,
    batch_level: Option<IsolationLevel>,
    peak_live: usize,
    pruned: u64,
    verdict_p50: u64,
    verdict_p99: u64,
}

impl Comparison {
    /// Batch time over online time.
    fn speedup(&self) -> f64 {
        self.batch_ns as f64 / self.online_ns.max(1) as f64
    }

    /// The online side's strongest ANSI level, for display.
    fn level(&self) -> String {
        self.online_level
            .map_or_else(|| "none".into(), |l| l.to_string())
    }
}

/// One full batch check: DSG plus the six ANSI-chain detectors.
fn batch_check(h: &History) -> Vec<PhenomenonKind> {
    let dsg = Dsg::build(h);
    [g0(&dsg), g1a(h), g1b(h), g1c(&dsg), g2_item(&dsg), g2(&dsg)]
        .into_iter()
        .flatten()
        .map(|p| p.kind())
        .collect()
}

/// Rebuilds a validated history from the first `len` events, completing
/// still-open transactions with aborts (what a crash at this instant
/// would have meant). Version orders stay implicit: the generator runs
/// with `shuffle_order_prob = 0`, so commit order is the install order
/// on every prefix.
fn prefix_history(h: &History, len: usize) -> History {
    let mut parts = h.to_parts();
    parts.events.truncate(len);
    parts.version_orders.clear();
    let mut open: Vec<TxnId> = Vec::new();
    for e in &parts.events {
        match e {
            Event::Commit(t) | Event::Abort(t) => open.retain(|x| x != t),
            e => {
                if !open.contains(&e.txn()) {
                    open.push(e.txn());
                }
            }
        }
    }
    for t in open {
        parts.events.push(Event::Abort(t));
    }
    let present: Vec<TxnId> = parts.events.iter().map(|e| e.txn()).collect();
    parts.levels.retain(|t, _| present.contains(t));
    History::from_parts(parts).expect("a prefix of a valid history is valid")
}

fn compare(txns: usize, seed: u64) -> Comparison {
    let h = overhead_history(txns, seed);
    let events = h.events().len();

    // Online: one incremental pass, a verdict at every commit.
    adya_obs::global().reset();
    let mut checker = OnlineChecker::with_gc(GcConfig::default());
    let mut peak_live = 0usize;
    let start = Instant::now();
    for e in h.events() {
        checker.ingest(e);
        peak_live = peak_live.max(checker.live_txns());
    }
    let fin = checker.finish();
    let online_ns = start.elapsed().as_nanos();
    let snap = adya_obs::global().snapshot();
    let (verdict_p50, verdict_p99) = snap
        .histograms
        .iter()
        .find(|(n, _)| n.as_str() == "online.verdict_latency")
        .map(|(_, hs)| (hs.p50, hs.p99))
        .unwrap_or((0, 0));

    // Batch: a full re-check of the completed prefix at every commit.
    let commit_points: Vec<usize> = h
        .events()
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::Commit(_)))
        .map(|(i, _)| i + 1)
        .collect();
    let start = Instant::now();
    let mut batch_fired: Vec<PhenomenonKind> = Vec::new();
    for &len in &commit_points {
        let p = prefix_history(&h, len);
        batch_fired = batch_check(&p);
    }
    let batch_ns = start.elapsed().as_nanos();

    Comparison {
        txns,
        events,
        commits: commit_points.len(),
        online_ns,
        batch_ns,
        online_level: fin.strongest_ansi,
        // The same rule both checkers apply, over the raw detector
        // outputs: the batch side pays only for the six ANSI detectors.
        batch_level: IsolationLevel::strongest_ansi(|k| batch_fired.contains(&k)),
        peak_live,
        pruned: fin.pruned_txns,
        verdict_p50,
        verdict_p99,
    }
}

fn report_runs(w: &mut adya_obs::json::JsonWriter, runs: &[Comparison]) {
    w.open_array(Some("runs"));
    for r in runs {
        w.open_object(None);
        w.u64_field("txns", r.txns as u64);
        w.u64_field("events", r.events as u64);
        w.u64_field("commits", r.commits as u64);
        w.u64_field("online_ns", r.online_ns as u64);
        w.u64_field("batch_ns", r.batch_ns as u64);
        w.u64_field(
            "online_ns_per_event",
            (r.online_ns / r.events.max(1) as u128) as u64,
        );
        w.u64_field("verdict_latency_p50_ns", r.verdict_p50);
        w.u64_field("verdict_latency_p99_ns", r.verdict_p99);
        w.u64_field("peak_live_txns", r.peak_live as u64);
        w.u64_field("gc_pruned_txns", r.pruned);
        // No float field on the minimal writer; hundredths keep the
        // report integral and precise enough for a ratio.
        w.u64_field("batch_over_online_x100", (r.speedup() * 100.0) as u64);
        w.str_field("strongest_ansi", &r.level());
        w.bool_field("verdicts_agree", r.online_level == r.batch_level);
        w.close_object();
    }
    w.close_array();
}

fn main() {
    banner("Online (incremental) vs batch (re-check every prefix)");
    // Seed plumbing: `--seed` re-generates every size's history and is
    // echoed in the report, so a run is reproducible from it alone.
    let seed = adya_bench::u64_from_args("seed", 42);

    let sizes = [32usize, 64, 128, 256, 512];
    let runs: Vec<Comparison> = sizes.iter().map(|&n| compare(n, seed)).collect();

    let mut table = Table::new(&[
        "txns",
        "events",
        "commits",
        "online µs",
        "batch µs",
        "speedup",
        "peak live",
        "pruned",
        "level",
    ]);
    for r in &runs {
        table.row(&[
            r.txns.to_string(),
            r.events.to_string(),
            r.commits.to_string(),
            (r.online_ns / 1000).to_string(),
            (r.batch_ns / 1000).to_string(),
            format!("{:.1}x", r.speedup()),
            r.peak_live.to_string(),
            r.pruned.to_string(),
            r.level(),
        ]);
    }
    println!("{}", table.render());

    let agree = runs.iter().all(|r| r.online_level == r.batch_level);
    for r in runs.iter().filter(|r| r.online_level != r.batch_level) {
        note(&format!(
            "  txns={}: online {:?} != batch {:?}",
            r.txns, r.online_level, r.batch_level
        ));
    }
    // Asymptotics: the batch side re-checks every prefix, so its cost
    // relative to the single online pass must grow with history
    // length. Compare the ends of the sweep rather than demanding
    // strict monotonicity (small sizes are noisy).
    let first = runs.first().expect("sizes is non-empty");
    let last = runs.last().expect("sizes is non-empty");
    let (s_first, s_last) = (first.speedup(), last.speedup());
    let asymptotic = s_last > s_first && s_last > 1.0;
    if !asymptotic {
        note(&format!(
            "  speedup did not grow: {s_first:.2}x at {} txns vs {s_last:.2}x at {} txns",
            first.txns, last.txns
        ));
    }
    // Bounded memory: GC keeps the live set far below the history size.
    let bounded = last.peak_live < last.txns / 2;
    if !bounded {
        note(&format!(
            "  peak live {} vs {} txns — GC is not pruning",
            last.peak_live, last.txns
        ));
    }

    write_report("online_vs_batch", seed, &[], |w| report_runs(w, &runs));
    verdict("E14 online vs batch", agree && asymptotic && bounded);
}
