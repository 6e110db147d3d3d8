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

use adya_bench::{banner, note, report_header, report_path_from_args, verdict, Table};
use adya_core::{g0, g1a, g1b, g1c, g2, g2_item, Dsg, IsolationLevel, PhenomenonKind};
use adya_history::{Event, History, TxnId};
use adya_obs::json::JsonWriter;
use adya_online::{GcConfig, OnlineChecker};
use adya_workloads::histgen::{random_history, HistGenConfig};

struct SizeRun {
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

/// Strongest ANSI level whose proscriptions avoid `fired` — the same
/// rule both checkers apply, computed here from the raw detector
/// outputs so the batch side pays only for the six ANSI detectors.
fn strongest(fired: &[PhenomenonKind]) -> Option<IsolationLevel> {
    IsolationLevel::strongest_ansi(|k| fired.contains(&k))
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

fn run_size(txns: usize, seed: u64) -> SizeRun {
    let cfg = HistGenConfig {
        txns,
        objects: 8,
        ops_per_txn: 4,
        write_prob: 0.5,
        dirty_read_prob: 0.1,
        abort_prob: 0.1,
        shuffle_order_prob: 0.0,
        // A connection-pool-like window: bounded concurrency is what
        // lets the checker's GC keep the live set flat while the
        // history grows without bound.
        max_concurrent: 8,
    };
    let h = random_history(&cfg, seed);
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

    SizeRun {
        txns,
        events,
        commits: commit_points.len(),
        online_ns,
        batch_ns,
        online_level: fin.strongest_ansi,
        batch_level: strongest(&batch_fired),
        peak_live,
        pruned: fin.pruned_txns,
        verdict_p50,
        verdict_p99,
    }
}

fn write_report(path: &str, seed: u64, runs: &[SizeRun]) -> std::io::Result<()> {
    let mut w = JsonWriter::new();
    report_header(&mut w, "online_vs_batch", seed, &[]);
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
        let speedup = r.batch_ns as f64 / r.online_ns.max(1) as f64;
        // No float field on the minimal writer; hundredths keep the
        // report integral and precise enough for a ratio.
        w.u64_field("batch_over_online_x100", (speedup * 100.0) as u64);
        w.str_field(
            "strongest_ansi",
            &r.online_level
                .map(|l| l.to_string())
                .unwrap_or_else(|| "none".into()),
        );
        w.bool_field("verdicts_agree", r.online_level == r.batch_level);
        w.close_object();
    }
    w.close_array();
    w.close_object();
    let mut json = w.finish();
    json.push('\n');
    std::fs::write(path, json)
}

fn main() {
    banner("Online (incremental) vs batch (re-check every prefix)");
    let report_path = report_path_from_args();
    // Seed plumbing: `--seed` re-generates every size's history and is
    // echoed in the report, so a run is reproducible from it alone.
    let seed = adya_bench::u64_from_args("seed", 42);

    let sizes = [32usize, 64, 128, 256, 512];
    let runs: Vec<SizeRun> = sizes.iter().map(|&n| run_size(n, seed)).collect();

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
            format!("{:.1}x", r.batch_ns as f64 / r.online_ns.max(1) as f64),
            r.peak_live.to_string(),
            r.pruned.to_string(),
            r.online_level
                .map(|l| l.to_string())
                .unwrap_or_else(|| "none".into()),
        ]);
    }
    println!("{}", table.render());

    let agree = runs.iter().all(|r| r.online_level == r.batch_level);
    if !agree {
        for r in &runs {
            if r.online_level != r.batch_level {
                note(&format!(
                    "  txns={}: online {:?} != batch {:?}",
                    r.txns, r.online_level, r.batch_level
                ));
            }
        }
    }
    // Asymptotics: the batch side re-checks every prefix, so its cost
    // relative to the single online pass must grow with history
    // length. Compare the ends of the sweep rather than demanding
    // strict monotonicity (small sizes are noisy).
    let first = runs.first().expect("sizes is non-empty");
    let last = runs.last().expect("sizes is non-empty");
    let s_first = first.batch_ns as f64 / first.online_ns.max(1) as f64;
    let s_last = last.batch_ns as f64 / last.online_ns.max(1) as f64;
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

    if let Some(path) = report_path {
        write_report(&path, seed, &runs).expect("write report");
        note(&format!("report written to {path}"));
    }
    verdict("E14 online vs batch", agree && asymptotic && bounded);
}
