//! E16 — what forensics costs on the hot path. The online checker now
//! records per-edge provenance (the concrete operation behind every
//! ww/wr/rw edge) so a violating verdict can cite its cycle; this
//! bench measures that bookkeeping against the same ingest run with
//! provenance disabled ([`OnlineChecker::set_provenance`]).
//!
//! Method: for each history size, generate one random history and
//! ingest it repeatedly under both configurations, taking the best of
//! several repetitions per side (the usual min-of-N noise filter).
//! Both sides must produce identical phenomenon sets — provenance is
//! an annotation, never a detector. The measured cost (~18% aggregate
//! on this conflict-heavy workload, after freshness gating and
//! indexed GC purges) exceeds the 10% budget an always-on feature
//! would need, which is why the library ships with provenance off by
//! default and `adya-check --stream` opts in explicitly. The verdict
//! enforces parity plus a 25% regression ceiling on the opt-in cost.
//! A final row times the offline side of forensics (witness
//! extraction with history shrinking) for scale, since that work only
//! runs on demand, never per event.

use std::time::Instant;

use adya_bench::{
    banner, note, overhead_history, overhead_pct, report_header, report_path_from_args,
    time_ingest, u64_from_args, verdict, Table, OVERHEAD_REPS,
};
use adya_forensics::extract_all;
use adya_history::parse_history_completed;
use adya_obs::json::JsonWriter;
use adya_online::{GcConfig, OnlineChecker};

struct SizeRun {
    txns: usize,
    events: usize,
    on_ns: u128,
    off_ns: u128,
    fired_agree: bool,
}

/// Best-of-[`OVERHEAD_REPS`] ingest time over `h`'s events with
/// provenance `on`, plus the final fired set for the parity check.
fn time_provenance(h: &adya_history::History, on: bool) -> (u128, Vec<adya_core::PhenomenonKind>) {
    time_ingest(|| {
        let mut c = OnlineChecker::with_gc(GcConfig::default());
        c.set_provenance(on);
        let start = Instant::now();
        for e in h.events() {
            c.ingest(e);
        }
        let fin = c.finish();
        (start.elapsed().as_nanos(), fin.fired)
    })
}

fn run_size(txns: usize, seed: u64) -> SizeRun {
    let h = overhead_history(txns, seed);
    let (on_ns, on_fired) = time_provenance(&h, true);
    let (off_ns, off_fired) = time_provenance(&h, false);
    SizeRun {
        txns,
        events: h.events().len(),
        on_ns,
        off_ns,
        fired_agree: on_fired == off_fired,
    }
}

fn write_report(path: &str, seed: u64, runs: &[SizeRun], extract_ns: u128) -> std::io::Result<()> {
    let mut w = JsonWriter::new();
    report_header(
        &mut w,
        "provenance_overhead",
        seed,
        &[("reps", OVERHEAD_REPS as u64)],
    );
    w.open_array(Some("runs"));
    for r in runs {
        w.open_object(None);
        w.u64_field("txns", r.txns as u64);
        w.u64_field("events", r.events as u64);
        w.u64_field("provenance_on_ns", r.on_ns as u64);
        w.u64_field("provenance_off_ns", r.off_ns as u64);
        // Basis-point overhead keeps the minimal writer integral.
        let bp = ((r.on_ns as f64 - r.off_ns as f64) / r.off_ns.max(1) as f64 * 10_000.0) as i64;
        w.u64_field("overhead_bp", bp.max(0) as u64);
        w.bool_field("fired_agree", r.fired_agree);
        w.close_object();
    }
    w.close_array();
    let on: u128 = runs.iter().map(|r| r.on_ns).sum();
    let off: u128 = runs.iter().map(|r| r.off_ns).sum();
    w.u64_field("total_on_ns", on as u64);
    w.u64_field("total_off_ns", off as u64);
    w.u64_field(
        "total_overhead_bp",
        (overhead_pct(on, off) * 100.0).max(0.0) as u64,
    );
    w.u64_field("witness_extract_ns", extract_ns as u64);
    w.close_object();
    let mut json = w.finish();
    json.push('\n');
    std::fs::write(path, json)
}

fn main() {
    banner("Provenance overhead: online ingest with vs without edge provenance");
    let report_path = report_path_from_args();
    let seed = u64_from_args("seed", 42);

    let sizes = [128usize, 256, 512, 1024];
    let runs: Vec<SizeRun> = sizes.iter().map(|&n| run_size(n, seed)).collect();

    let mut table = Table::new(&[
        "txns",
        "events",
        "prov on µs",
        "prov off µs",
        "overhead",
        "fired agree",
    ]);
    for r in &runs {
        table.row(&[
            r.txns.to_string(),
            r.events.to_string(),
            (r.on_ns / 1000).to_string(),
            (r.off_ns / 1000).to_string(),
            format!("{:+.1}%", overhead_pct(r.on_ns, r.off_ns)),
            if r.fired_agree { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", table.render());

    // The offline side, for scale: extracting minimized witnesses from
    // the paper's read-skew history (shrinking re-runs the detectors,
    // so this is deliberately not a per-event cost).
    let h = parse_history_completed(
        "r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(y1,9) c2",
    )
    .expect("paper history parses");
    let start = Instant::now();
    let witnesses = extract_all(&h);
    let extract_ns = start.elapsed().as_nanos();
    note(&format!(
        "witness extraction (read skew, {} witnesses, shrink + re-detect): {} µs",
        witnesses.len(),
        extract_ns / 1000
    ));

    let on: u128 = runs.iter().map(|r| r.on_ns).sum();
    let off: u128 = runs.iter().map(|r| r.off_ns).sum();
    let agg = overhead_pct(on, off);
    note(&format!("aggregate ingest overhead: {agg:+.1}%"));

    if let Some(path) = &report_path {
        match write_report(path, seed, &runs, extract_ns) {
            Ok(()) => note(&format!("report written to {path}")),
            Err(e) => {
                eprintln!("provenance_overhead: cannot write report {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    let agree = runs.iter().all(|r| r.fired_agree);
    // Above the 10% always-on budget, so provenance is off by default
    // (`set_provenance(true)` opts in); the ceiling here only guards
    // the opt-in path against regressions.
    verdict("E16 provenance overhead", agree && agg <= 25.0);
}
