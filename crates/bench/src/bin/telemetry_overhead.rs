//! E17 — what the live telemetry plane costs on the hot path. PR 6
//! threads sampled spans through the checker (apply / graph-insert /
//! verdict / GC attribution) and mirrors SLIs into a
//! [`CheckerMonitor`] after every event; this bench measures that
//! fully-on plane against the same ingest run with telemetry off, on
//! the E14/E16 workload.
//!
//! Method: for each history size, generate one random history and
//! ingest it repeatedly under both configurations, best-of-N per side.
//! Two gates: the verdict NDJSON streams must be byte-identical
//! (telemetry observes, never alters), and aggregate ingest overhead
//! must stay within the 10% budget that E16 held provenance to —
//! sampling (1 event in [`SAMPLE_EVERY`]) is what buys that headroom,
//! since E16 showed always-on per-event bookkeeping lands near 18%.

use std::time::Instant;

use adya_bench::{
    banner, note, overhead_history, overhead_pct, report_header, report_path_from_args,
    time_ingest, u64_from_args, verdict, Table, OVERHEAD_REPS,
};
use adya_obs::json::JsonWriter;
use adya_online::{CheckerMonitor, GcConfig, HealthPolicy, OnlineChecker};

/// Telemetry sampling period under test — the same 1-in-32 the
/// `adya-check --stream` obs plane uses.
const SAMPLE_EVERY: u32 = 32;

struct SizeRun {
    txns: usize,
    events: usize,
    on_ns: u128,
    off_ns: u128,
    verdicts_identical: bool,
}

/// Best-of-[`OVERHEAD_REPS`] ingest time over `h`'s events with the
/// telemetry plane `on` (sampled spans + per-event monitor SLIs) or
/// fully off, plus the complete verdict NDJSON stream for the parity
/// check.
fn time_telemetry(h: &adya_history::History, on: bool) -> (u128, Vec<String>) {
    time_ingest(|| {
        let mut c = OnlineChecker::with_gc(GcConfig::default());
        let monitor = on.then(|| CheckerMonitor::new(HealthPolicy::default()));
        if on {
            c.set_telemetry_sampling(SAMPLE_EVERY);
        }
        let mut cur = Vec::new();
        let start = Instant::now();
        for e in h.events() {
            match &monitor {
                Some(m) => {
                    let arrived = m.arrival();
                    let v = c.ingest(e);
                    m.observe_event(&c, arrived);
                    if let Some(v) = v {
                        m.observe_verdict(&v);
                        cur.push(v.to_json());
                    }
                }
                None => {
                    if let Some(v) = c.ingest(e) {
                        cur.push(v.to_json());
                    }
                }
            }
        }
        let fin = c.finish();
        if let Some(m) = &monitor {
            m.observe_verdict(&fin);
        }
        cur.push(fin.to_json());
        (start.elapsed().as_nanos(), cur)
    })
}

fn run_size(txns: usize, seed: u64) -> SizeRun {
    let h = overhead_history(txns, seed);
    let (on_ns, on_lines) = time_telemetry(&h, true);
    let (off_ns, off_lines) = time_telemetry(&h, false);
    SizeRun {
        txns,
        events: h.events().len(),
        on_ns,
        off_ns,
        verdicts_identical: on_lines == off_lines,
    }
}

fn write_report(path: &str, seed: u64, runs: &[SizeRun]) -> std::io::Result<()> {
    let mut w = JsonWriter::new();
    report_header(
        &mut w,
        "telemetry_overhead",
        seed,
        &[
            ("reps", OVERHEAD_REPS as u64),
            ("sample_every", u64::from(SAMPLE_EVERY)),
        ],
    );
    w.open_array(Some("runs"));
    for r in runs {
        w.open_object(None);
        w.u64_field("txns", r.txns as u64);
        w.u64_field("events", r.events as u64);
        w.u64_field("telemetry_on_ns", r.on_ns as u64);
        w.u64_field("telemetry_off_ns", r.off_ns as u64);
        // Basis-point overhead keeps the minimal writer integral.
        let bp = ((r.on_ns as f64 - r.off_ns as f64) / r.off_ns.max(1) as f64 * 10_000.0) as i64;
        w.u64_field("overhead_bp", bp.max(0) as u64);
        w.bool_field("verdicts_identical", r.verdicts_identical);
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
    w.bool_field(
        "within_budget",
        overhead_pct(on, off) <= 10.0 && runs.iter().all(|r| r.verdicts_identical),
    );
    w.close_object();
    let mut json = w.finish();
    json.push('\n');
    std::fs::write(path, json)
}

fn main() {
    banner("Telemetry overhead: online ingest with the obs plane fully on vs off");
    let report_path = report_path_from_args();
    let seed = u64_from_args("seed", 42);
    // Smoke mode for CI: `--txns N` runs one small size instead of
    // the full sweep.
    let smoke_txns = u64_from_args("txns", 0);
    // The claim is ≤10% (what the committed report's `within_budget`
    // records); CI smoke passes a looser regression ceiling because
    // shared runners are noisy — the E16 bench does the same.
    let budget_pct = u64_from_args("budget-pct", 10) as f64;

    let sizes: Vec<usize> = if smoke_txns > 0 {
        vec![smoke_txns as usize]
    } else {
        vec![128, 256, 512, 1024]
    };
    let runs: Vec<SizeRun> = sizes.iter().map(|&n| run_size(n, seed)).collect();

    let mut table = Table::new(&[
        "txns",
        "events",
        "plane on µs",
        "plane off µs",
        "overhead",
        "verdicts identical",
    ]);
    for r in &runs {
        table.row(&[
            r.txns.to_string(),
            r.events.to_string(),
            (r.on_ns / 1000).to_string(),
            (r.off_ns / 1000).to_string(),
            format!("{:+.1}%", overhead_pct(r.on_ns, r.off_ns)),
            if r.verdicts_identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", table.render());

    let on: u128 = runs.iter().map(|r| r.on_ns).sum();
    let off: u128 = runs.iter().map(|r| r.off_ns).sum();
    let agg = overhead_pct(on, off);
    note(&format!(
        "aggregate ingest overhead with spans+SLIs on (1-in-{SAMPLE_EVERY} sampling): {agg:+.1}%"
    ));

    if let Some(path) = &report_path {
        match write_report(path, seed, &runs) {
            Ok(()) => note(&format!("report written to {path}")),
            Err(e) => {
                eprintln!("telemetry_overhead: cannot write report {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    let identical = runs.iter().all(|r| r.verdicts_identical);
    // The ≤10% budget is the same rule that kept provenance (E16)
    // opt-in; the telemetry plane meets it by sampling, so it can
    // stay on for every `--stream --obs-listen` run.
    verdict("E17 telemetry overhead", identical && agg <= budget_pct);
}
