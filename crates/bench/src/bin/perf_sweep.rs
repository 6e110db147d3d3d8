//! E10 — the paper's §1/§3 motivation: "optimism can outperform
//! locking in some environments". A contention sweep across the four
//! concurrency-control schemes, measuring commit rate, aborts, blocked
//! operations and wall time under the deterministic driver; every
//! committed history is re-checked at the scheme's level, so the
//! comparison is between *correct* implementations only.

use std::time::Instant;

use adya_bench::{banner, note, report_path_from_args, verdict, Table};
use adya_core::classify;
use adya_obs::json::JsonWriter;
use adya_obs::Snapshot;
use adya_workloads::{
    families, mixed_workload, run_deterministic, DriverConfig, MixedConfig, Scheme,
};

struct SchemeRun {
    name: String,
    committed: usize,
    attempts: usize,
    aborts: usize,
    blocked: usize,
    deadlocks: usize,
    micros: u128,
    level_ok: bool,
}

fn run_scheme(scheme: Scheme, cfg: &MixedConfig, base_seed: u64) -> SchemeRun {
    let mut totals = SchemeRun {
        name: scheme.name.to_string(),
        committed: 0,
        attempts: 0,
        aborts: 0,
        blocked: 0,
        deadlocks: 0,
        micros: 0,
        level_ok: true,
    };
    for seed in base_seed..base_seed + 4 {
        let (engine, level) = ((scheme.make)(), scheme.guarantees);
        let (_, programs) = mixed_workload(
            engine.as_ref(),
            &MixedConfig {
                seed,
                ..cfg.clone()
            },
        );
        let n = programs.len();
        let start = Instant::now();
        let stats = run_deterministic(
            engine.as_ref(),
            programs,
            &DriverConfig {
                seed,
                ..Default::default()
            },
        );
        totals.micros += start.elapsed().as_micros();
        totals.committed += stats.committed;
        totals.attempts += n;
        totals.aborts += stats.total_aborts();
        totals.blocked += stats.blocked;
        totals.deadlocks += stats.deadlock_victims;
        let h = engine.finalize();
        if !classify(&h).satisfies(level) {
            totals.level_ok = false;
        }
    }
    totals
}

/// Writes the JSON metrics report: one entry per (contention, scheme)
/// run with the driver totals and the engine/checker metrics recorded
/// during that run.
fn write_report(
    path: &str,
    base_seed: u64,
    runs: &[(String, SchemeRun, Snapshot)],
) -> std::io::Result<()> {
    let mut w = JsonWriter::new();
    w.open_object(None);
    w.str_field("report", "perf_sweep");
    w.u64_field("base_seed", base_seed);
    w.u64_field("runs_total", runs.len() as u64);
    w.open_array(Some("runs"));
    for (contention, r, snap) in runs {
        w.open_object(None);
        w.str_field("contention", contention);
        w.str_field("scheme", &r.name);
        w.u64_field("committed", r.committed as u64);
        w.u64_field("attempts", r.attempts as u64);
        w.u64_field("aborts", r.aborts as u64);
        w.u64_field("blocked", r.blocked as u64);
        w.u64_field("deadlocks", r.deadlocks as u64);
        w.u64_field("micros", r.micros as u64);
        w.bool_field("level_ok", r.level_ok);
        snap.write_json(&mut w, Some("metrics"));
        w.close_object();
    }
    w.close_array();
    w.close_object();
    let mut json = w.finish();
    json.push('\n');
    std::fs::write(path, json)
}

fn main() {
    banner("Performance sweep: locking vs optimistic vs multi-version");
    let report_path = report_path_from_args();
    // Seed plumbing: `--seed` shifts the whole sweep and is echoed in
    // the report, so a run is reproducible from the report alone.
    let base_seed = adya_bench::u64_from_args("seed", 0);
    let mut runs: Vec<(String, SchemeRun, Snapshot)> = Vec::new();
    let mut all_ok = true;

    for (contention, keys, theta) in [
        ("low (256 keys, uniform)", 256u64, 0.0),
        ("medium (32 keys, zipf 0.8)", 32, 0.8),
        ("high (4 keys, zipf 1.1)", 4, 1.1),
    ] {
        let cfg = MixedConfig {
            keys,
            txns: 48,
            ops_per_txn: 4,
            write_ratio: 0.5,
            abort_prob: 0.0,
            delete_prob: 0.0,
            theta,
            seed: 0,
        };
        println!("contention: {contention}");
        let mut table = Table::new(&[
            "scheme",
            "commit rate",
            "aborts",
            "blocked ops",
            "deadlocks",
            "wall time (us)",
            "history checks",
        ]);
        for scheme in families() {
            // Reset the global registry so the snapshot after the run
            // is this run's delta (metric handles survive the reset).
            adya_obs::global().reset();
            let r = run_scheme(scheme, &cfg, base_seed);
            let snap = adya_obs::global().snapshot();
            all_ok &= r.level_ok;
            table.row(&[
                r.name.clone(),
                format!("{:4.1}%", 100.0 * r.committed as f64 / r.attempts as f64),
                r.aborts.to_string(),
                r.blocked.to_string(),
                r.deadlocks.to_string(),
                r.micros.to_string(),
                if r.level_ok { "ok" } else { "LEVEL VIOLATED" }.to_string(),
            ]);
            runs.push((contention.to_string(), r, snap));
        }
        println!("{}", table.render());
    }
    note(
        "Expected shape (not absolute numbers): under low contention the optimistic \
         schemes commit everything without blocking while 2PL pays lock overhead; \
         under write hotspots validation/certification aborts rise for OCC/SGT while \
         2PL mostly blocks; MVCC-SI never blocks readers and aborts only on \
         first-committer-wins conflicts.",
    );
    if let Some(path) = &report_path {
        match write_report(path, base_seed, &runs) {
            Ok(()) => note(&format!("metrics report written to {path}")),
            Err(e) => {
                eprintln!("perf_sweep: cannot write report {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    verdict("perf_sweep", all_ok);
}
