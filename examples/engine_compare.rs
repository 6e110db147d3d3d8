//! Compare concurrency-control schemes on one workload: commit rates,
//! aborts, blocking — and verify every recorded history satisfies the
//! scheme's isolation level (a miniature of the `perf_sweep`
//! experiment binary).
//!
//! ```sh
//! cargo run --example engine_compare
//! ```

use adya::core::classify;
use adya::workloads::{mixed_workload, run_deterministic, schemes, DriverConfig, MixedConfig};

fn main() {
    println!(
        "{:<20} {:>9} {:>8} {:>9} {:>10}   history",
        "scheme", "committed", "aborts", "blocked", "deadlocks"
    );
    for scheme in schemes() {
        let (name, engine, level) = (scheme.name, (scheme.make)(), scheme.guarantees);
        let (_, programs) = mixed_workload(
            engine.as_ref(),
            &MixedConfig {
                keys: 12,
                txns: 30,
                ops_per_txn: 4,
                write_ratio: 0.5,
                abort_prob: 0.05,
                delete_prob: 0.0,
                theta: 0.8,
                seed: 11,
            },
        );
        let stats = run_deterministic(
            engine.as_ref(),
            programs,
            &DriverConfig {
                seed: 11,
                ..Default::default()
            },
        );
        let h = engine.finalize();
        let ok = classify(&h).satisfies(level);
        println!(
            "{:<20} {:>9} {:>8} {:>9} {:>10}   {} at {}",
            name,
            stats.committed,
            stats.total_aborts(),
            stats.blocked,
            stats.deadlock_victims,
            if ok { "valid" } else { "INVALID" },
            level,
        );
        assert!(ok, "{name} produced a history violating {level}");
    }
    println!(
        "\nEvery scheme's history re-checks at its own level — the engines never \
         consult the checker, so this is an end-to-end verification."
    );
}
