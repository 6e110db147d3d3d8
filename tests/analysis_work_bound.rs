//! The work bound of the batch checker: one analysis derives the
//! direct conflicts once and runs each detector at most once, however
//! many questions (phenomena, eight levels, mixing) it answers. Alone
//! in this file — so alone in its process — because it reads the
//! process-wide `checker.*` work counters.

use adya::core::{analyze, PhenomenonKind};
use adya::workloads::histgen::{random_history, HistGenConfig};

#[test]
fn one_analysis_derives_conflicts_once_and_runs_each_detector_once() {
    // Clean (no dirty reads, no aborts, a bounded window), so every
    // detector runs to completion and nothing short-circuits.
    let cfg = HistGenConfig {
        txns: 100,
        objects: 64,
        ops_per_txn: 4,
        dirty_read_prob: 0.0,
        abort_prob: 0.0,
        max_concurrent: 1,
        ..HistGenConfig::default()
    };
    let h = random_history(&cfg, 11);
    assert_eq!(h.len(), 500, "4 operations and a commit per transaction");

    let a = analyze(&h);
    assert!(a.phenomena.is_empty(), "{a}");

    let counters = adya_obs::global().snapshot();
    assert_eq!(counters.counter("checker.conflict_derivations"), 1);
    let runs = counters.counter("checker.detector_runs");
    assert!(
        (1..=PhenomenonKind::ALL.len() as u64).contains(&runs),
        "{runs} detector runs for one analysis"
    );
}
