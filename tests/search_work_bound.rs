//! The work bound of the batch checker's searches: on a history where
//! transactions overlap and no cycle closes, G2, G2-item, G-single,
//! G-SIb and G-monotonic cost the history's events plus its conflicts —
//! one component labelling of the DSG and one of the SSG — not one
//! unfolded graph per committed transaction and not one back-path
//! search per anti-dependency. A counter, not a stopwatch. Alone in
//! this file — so alone in its process — because it reads the
//! process-wide `checker.search_visits` counter.

use adya::core::{analyze, PhenomenonKind};
use adya::engine::{Engine, LockConfig, LockingEngine};
use adya::history::History;
use adya::workloads::{mixed_workload, run_deterministic, DriverConfig, MixedConfig, Program};

/// A strict two-phase-locking (PL-3) run of `txns` read/write
/// transactions over 64 keys, started eight at a time.
fn locking_history(txns: usize) -> History {
    let engine = LockingEngine::new(LockConfig::serializable());
    let (_, programs) = mixed_workload(
        &engine,
        &MixedConfig {
            keys: 64,
            txns,
            ops_per_txn: 4,
            write_ratio: 0.5,
            abort_prob: 0.0,
            delete_prob: 0.0,
            theta: 0.5,
            seed: 11,
        },
    );
    let mut programs = programs.into_iter();
    for seed in 0.. {
        let batch: Vec<Program> = programs.by_ref().take(8).collect();
        if batch.is_empty() {
            break;
        }
        let cfg = DriverConfig {
            seed,
            ..DriverConfig::default()
        };
        run_deterministic(&engine, batch, &cfg);
    }
    engine.finalize()
}

#[test]
fn search_visits_events_plus_conflicts_at_every_size() {
    let mut visited_before = 0;
    for txns in [300, 1_200] {
        let h = locking_history(txns);
        let events = h.len() as u64;
        assert!(events >= 5 * txns as u64, "{events} events");

        let a = analyze(&h);
        // Strict 2PL orders every conflict by commit, so nothing the
        // searches look for is there; only G-SIa, a test of each
        // dependency edge, sees transactions that overlapped.
        let fired: Vec<PhenomenonKind> = a.phenomena.iter().map(|p| p.kind()).collect();
        assert_eq!(fired, [PhenomenonKind::GSIa], "{a}");
        assert!(a.dsg.is_acyclic());

        let visited_after = adya_obs::global()
            .snapshot()
            .counter("checker.search_visits");
        let visited = visited_after - visited_before;
        visited_before = visited_after;
        let conflicts = a.dsg.conflicts().len() as u64;
        // The DSG's labelling examines each DSG edge once, the SSG's
        // each DSG edge and three slot edges per transaction. One
        // unfolding per committed transaction over every conflict puts
        // `visited` at committed × conflicts: two orders of magnitude
        // up at the first size, and growing.
        assert!(
            visited >= conflicts / 4,
            "the counter must be wired: {visited}"
        );
        assert!(
            visited <= 2 * (events + conflicts),
            "{visited} visits for {events} events and {conflicts} conflicts"
        );
    }
}
