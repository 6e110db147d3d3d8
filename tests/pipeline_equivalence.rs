//! The pipeline determinism contract, end to end: for every engine,
//! running a threaded workload with the staged ingest pipeline
//! attached must produce a verdict stream *byte-identical* to feeding
//! the same recorded events through a sequential per-event checker.
//!
//! The threaded schedule itself is nondeterministic — that is the
//! point. A plain [`EventTap`] capturing the recorded stream is
//! installed at the same stream position where the pipeline attaches,
//! so whatever interleaving the OS produced, both observers saw the
//! identical event sequence; the property under test is that rings +
//! sequencer add nothing and lose nothing.
//!
//! [`EventTap`]: adya::engine::EventTap

use std::sync::{Arc, Mutex};

use adya::engine::Engine;
use adya::history::Event;
use adya::online::{OnlineChecker, PipelineConfig};
use adya::workloads::{
    families, mixed_workload, run_concurrent_live, ConcurrentConfig, LiveConfig, MixedConfig,
};
use proptest::prelude::*;

/// Runs one threaded workload on `engine` with both observers
/// installed and asserts the pipelined verdict stream equals the
/// sequential replay of the captured stream, byte for byte.
fn assert_pipelined_matches_sequential(
    name: &str,
    engine: Box<dyn Engine>,
    seed: u64,
    pipeline: PipelineConfig,
    threads: usize,
) {
    let (_, programs) = mixed_workload(
        &engine,
        &MixedConfig {
            keys: 5,
            txns: 16,
            ops_per_txn: 3,
            write_ratio: 0.5,
            abort_prob: 0.1,
            delete_prob: 0.05,
            theta: 0.7,
            seed,
        },
    );
    // Capture tap installed at the pipeline's attach position: both
    // see the identical event suffix, whatever the schedule was.
    let captured: Arc<Mutex<Vec<Event>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&captured);
    engine.set_event_tap(Arc::new(move |ev| sink.lock().unwrap().push(ev.clone())));
    let report = run_concurrent_live(
        &engine,
        &programs,
        &LiveConfig {
            concurrent: ConcurrentConfig {
                threads,
                seed,
                ..Default::default()
            },
            pipeline,
        },
    );
    let mut seq = OnlineChecker::new();
    let mut want = Vec::new();
    for ev in captured.lock().unwrap().iter() {
        if let Some(v) = seq.ingest(ev) {
            want.push(v.to_json());
        }
    }
    let got: Vec<String> = report.verdicts.iter().map(|v| v.to_json()).collect();
    assert_eq!(got, want, "[{name}] live verdict stream diverged");
    assert_eq!(
        report.verdict.to_json(),
        seq.finish().to_json(),
        "[{name}] closing verdict diverged"
    );
    assert_eq!(
        report.verdicts.len(),
        report.stats.committed,
        "[{name}] one verdict per driver commit"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// Pipelined ≡ sequential for every engine, across seeded
    /// threaded schedules and adversarial pipeline shapes (single
    /// ring, tiny rings forcing backpressure).
    #[test]
    fn pipelined_verdicts_equal_sequential_for_all_engines(
        seed in 0u64..1_000_000,
        rings in 1usize..4,
        ring_capacity in 2usize..32,
        threads in 2usize..4,
    ) {
        for scheme in families() {
            assert_pipelined_matches_sequential(
                scheme.name,
                (scheme.make)(),
                seed,
                PipelineConfig { rings, ring_capacity },
                threads,
            );
        }
    }
}
