//! The pipeline determinism contract, end to end: for every engine,
//! the stream a threaded workload recorded, pushed through the staged
//! ingest pipeline from a producer thread, must produce a verdict
//! stream *byte-identical* to feeding the same events through a
//! sequential per-event checker.
//!
//! The threaded schedule itself is nondeterministic — that is the
//! point. A plain [`EventTap`] captures whatever interleaving the OS
//! produced; the property under test is that rings + sequencer add
//! nothing and lose nothing.
//!
//! [`EventTap`]: adya::engine::EventTap

use std::sync::{Arc, Mutex};

use adya::engine::Engine;
use adya::history::Event;
use adya::online::{EventPipeline, OnlineChecker, PipelineConfig};
use adya::workloads::{families, mixed_workload, run_concurrent, ConcurrentConfig, MixedConfig};
use proptest::prelude::*;

/// Runs one threaded workload on `engine` with a capture tap
/// installed, pushes the captured stream through a `pipeline`-shaped
/// pipeline, and asserts its verdict stream equals the sequential
/// ingest of the same stream, byte for byte.
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
    let captured: Arc<Mutex<Vec<Event>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&captured);
    engine.set_event_tap(Arc::new(move |ev| sink.lock().unwrap().push(ev.clone())));
    let stats = run_concurrent(
        &engine,
        &programs,
        &ConcurrentConfig {
            threads,
            seed,
            ..Default::default()
        },
    );
    engine.finalize();
    let events = std::mem::take(&mut *captured.lock().unwrap());

    let mut seq = OnlineChecker::new();
    let want: Vec<String> = (events.iter())
        .filter_map(|ev| seq.ingest(ev).map(|v| v.to_json()))
        .collect();

    let (producers, pipe) = EventPipeline::manual(pipeline);
    let sent = events.len() as u64;
    let producer = std::thread::spawn(move || {
        for (i, ev) in events.into_iter().enumerate() {
            producers[i % producers.len()].push(i as u64, ev);
        }
        // The producers drop here: the stream ends.
    });
    let mut checker = OnlineChecker::new();
    let mut got = Vec::new();
    let applied = pipe.run(&mut checker, |v| got.push(v.to_json()));
    producer.join().expect("the producer thread must not panic");

    assert_eq!(got, want, "[{name}] pipelined verdict stream diverged");
    assert_eq!(
        checker.finish().to_json(),
        seq.finish().to_json(),
        "[{name}] closing verdict diverged"
    );
    assert_eq!(applied.events, sent, "[{name}] every event applied");
    assert_eq!(
        got.len(),
        stats.committed,
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
