//! Live-checked concurrent runs: the threaded driver with the ingest
//! pipeline riding along.
//!
//! [`run_concurrent`](crate::run_concurrent) proves the engines are
//! thread-safe; this driver additionally streams every recorded event
//! through the staged ingest pipeline
//! ([`adya_online::EventPipeline`]) into an [`OnlineChecker`] on a
//! dedicated application thread, so the commit verdict stream is
//! produced *while* the workload runs — workload threads only ever pay
//! a queue push on the checker's behalf, never the checker's graph
//! maintenance.

use adya_engine::Engine;
use adya_history::History;
use adya_online::{EventPipeline, OnlineChecker, PipelineConfig, PipelineStats, Verdict};
use crossbeam::thread;

use crate::concurrent::{run_concurrent, ConcurrentConfig};
use crate::driver::RunStats;
use crate::program::Program;

/// Knobs for a live-checked concurrent run.
#[derive(Debug, Clone, Default)]
pub struct LiveConfig {
    /// The threaded driver's knobs.
    pub concurrent: ConcurrentConfig,
    /// The ingest pipeline's shape.
    pub pipeline: PipelineConfig,
}

/// Everything a live-checked run produces.
pub struct LiveReport {
    /// Driver aggregates (commits, ops, blocks, …).
    pub stats: RunStats,
    /// Per-commit verdicts, in commit order.
    pub verdicts: Vec<Verdict>,
    /// The checker's closing verdict over the whole stream.
    pub verdict: Verdict,
    /// Pipeline throughput counters.
    pub pipeline: PipelineStats,
    /// The finalized history (the run consumes the engine's recorder).
    pub history: History,
}

/// Runs `programs` against `engine` from `cfg.concurrent.threads` OS
/// threads with the ingest pipeline attached, finalizes the engine,
/// and returns the live verdicts alongside the history.
///
/// The verdict stream is byte-identical to sequentially ingesting the
/// same recorded events — the pipeline only moves *where* the checker
/// runs, not what it sees.
pub fn run_concurrent_live(
    engine: &dyn Engine,
    programs: &[Program],
    cfg: &LiveConfig,
) -> LiveReport {
    let pipe = EventPipeline::attach(engine, cfg.pipeline);
    thread::scope(|scope| {
        let checker_thread = scope.spawn(move |_| {
            let mut checker = OnlineChecker::new();
            let mut verdicts = Vec::new();
            let pstats = pipe.run(&mut checker, |v| verdicts.push(v));
            (checker, verdicts, pstats)
        });
        let stats = run_concurrent(engine, programs, &cfg.concurrent);
        // All workload threads joined; finalizing drops the pipeline's
        // tap, which ends the stream: the sequencer drains and returns.
        let history = engine.finalize();
        let (mut checker, verdicts, pipeline) = checker_thread
            .join()
            .expect("pipeline application thread must not panic");
        LiveReport {
            stats,
            verdict: checker.finish(),
            verdicts,
            pipeline,
            history,
        }
    })
    .expect("live driver threads must not panic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{bank_workload, mixed_workload, BankConfig, MixedConfig};
    use adya_core::{classify, IsolationLevel};
    use adya_engine::{LockConfig, LockingEngine, MvccEngine, MvccMode};

    #[test]
    fn live_pipelined_bank_run_is_pl3_and_counts_match() {
        let e = LockingEngine::new(LockConfig::serializable());
        let (_, programs) = bank_workload(
            &e,
            &BankConfig {
                accounts: 6,
                initial_balance: 100,
                transfers: 30,
                audits: 8,
                seed: 5,
            },
        );
        let report = run_concurrent_live(
            &e,
            &programs,
            &LiveConfig {
                pipeline: PipelineConfig {
                    rings: 2,
                    ring_capacity: 8, // tiny: force backpressure
                },
                ..Default::default()
            },
        );
        assert!(report.stats.committed > 0);
        assert_eq!(report.verdicts.len(), report.stats.committed);
        assert_eq!(report.verdict.committed as usize, report.stats.committed);
        // Every event the driver recorded went through the pipeline.
        assert!(report.pipeline.events > 0);
        assert_eq!(
            report.verdict.strongest_ansi,
            Some(IsolationLevel::PL3),
            "fired: {:?}",
            report.verdict.fired
        );
        assert!(classify(&report.history).satisfies(IsolationLevel::PL3));
    }

    #[test]
    fn live_pipelined_verdicts_match_sequential_replay() {
        // Run pipelined with a *plain* tap capturing the identical
        // stream; a fresh checker fed that stream sequentially must
        // produce byte-identical verdicts.
        use std::sync::{Arc, Mutex};
        let e = MvccEngine::new(MvccMode::ReadCommitted);
        let (_, programs) = mixed_workload(
            &e,
            &MixedConfig {
                keys: 6,
                txns: 30,
                ops_per_txn: 4,
                write_ratio: 0.5,
                abort_prob: 0.1,
                delete_prob: 0.1,
                theta: 0.8,
                seed: 11,
            },
        );
        // Install the capture tap *after* workload setup, at the same
        // stream position where run_concurrent_live attaches the
        // pipeline — both observers then see the identical suffix.
        let captured = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&captured);
        e.set_event_tap(Arc::new(move |ev| sink.lock().unwrap().push(ev.clone())));
        let report = run_concurrent_live(&e, &programs, &LiveConfig::default());
        let mut seq = OnlineChecker::new();
        let mut want = Vec::new();
        for ev in captured.lock().unwrap().iter() {
            if let Some(v) = seq.ingest(ev) {
                want.push(v.to_json());
            }
        }
        let got: Vec<String> = report.verdicts.iter().map(|v| v.to_json()).collect();
        assert_eq!(got, want);
        assert_eq!(report.verdict.to_json(), seq.finish().to_json());
    }
}
