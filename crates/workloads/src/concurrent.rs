//! A real-threads driver.
//!
//! The deterministic driver proves *what* each scheme admits; this one
//! proves the engines are actually thread-safe: N OS threads hammer
//! one engine concurrently, spinning (with yields) on `Blocked`
//! operations and falling back to timeout-based deadlock victims. The
//! resulting history is still a single totally-ordered record (the
//! recorder serializes events), so the checker applies unchanged.
//!
//! Nondeterministic by nature — every run is a fresh schedule — which
//! is exactly what makes it a good stress test: the soundness property
//! ("every committed history satisfies the engine's level") must hold
//! for *all* schedules, not just seeded ones.

use std::sync::atomic::{AtomicUsize, Ordering};

use adya_engine::{Engine, EngineError, TablePred};
use crossbeam::thread;

use crate::driver::RunStats;
use crate::program::{Program, Stepped};
use crate::retry::RetryPolicy;

/// Knobs for the concurrent driver.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Worker threads.
    pub threads: usize,
    /// Backoff yields one operation may spend across consecutive
    /// `Blocked` retries (each retry counts at least one) before the
    /// session declares itself a deadlock victim and restarts.
    pub spin_limit: usize,
    /// Restart/backoff/deadline discipline per program.
    pub retry: RetryPolicy,
    /// Seeds the per-program backoff jitter (the schedule itself stays
    /// nondeterministic — this only makes the jitter draws replayable).
    pub seed: u64,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        ConcurrentConfig {
            threads: 4,
            spin_limit: 2_000,
            retry: RetryPolicy::default(),
            seed: 0,
        }
    }
}

/// Runs `programs` against `engine` from `cfg.threads` OS threads;
/// each thread claims the next unclaimed program and executes it to
/// commit (restarting on aborts/deadlocks) before claiming another.
pub fn run_concurrent(
    engine: &dyn Engine,
    programs: &[Program],
    cfg: &ConcurrentConfig,
) -> RunStats {
    let next = AtomicUsize::new(0);
    let committed = AtomicUsize::new(0);
    let gave_up = AtomicUsize::new(0);
    let blocked = AtomicUsize::new(0);
    let ops = AtomicUsize::new(0);
    let victims = AtomicUsize::new(0);
    let deadline_giveups = AtomicUsize::new(0);

    thread::scope(|scope| {
        for _ in 0..cfg.threads.max(1) {
            scope.spawn(|_| loop {
                let ix = next.fetch_add(1, Ordering::Relaxed);
                let Some(program) = programs.get(ix) else {
                    return;
                };
                if run_program(
                    engine,
                    program,
                    ix,
                    cfg,
                    &blocked,
                    &ops,
                    &victims,
                    &deadline_giveups,
                ) {
                    committed.fetch_add(1, Ordering::Relaxed);
                } else {
                    gave_up.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    })
    .expect("driver threads must not panic");

    let mut stats = RunStats {
        committed: committed.into_inner(),
        gave_up: gave_up.into_inner(),
        ops: ops.into_inner(),
        blocked: blocked.into_inner(),
        deadlock_victims: victims.into_inner(),
        deadline_giveups: deadline_giveups.into_inner(),
        ..Default::default()
    };
    // Aggregate outcomes are enough for the concurrent driver; per-
    // session outcome order is meaningless across threads.
    stats.outcomes.clear();
    stats
}

/// Executes one program to completion; true on commit.
#[allow(clippy::too_many_arguments)]
fn run_program(
    engine: &dyn Engine,
    program: &Program,
    ix: usize,
    cfg: &ConcurrentConfig,
    blocked: &AtomicUsize,
    ops: &AtomicUsize,
    victims: &AtomicUsize,
    deadline_giveups: &AtomicUsize,
) -> bool {
    let mut regs = vec![0i64; program.register_count().max(1)];
    // Predicates compiled once per program run so their identity is
    // stable across blocked retries and restarts.
    let mut preds: Vec<Option<TablePred>> = vec![None; program.steps.len()];
    let mut retry = cfg
        .retry
        .session(cfg.seed ^ (ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));

    'attempt: loop {
        let txn = engine.begin();
        regs.iter_mut().for_each(|r| *r = 0);
        let mut pc = 0usize;
        let mut spins = 0usize;
        loop {
            if !retry.admit_op() {
                // Per-transaction deadline exhausted.
                deadline_giveups.fetch_add(1, Ordering::Relaxed);
                let _ = engine.abort(txn);
                return false;
            }
            ops.fetch_add(1, Ordering::Relaxed);
            let stepped = program.exec_step(pc, engine, txn, &mut regs, |spec, table| {
                preds[pc].get_or_insert_with(|| spec.compile(table)).clone()
            });
            match stepped {
                Ok(Stepped::Advanced) => {
                    pc += 1;
                    spins = 0;
                    retry.clear_backoff();
                }
                Ok(Stepped::Committed) => return true,
                Ok(Stepped::Aborted) => return false,
                Err(EngineError::Blocked { .. }) => {
                    blocked.fetch_add(1, Ordering::Relaxed);
                    if spins > cfg.spin_limit {
                        // Timeout-based deadlock victim.
                        victims.fetch_add(1, Ordering::Relaxed);
                        let _ = engine.abort(txn);
                        if retry.should_restart().is_err() {
                            return false;
                        }
                        continue 'attempt;
                    }
                    let backoff = retry.backoff_spins();
                    spins += backoff.max(1) as usize;
                    for _ in 0..backoff {
                        std::thread::yield_now();
                    }
                }
                // Any abort surfaced by an *operation* is restartable —
                // including `Requested`, which under a fault plane means
                // the transaction was aborted out from under this thread
                // (a crash point), not that the program asked for it.
                // The program's own `Step::Abort` returns above without
                // consulting the policy.
                Err(EngineError::Aborted(_)) => {
                    if retry.should_restart().is_err() {
                        return false;
                    }
                    continue 'attempt;
                }
                Err(EngineError::UnknownTxn) => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{bank_workload, mixed_workload, BankConfig, MixedConfig};
    use adya_core::{classify, IsolationLevel};
    use adya_engine::{
        CertifyLevel, Key, LockConfig, LockingEngine, MvccEngine, MvccMode, OccEngine, SgtEngine,
    };

    #[test]
    fn concurrent_2pl_preserves_invariant_and_serializability() {
        let e = LockingEngine::new(LockConfig::serializable());
        let (table, programs) = bank_workload(
            &e,
            &BankConfig {
                accounts: 6,
                initial_balance: 100,
                transfers: 40,
                audits: 10,
                seed: 3,
            },
        );
        let stats = run_concurrent(&e, &programs, &ConcurrentConfig::default());
        assert!(stats.committed > 0, "{stats:?}");
        let tx = e.begin();
        let total: i64 = (0..6)
            .map(|k| {
                e.read(tx, table, Key(k))
                    .unwrap()
                    .and_then(|v| v.as_int())
                    .unwrap_or(0)
            })
            .sum();
        e.commit(tx).unwrap();
        assert_eq!(total, 600);
        let h = e.finalize();
        assert!(classify(&h).satisfies(IsolationLevel::PL3));
    }

    #[test]
    fn concurrent_occ_and_mvcc_histories_check() {
        for (engine, level) in [
            (
                Box::new(OccEngine::new()) as Box<dyn adya_engine::Engine>,
                IsolationLevel::PL3,
            ),
            (
                Box::new(MvccEngine::new(MvccMode::SnapshotIsolation)),
                IsolationLevel::PLSI,
            ),
            (
                Box::new(MvccEngine::new(MvccMode::ReadCommitted)),
                IsolationLevel::PL2,
            ),
        ] {
            let (_, programs) = mixed_workload(
                engine.as_ref(),
                &MixedConfig {
                    keys: 8,
                    txns: 40,
                    ops_per_txn: 4,
                    write_ratio: 0.5,
                    abort_prob: 0.0,
                    delete_prob: 0.0,
                    theta: 0.8,
                    seed: 9,
                },
            );
            let stats = run_concurrent(engine.as_ref(), &programs, &ConcurrentConfig::default());
            assert!(stats.committed > 0, "{}", engine.name());
            let h = engine.finalize();
            assert!(
                classify(&h).satisfies(level),
                "{} under threads must satisfy {level}",
                engine.name()
            );
        }
    }

    #[test]
    fn concurrent_locking_levels_check() {
        for (config, level) in [
            (LockConfig::read_uncommitted(), IsolationLevel::PL1),
            (LockConfig::read_committed(), IsolationLevel::PL2),
            (LockConfig::repeatable_read(), IsolationLevel::PL299),
        ] {
            let e = LockingEngine::new(config);
            let (_, programs) = mixed_workload(
                &e,
                &MixedConfig {
                    keys: 6,
                    txns: 30,
                    ops_per_txn: 3,
                    write_ratio: 0.5,
                    abort_prob: 0.0,
                    delete_prob: 0.1,
                    theta: 0.7,
                    seed: 21,
                },
            );
            let _ = run_concurrent(&e, &programs, &ConcurrentConfig::default());
            let h = e.finalize();
            assert!(
                classify(&h).satisfies(level),
                "{config:?} under threads must satisfy {level}"
            );
        }
    }

    #[test]
    fn concurrent_mvto_histories_check() {
        let e = adya_engine::MvtoEngine::new();
        let (_, programs) = mixed_workload(
            &e,
            &MixedConfig {
                keys: 8,
                txns: 30,
                ops_per_txn: 3,
                write_ratio: 0.5,
                abort_prob: 0.0,
                delete_prob: 0.0,
                theta: 0.6,
                seed: 17,
            },
        );
        let _ = run_concurrent(&e, &programs, &ConcurrentConfig::default());
        let h = e.finalize();
        assert!(classify(&h).satisfies(IsolationLevel::PL3));
    }

    #[test]
    fn concurrent_sgt_histories_check() {
        let e = SgtEngine::new(CertifyLevel::PL3);
        let (_, programs) = mixed_workload(
            &e,
            &MixedConfig {
                keys: 8,
                txns: 30,
                ops_per_txn: 3,
                write_ratio: 0.5,
                abort_prob: 0.0,
                delete_prob: 0.0,
                theta: 0.6,
                seed: 13,
            },
        );
        let _ = run_concurrent(&e, &programs, &ConcurrentConfig::default());
        let h = e.finalize();
        assert!(classify(&h).satisfies(IsolationLevel::PL3));
    }
}
