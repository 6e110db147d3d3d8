//! The deterministic interleaving driver.
//!
//! Given an engine and a set of programs, the driver runs one step of
//! one (seeded-randomly chosen) session at a time. Blocked operations
//! park the session; a wait-for cycle (or a fully-parked system)
//! nominates a deadlock victim, which is aborted and — under the
//! configured [`RetryPolicy`] — retried from the top. Engine-initiated
//! aborts (validation failures, certification cycles, cascades,
//! injected faults) are retried the same way; the policy's restart
//! budget and per-transaction operation deadline bound the fight. The
//! run is fully reproducible from its seed.

use std::collections::HashMap;

use adya_engine::{AbortReason, Engine, EngineError, TablePred, TxnId};
use adya_graph::{DiGraph, NodeIdx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::program::{Program, Stepped};
use crate::retry::{RetryPolicy, RetrySession};

/// Driver knobs.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// RNG seed; equal seeds replay identical interleavings.
    pub seed: u64,
    /// Restart/deadline discipline for aborted sessions.
    pub retry: RetryPolicy,
    /// Global step budget (livelock guard).
    pub fuel: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            seed: 0,
            retry: RetryPolicy::default(),
            fuel: 1_000_000,
        }
    }
}

/// What eventually happened to one program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Committed (possibly after restarts).
    Committed,
    /// Gave up after exhausting the restart budget.
    GaveUp,
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Programs that eventually committed.
    pub committed: usize,
    /// Programs that exhausted their restart budget.
    pub gave_up: usize,
    /// Transaction-level aborts by reason.
    pub aborts: HashMap<String, usize>,
    /// Total operations issued (including retried ones).
    pub ops: usize,
    /// Operations that returned `Blocked`.
    pub blocked: usize,
    /// Deadlock victims chosen by the driver.
    pub deadlock_victims: usize,
    /// Sessions that gave up because their per-transaction operation
    /// deadline ran out (a subset of `gave_up`).
    pub deadline_giveups: usize,
    /// Per-session outcomes, in program order.
    pub outcomes: Vec<SessionOutcome>,
}

impl RunStats {
    /// Total transaction attempts that aborted.
    pub fn total_aborts(&self) -> usize {
        self.aborts.values().sum()
    }

    fn count_abort(&mut self, reason: &AbortReason) {
        *self.aborts.entry(reason.to_string()).or_insert(0) += 1;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    Ready,
    Waiting,
    Done,
}

struct Session {
    program: Program,
    pc: usize,
    regs: Vec<i64>,
    txn: TxnId,
    state: SessionState,
    waiting_on: Vec<TxnId>,
    retry: RetrySession,
    outcome: Option<SessionOutcome>,
    /// Compiled predicates by step index, kept for one attempt:
    /// pointer-stable predicate identity across retries of the same
    /// step.
    pred_cache: Vec<Option<TablePred>>,
}

/// Runs `programs` against `engine` under a seeded interleaving.
pub fn run_deterministic(
    engine: &dyn Engine,
    programs: Vec<Program>,
    cfg: &DriverConfig,
) -> RunStats {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut stats = RunStats::default();
    let mut sessions: Vec<Session> = programs
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let regs = vec![0i64; p.register_count().max(1)];
            Session {
                pred_cache: vec![None; p.steps.len()],
                txn: engine.begin(),
                program: p,
                pc: 0,
                regs,
                state: SessionState::Ready,
                waiting_on: Vec::new(),
                retry: cfg
                    .retry
                    .session(cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                outcome: None,
            }
        })
        .collect();

    let mut fuel = cfg.fuel;
    loop {
        if fuel == 0 {
            break;
        }
        let ready: Vec<usize> = sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == SessionState::Ready)
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            let waiting: Vec<usize> = sessions
                .iter()
                .enumerate()
                .filter(|(_, s)| s.state == SessionState::Waiting)
                .map(|(i, _)| i)
                .collect();
            if waiting.is_empty() {
                break; // all done
            }
            // Everyone is parked: resolve via the wait-for graph; if
            // it is acyclic something will unpark on retry, so wake
            // everyone; a cycle nominates a victim first.
            if let Some(victim) = pick_deadlock_victim(&sessions, &waiting) {
                stats.deadlock_victims += 1;
                restart(engine, &mut sessions[victim], &mut stats, Some(victim));
            }
            for s in &mut sessions {
                if s.state == SessionState::Waiting {
                    s.state = SessionState::Ready;
                }
            }
            fuel = fuel.saturating_sub(1);
            continue;
        }
        let ix = ready[rng.gen_range(0..ready.len())];
        fuel -= 1;
        step_session(engine, &mut sessions, ix, &mut stats);
    }

    for s in &sessions {
        match s.outcome {
            Some(SessionOutcome::Committed) => stats.committed += 1,
            Some(SessionOutcome::GaveUp) | None => stats.gave_up += 1,
        }
        stats
            .outcomes
            .push(s.outcome.unwrap_or(SessionOutcome::GaveUp));
    }
    stats
}

/// Finds a session on a wait-for cycle (preferring the youngest txn),
/// or `None` when the wait-for graph is acyclic.
fn pick_deadlock_victim(sessions: &[Session], waiting: &[usize]) -> Option<usize> {
    let mut g: DiGraph<TxnId, ()> = DiGraph::new();
    let by_txn: HashMap<TxnId, usize> = waiting.iter().map(|&i| (sessions[i].txn, i)).collect();
    for &i in waiting {
        for &h in &sessions[i].waiting_on {
            g.add_edge(sessions[i].txn, h, ());
        }
    }
    // Victim: the waiting session with the largest txn id that sits in
    // a cyclic SCC — one of two or more nodes, or one with a self-loop.
    let (components, _) = g.components(|_| true);
    let mut sizes = vec![0u32; g.node_count()];
    for &c in &components {
        sizes[c as usize] += 1;
    }
    let on_cycle = |ix: NodeIdx| {
        sizes[components[ix.index()] as usize] > 1 || g.successors(ix).any(|(w, _)| w == ix)
    };
    let victim = g
        .node_indices()
        .filter(|&ix| on_cycle(ix))
        .map(|ix| *g.node(ix))
        .filter(|t| by_txn.contains_key(t))
        .max();
    victim.and_then(|t| by_txn.get(&t).copied())
}

fn restart(engine: &dyn Engine, s: &mut Session, stats: &mut RunStats, _ix: Option<usize>) {
    let _ = engine.abort(s.txn);
    adya_obs::counter!("engine.deadlock_victim").inc();
    stats.count_abort(&AbortReason::DeadlockVictim);
    begin_fresh_attempt(engine, s);
}

fn give_up(s: &mut Session) {
    s.state = SessionState::Done;
    s.outcome = Some(SessionOutcome::GaveUp);
}

fn begin_fresh_attempt(engine: &dyn Engine, s: &mut Session) {
    if s.retry.should_restart().is_err() {
        return give_up(s);
    }
    s.txn = engine.begin();
    s.pc = 0;
    s.regs.iter_mut().for_each(|r| *r = 0);
    s.pred_cache.fill(None);
    s.state = SessionState::Ready;
    s.waiting_on.clear();
}

fn step_session(engine: &dyn Engine, sessions: &mut [Session], ix: usize, stats: &mut RunStats) {
    let s = &mut sessions[ix];
    if !s.retry.admit_op() {
        // Per-transaction deadline exhausted: release whatever the
        // attempt holds and give up.
        let _ = engine.abort(s.txn);
        stats.deadline_giveups += 1;
        give_up(s);
        wake_waiters(sessions, ix);
        return;
    }
    stats.ops += 1;
    let (pc, cache) = (s.pc, &mut s.pred_cache);
    let stepped = s
        .program
        .exec_step(pc, engine, s.txn, &mut s.regs, |spec, table| {
            cache[pc].get_or_insert_with(|| spec.compile(table)).clone()
        });
    match stepped {
        Ok(Stepped::Advanced) => s.pc += 1,
        Ok(Stepped::Committed) => {
            s.state = SessionState::Done;
            s.outcome = Some(SessionOutcome::Committed);
        }
        Ok(Stepped::Aborted) => {
            stats.count_abort(&AbortReason::Requested);
            give_up(s);
        }
        Err(EngineError::Blocked { holders }) => {
            stats.blocked += 1;
            s.state = SessionState::Waiting;
            s.waiting_on = holders;
            return; // parked: nobody else got anywhere
        }
        Err(EngineError::Aborted(reason)) => {
            stats.count_abort(&reason);
            begin_fresh_attempt(engine, s);
        }
        Err(EngineError::UnknownTxn) => give_up(s),
    }
    wake_waiters(sessions, ix);
}

/// After session `ix` made progress (commit/abort/op), wake every
/// waiting session — cheap and correct (they re-try and re-park if
/// still conflicted).
fn wake_waiters(sessions: &mut [Session], ix: usize) {
    for (i, s) in sessions.iter_mut().enumerate() {
        if i != ix && s.state == SessionState::Waiting {
            s.state = SessionState::Ready;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Expr, PredSpec, Step};
    use adya_core::{classify, IsolationLevel};
    use adya_engine::{Key, LockConfig, LockingEngine, TableId, Value};

    fn transfer(t: TableId, a: u64, b: u64, amount: i64) -> Program {
        Program::new(
            "transfer",
            vec![
                Step::Read {
                    table: t,
                    key: Key(a),
                    reg: 0,
                },
                Step::Read {
                    table: t,
                    key: Key(b),
                    reg: 1,
                },
                Step::Write {
                    table: t,
                    key: Key(a),
                    value: Expr::reg_plus(0, -amount),
                },
                Step::Write {
                    table: t,
                    key: Key(b),
                    value: Expr::reg_plus(1, amount),
                },
            ],
        )
    }

    fn seed_accounts(e: &dyn Engine, t: TableId, n: u64, each: i64) {
        let tx = e.begin();
        for k in 0..n {
            e.write(tx, t, Key(k), Value::Int(each)).unwrap();
        }
        e.commit(tx).unwrap();
    }

    #[test]
    fn transfers_on_2pl_preserve_invariant_and_serializability() {
        let e = LockingEngine::new(LockConfig::serializable());
        let t = e.catalog().table("acct");
        seed_accounts(&e, t, 4, 100);
        let programs: Vec<Program> = (0..12)
            .map(|i| transfer(t, i % 4, (i + 1) % 4, 10))
            .collect();
        let stats = run_deterministic(&e, programs, &DriverConfig::default());
        assert!(stats.committed > 0);
        // Invariant: the sum is still 400.
        let tx = e.begin();
        let sum: i64 = (0..4)
            .map(|k| {
                e.read(tx, t, Key(k))
                    .unwrap()
                    .and_then(|v| v.as_int())
                    .unwrap_or(0)
            })
            .sum();
        e.commit(tx).unwrap();
        assert_eq!(sum, 400);
        // The recorded history passes PL-3.
        let h = e.finalize();
        let r = classify(&h);
        assert!(r.satisfies(IsolationLevel::PL3), "{r}");
    }

    #[test]
    fn transfers_on_occ_and_mvcc_commit_histories_pass_their_levels() {
        let deferred = ["OCC", "MVCC-SI", "MVCC-RC"];
        let roster = crate::schemes().into_iter();
        for scheme in roster.filter(|s| deferred.contains(&s.name)) {
            let (engine, level) = ((scheme.make)(), scheme.guarantees);
            let t = engine.catalog().table("acct");
            seed_accounts(engine.as_ref(), t, 4, 100);
            let programs: Vec<Program> = (0..10)
                .map(|i| transfer(t, i % 4, (i + 1) % 4, 5))
                .collect();
            let stats = run_deterministic(
                engine.as_ref(),
                programs,
                &DriverConfig {
                    seed: 7,
                    ..Default::default()
                },
            );
            assert!(stats.committed > 0, "{}", engine.name());
            let h = engine.finalize();
            let r = classify(&h);
            assert!(
                r.satisfies(level),
                "{} history must satisfy {level}: {r}",
                engine.name()
            );
        }
    }

    #[test]
    fn deadlocks_are_broken() {
        // Two transfers in opposite directions on 2PL: a classic
        // deadlock under some interleavings. With restarts both must
        // eventually commit across several seeds.
        for seed in 0..8 {
            let e = LockingEngine::new(LockConfig::serializable());
            let t = e.catalog().table("acct");
            seed_accounts(&e, t, 2, 100);
            let programs = vec![transfer(t, 0, 1, 10), transfer(t, 1, 0, 20)];
            let stats = run_deterministic(
                &e,
                programs,
                &DriverConfig {
                    seed,
                    ..Default::default()
                },
            );
            assert_eq!(stats.committed, 2, "seed {seed}: {stats:?}");
        }
    }

    #[test]
    fn abort_step_injects_failures() {
        let e = LockingEngine::new(LockConfig::serializable());
        let t = e.catalog().table("acct");
        let programs = vec![Program::new(
            "doomed",
            vec![
                Step::Write {
                    table: t,
                    key: Key(0),
                    value: Expr::Const(1),
                },
                Step::Abort,
            ],
        )];
        let stats = run_deterministic(&e, programs, &DriverConfig::default());
        assert_eq!(stats.committed, 0);
        assert_eq!(stats.gave_up, 1);
        let h = e.finalize();
        assert_eq!(h.committed_txns().count(), 0);
    }

    #[test]
    fn select_aggregates_into_registers() {
        let e = LockingEngine::new(LockConfig::serializable());
        let t = e.catalog().table("emp");
        seed_accounts(&e, t, 3, 10);
        let programs = vec![Program::new(
            "audit",
            vec![
                Step::Select {
                    table: t,
                    pred: PredSpec::All,
                    count_reg: Some(0),
                    sum_reg: Some(1),
                },
                // Store the observed sum so the history shows it.
                Step::Write {
                    table: t,
                    key: Key(99),
                    value: Expr::reg(1),
                },
            ],
        )];
        let stats = run_deterministic(&e, programs, &DriverConfig::default());
        assert_eq!(stats.committed, 1);
        let tx = e.begin();
        assert_eq!(e.read(tx, t, Key(99)).unwrap(), Some(Value::Int(30)));
        e.commit(tx).unwrap();
    }

    #[test]
    fn runs_replay_identically_per_seed() {
        let run = |seed: u64| {
            let e = LockingEngine::new(LockConfig::read_committed());
            let t = e.catalog().table("acct");
            seed_accounts(&e, t, 4, 100);
            let programs: Vec<Program> =
                (0..8).map(|i| transfer(t, i % 4, (i + 2) % 4, 1)).collect();
            let stats = run_deterministic(
                &e,
                programs,
                &DriverConfig {
                    seed,
                    ..Default::default()
                },
            );
            (stats.committed, stats.ops, e.finalize().len())
        };
        assert_eq!(run(42), run(42));
    }
}
