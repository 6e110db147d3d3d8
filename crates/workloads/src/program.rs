//! The transaction program language.
//!
//! Programs are finite step lists over integer-valued rows, with a
//! tiny register machine for data flow ("read x into r0, write r0−10
//! back"). Keeping programs first-order (no closures) is what lets the
//! deterministic driver interleave them step by step and replay them
//! after restarts.

use adya_engine::{Engine, EngineError, Key, TableId, TablePred, TxnId, Value};

/// An integer expression over the session's registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A constant.
    Const(i64),
    /// The value of a register (0 if never written).
    Reg(usize),
    /// Sum.
    Add(Box<Expr>, Box<Expr>),
    /// Difference.
    Sub(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Evaluates against a register file.
    pub fn eval(&self, regs: &[i64]) -> i64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Reg(r) => regs.get(*r).copied().unwrap_or(0),
            Expr::Add(a, b) => a.eval(regs).wrapping_add(b.eval(regs)),
            Expr::Sub(a, b) => a.eval(regs).wrapping_sub(b.eval(regs)),
        }
    }

    /// `Reg(r)` shorthand.
    pub fn reg(r: usize) -> Expr {
        Expr::Reg(r)
    }

    /// `Reg(r) + c` shorthand.
    pub fn reg_plus(r: usize, c: i64) -> Expr {
        Expr::Add(Box::new(Expr::Reg(r)), Box::new(Expr::Const(c)))
    }
}

/// A declarative predicate usable by generated programs (compiled to
/// an [`adya_engine::TablePred`] on demand, deterministically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredSpec {
    /// Every visible row.
    All,
    /// Rows whose integer value lies in `[lo, hi]`.
    IntRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
}

impl PredSpec {
    /// Compiles to an engine predicate over `table`.
    pub fn compile(&self, table: TableId) -> TablePred {
        match *self {
            PredSpec::All => TablePred::new("all", table, |_| true),
            PredSpec::IntRange { lo, hi } => TablePred::new(
                format!("{lo}<=v<={hi}"),
                table,
                move |v| matches!(v, Value::Int(i) if (lo..=hi).contains(i)),
            ),
        }
    }
}

/// One step of a program. A commit is implicit after the last step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Read `(table, key)`'s integer value into `reg` (0 when the row
    /// is absent or non-integer).
    Read {
        /// Table to read from.
        table: TableId,
        /// Row key.
        key: Key,
        /// Destination register.
        reg: usize,
    },
    /// Write `value` to `(table, key)`.
    Write {
        /// Table to write to.
        table: TableId,
        /// Row key.
        key: Key,
        /// Value expression.
        value: Expr,
    },
    /// Delete `(table, key)`.
    Delete {
        /// Table.
        table: TableId,
        /// Row key.
        key: Key,
    },
    /// Predicate read over `table`; the *count* of matches lands in
    /// `count_reg` and their integer *sum* in `sum_reg` when given.
    Select {
        /// Table to scan.
        table: TableId,
        /// The predicate.
        pred: PredSpec,
        /// Register receiving the match count.
        count_reg: Option<usize>,
        /// Register receiving the sum of matching integer values.
        sum_reg: Option<usize>,
    },
    /// Voluntarily abort (failure injection).
    Abort,
}

/// How one successful [`Program::exec_step`] left the transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepped {
    /// The step ran; the next one is `pc + 1`.
    Advanced,
    /// `pc` was past the last step and the commit went through.
    Committed,
    /// The step was [`Step::Abort`]: the program aborted itself.
    Aborted,
}

/// A transaction program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Display label ("transfer", "audit", …).
    pub label: String,
    /// The steps; an implicit commit follows the last one.
    pub steps: Vec<Step>,
}

impl Program {
    /// Creates a program.
    pub fn new(label: impl Into<String>, steps: Vec<Step>) -> Program {
        Program {
            label: label.into(),
            steps,
        }
    }

    /// Runs step `pc` of the program for `txn` on `engine` — the one
    /// interpreter of [`Step`]: a read lands in its register, a write
    /// evaluates its [`Expr`] over `regs`, a select fills its count and
    /// sum registers, [`Step::Abort`] aborts, and a `pc` past the last
    /// step commits. An `Err` is the engine's own answer, untouched:
    /// whether to wait out a `Blocked`, restart or give up is the
    /// calling driver's policy. `regs` must hold
    /// [`register_count`](Program::register_count) registers.
    ///
    /// `pred` hands a select step its compiled predicate. A recorded
    /// history tells predicates apart by their closure, so whether the
    /// caller compiles afresh or hands back the one it compiled for
    /// this step earlier decides which predicate reads share a
    /// predicate — also the caller's policy.
    pub fn exec_step(
        &self,
        pc: usize,
        engine: &dyn Engine,
        txn: TxnId,
        regs: &mut [i64],
        pred: impl FnOnce(&PredSpec, TableId) -> TablePred,
    ) -> Result<Stepped, EngineError> {
        let Some(step) = self.steps.get(pc) else {
            return engine.commit(txn).map(|()| Stepped::Committed);
        };
        match step {
            Step::Read { table, key, reg } => {
                regs[*reg] = match engine.read(txn, *table, *key)? {
                    Some(Value::Int(i)) => i,
                    _ => 0,
                };
            }
            Step::Write { table, key, value } => {
                engine.write(txn, *table, *key, Value::Int(value.eval(regs)))?;
            }
            Step::Delete { table, key } => engine.delete(txn, *table, *key)?,
            Step::Select {
                table,
                pred: spec,
                count_reg,
                sum_reg,
            } => {
                let rows = engine.select(txn, &pred(spec, *table))?;
                if let Some(r) = count_reg {
                    regs[*r] = rows.len() as i64;
                }
                if let Some(r) = sum_reg {
                    regs[*r] = rows.iter().map(|(_, v)| v.as_int().unwrap_or(0)).sum();
                }
            }
            Step::Abort => {
                let _ = engine.abort(txn);
                return Ok(Stepped::Aborted);
            }
        }
        Ok(Stepped::Advanced)
    }

    /// Number of registers the program touches.
    pub fn register_count(&self) -> usize {
        fn expr_max(e: &Expr) -> usize {
            match e {
                Expr::Const(_) => 0,
                Expr::Reg(r) => r + 1,
                Expr::Add(a, b) | Expr::Sub(a, b) => expr_max(a).max(expr_max(b)),
            }
        }
        self.steps
            .iter()
            .map(|s| match s {
                Step::Read { reg, .. } => reg + 1,
                Step::Write { value, .. } => expr_max(value),
                Step::Select {
                    count_reg, sum_reg, ..
                } => count_reg
                    .map(|r| r + 1)
                    .max(sum_reg.map(|r| r + 1))
                    .unwrap_or(0),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_evaluation() {
        let regs = [10, 20];
        assert_eq!(Expr::Const(5).eval(&regs), 5);
        assert_eq!(Expr::Reg(1).eval(&regs), 20);
        assert_eq!(Expr::Reg(9).eval(&regs), 0);
        assert_eq!(Expr::reg_plus(0, -3).eval(&regs), 7);
        assert_eq!(
            Expr::Sub(Box::new(Expr::Reg(1)), Box::new(Expr::Reg(0))).eval(&regs),
            10
        );
    }

    #[test]
    fn pred_spec_compiles() {
        let p = PredSpec::IntRange { lo: 0, hi: 5 }.compile(TableId(0));
        assert!(p.matches(&Value::Int(3)));
        assert!(!p.matches(&Value::Int(9)));
        assert!(!p.matches(&Value::Str("x".into())));
        let all = PredSpec::All.compile(TableId(0));
        assert!(all.matches(&Value::Int(-1)));
    }

    #[test]
    fn register_count_covers_all_steps() {
        let p = Program::new(
            "t",
            vec![
                Step::Read {
                    table: TableId(0),
                    key: Key(1),
                    reg: 2,
                },
                Step::Write {
                    table: TableId(0),
                    key: Key(1),
                    value: Expr::reg_plus(4, 1),
                },
                Step::Select {
                    table: TableId(0),
                    pred: PredSpec::All,
                    count_reg: Some(6),
                    sum_reg: None,
                },
            ],
        );
        assert_eq!(p.register_count(), 7);
    }

    /// Every kind of step, then the implicit commit.
    fn every_step(t: TableId) -> Program {
        let select = |lo, count_reg| Step::Select {
            table: t,
            pred: PredSpec::IntRange { lo, hi: 100 },
            count_reg,
            sum_reg: Some(2),
        };
        Program::new(
            "every-step",
            vec![
                Step::Read {
                    table: t,
                    key: Key(0),
                    reg: 0,
                },
                Step::Write {
                    table: t,
                    key: Key(1),
                    value: Expr::reg_plus(0, 5),
                },
                select(0, Some(1)),
                Step::Delete {
                    table: t,
                    key: Key(0),
                },
                select(10, None),
                Step::Write {
                    table: t,
                    key: Key(2),
                    value: Expr::Add(Box::new(Expr::Reg(1)), Box::new(Expr::Reg(2))),
                },
            ],
        )
    }

    /// What `run` records when it drives [`every_step`] alone.
    fn recorded(run: impl FnOnce(&dyn Engine, Program)) -> String {
        use adya_engine::{LockConfig, LockingEngine};
        let e = LockingEngine::new(LockConfig::serializable());
        let t = e.catalog().table("t");
        let setup = e.begin();
        e.write(setup, t, Key(0), Value::Int(7)).unwrap();
        e.commit(setup).unwrap();
        run(&e, every_step(t));
        e.finalize().to_string()
    }

    /// The two drivers differ in scheduling and restart policy only:
    /// with one session there is nothing to schedule, so both record
    /// what a bare loop over `exec_step` records.
    #[test]
    fn both_drivers_and_a_bare_loop_record_the_same_history() {
        let by_hand = recorded(|e, p| {
            let txn = e.begin();
            let mut regs = vec![0; p.register_count()];
            let mut pc = 0;
            while p.exec_step(pc, e, txn, &mut regs, |spec, t| spec.compile(t))
                == Ok(Stepped::Advanced)
            {
                pc += 1;
            }
            assert_eq!(pc, p.steps.len(), "stopped at the commit");
            // 7 read; 12 written; {7, 12} counted; 12 summed after the
            // delete of 7.
            assert_eq!(regs, [7, 2, 12]);
        });
        assert!(by_hand.contains("w1(table0#2[1], 14) c1"), "{by_hand}");
        let deterministic = recorded(|e, p| {
            let stats = crate::run_deterministic(e, vec![p], &crate::DriverConfig::default());
            assert_eq!(stats.committed, 1);
        });
        let concurrent = recorded(|e, p| {
            let cfg = crate::ConcurrentConfig {
                threads: 1,
                ..Default::default()
            };
            assert_eq!(crate::run_concurrent(e, &[p], &cfg).committed, 1);
        });
        assert_eq!(deterministic, by_hand);
        assert_eq!(concurrent, by_hand);
    }

    #[test]
    fn a_self_abort_and_an_engine_error_come_back_as_they_are() {
        use adya_engine::{LockConfig, LockingEngine};
        let e = LockingEngine::new(LockConfig::serializable());
        let p = Program::new("abort", vec![Step::Abort]);
        let txn = e.begin();
        let never = |_: &PredSpec, _| unreachable!("no select step");
        assert_eq!(
            p.exec_step(0, &e, txn, &mut [], never),
            Ok(Stepped::Aborted)
        );
        // The transaction is gone: the commit past the last step is the
        // engine's refusal, not the interpreter's.
        let refused = p.exec_step(1, &e, txn, &mut [], never);
        assert!(
            matches!(refused, Err(EngineError::Aborted(_))),
            "{refused:?}"
        );
    }
}
