//! Property tests of the `Engine` error contract the fault plane and
//! retry layer rely on: `Blocked` must be side-effect-free (hammering
//! a blocked operation extra times changes nothing observable) and
//! `abort` must be idempotent (re-aborting, or aborting a resolved
//! transaction, is an accepted no-op). Both properties hold across all
//! five engine families. And what every configuration records is pinned
//! by a golden file.

use adya::engine::{
    Engine, EngineError, Key, LockConfig, LockingEngine, Recorder, TableId, TablePred, TxnId, Value,
};
use adya::history::History;
use adya::workloads::{
    families, mixed_workload, run_deterministic, schemes, DriverConfig, MixedConfig,
};
use proptest::prelude::*;

/// Re-issues every operation that returns `Blocked` `extra` more
/// times before reporting the block. If `Blocked` has any side effect
/// — a queue entry, a recorded event, store mutation — the amplified
/// run's history diverges from the plain run's.
struct BlockAmplifier<E> {
    inner: E,
    extra: usize,
}

impl<E: Engine> BlockAmplifier<E> {
    fn hammer<T>(&self, op: impl Fn() -> Result<T, EngineError>) -> Result<T, EngineError> {
        let r = op();
        if matches!(r, Err(EngineError::Blocked { .. })) {
            for _ in 0..self.extra {
                let again = op();
                assert!(
                    matches!(again, Err(EngineError::Blocked { .. })),
                    "a blocked op re-issued with nothing else running must block again"
                );
            }
        }
        r
    }
}

impl<E: Engine> Engine for BlockAmplifier<E> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn catalog(&self) -> &adya::engine::Catalog {
        self.inner.catalog()
    }
    fn begin(&self) -> TxnId {
        self.inner.begin()
    }
    fn read(&self, txn: TxnId, table: TableId, key: Key) -> Result<Option<Value>, EngineError> {
        self.hammer(|| self.inner.read(txn, table, key))
    }
    fn write(&self, txn: TxnId, table: TableId, key: Key, value: Value) -> Result<(), EngineError> {
        self.hammer(|| self.inner.write(txn, table, key, value.clone()))
    }
    fn delete(&self, txn: TxnId, table: TableId, key: Key) -> Result<(), EngineError> {
        self.hammer(|| self.inner.delete(txn, table, key))
    }
    fn select(&self, txn: TxnId, pred: &TablePred) -> Result<Vec<(Key, Value)>, EngineError> {
        self.hammer(|| self.inner.select(txn, pred))
    }
    fn commit(&self, txn: TxnId) -> Result<(), EngineError> {
        self.hammer(|| self.inner.commit(txn))
    }
    fn abort(&self, txn: TxnId) -> Result<(), EngineError> {
        self.inner.abort(txn)
    }
    fn recorder(&self) -> &Recorder {
        self.inner.recorder()
    }
    fn finalize(&self) -> History {
        self.inner.finalize()
    }
}

/// One seeded deterministic run; returns (history text, committed,
/// ops, blocked) as the observable fingerprint.
pub fn fingerprint(
    engine: Box<dyn Engine>,
    extra: usize,
    seed: u64,
) -> (String, usize, usize, usize) {
    let amp = BlockAmplifier {
        inner: engine,
        extra,
    };
    let (_, programs) = mixed_workload(
        &amp,
        &MixedConfig {
            keys: 5,
            txns: 12,
            ops_per_txn: 4,
            write_ratio: 0.6,
            abort_prob: 0.1,
            delete_prob: 0.1,
            theta: 0.8,
            seed,
        },
    );
    let stats = run_deterministic(
        &amp,
        programs,
        &DriverConfig {
            seed,
            ..Default::default()
        },
    );
    (
        amp.finalize().to_string(),
        stats.committed,
        stats.ops,
        stats.blocked,
    )
}

/// Every engine configuration the repository constructs anywhere: the
/// roster, and Degree 0 — which promises no level, so the roster leaves
/// it out.
fn configurations() -> Vec<Box<dyn Engine>> {
    let degree0: Box<dyn Engine> = Box::new(LockingEngine::new(LockConfig::degree0()));
    let roster = schemes().into_iter().map(|s| (s.make)());
    roster.chain([degree0]).collect()
}

/// FNV-1a, 64 bit: the golden file holds a hash of each history text,
/// not 384 histories.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What every engine records — each event, object name, version id and
/// version order — is pinned per configuration and seed: a change to
/// how histories are recorded shows up here as a changed line, and a
/// refactoring must leave the file alone. One line per configuration ×
/// seed, in no particular order: name, seed, committed, ops, blocked,
/// FNV-1a of the history text. Regenerate (deliberate changes only)
/// with `REGEN_GOLDEN=1 cargo test --test engine_contract`.
#[test]
fn recorded_histories_match_their_fingerprints() {
    let mut got = Vec::new();
    for seed in 0..32u64 {
        for engine in configurations() {
            let name = engine.name();
            let (text, committed, ops, blocked) = fingerprint(engine, 0, seed);
            let hash = fnv1a(&text);
            got.push(format!(
                "{name} {seed} {committed} {ops} {blocked} {hash:016x}"
            ));
        }
    }
    got.sort();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/engines/fingerprints.golden");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("create dir");
        std::fs::write(&path, got.join("\n") + "\n").expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut want: Vec<&str> = want.lines().collect();
    want.sort();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g, w,
            "an engine records a different history than the golden's"
        );
    }
    assert_eq!(got.len(), want.len(), "golden length");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `Blocked` leaves no trace: a run where every blocked operation
    /// is re-issued three extra times is observationally identical to
    /// the plain run — same history, same stats.
    #[test]
    fn blocked_is_side_effect_free(seed in 0u64..5_000) {
        for scheme in families() {
            let base = fingerprint((scheme.make)(), 0, seed);
            let hammered = fingerprint((scheme.make)(), 3, seed);
            prop_assert_eq!(&base, &hammered, "{}: blocked op left a side effect", scheme.name);
        }
    }

    /// `abort` is idempotent and accepted on resolved transactions:
    /// extra aborts — of active, already-aborted, and committed
    /// transactions — all return `Ok(())` and leave the recorded
    /// history exactly as a single abort would.
    #[test]
    fn abort_is_idempotent(seed in 0u64..5_000, extra in 1usize..4) {
        for scheme in families() {
            let name = scheme.name;
            let run = |extra_aborts: usize| -> String {
                let eng = (scheme.make)();
                let t = eng.catalog().table("acct");
                let k = Key(seed % 3);
                let committed = eng.begin();
                eng.write(committed, t, k, Value::Int(seed as i64)).unwrap();
                eng.commit(committed).unwrap();
                let doomed = eng.begin();
                let _ = eng.read(doomed, t, k);
                let _ = eng.write(doomed, t, Key(7), Value::Int(1));
                eng.abort(doomed).unwrap();
                for _ in 0..extra_aborts {
                    assert_eq!(eng.abort(doomed), Ok(()), "{name}: re-abort must be Ok");
                    assert_eq!(
                        eng.abort(committed),
                        Ok(()),
                        "{name}: abort of a committed txn must be an accepted no-op"
                    );
                }
                eng.finalize().to_string()
            };
            prop_assert_eq!(run(0), run(extra), "{}: extra aborts changed the history", name);
        }
    }
}
