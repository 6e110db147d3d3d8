//! Direct random-history sampling (no engine in the loop).
//!
//! Permissiveness experiments (E11) and the checker's property tests
//! need histories drawn from a *neutral* distribution — not the output
//! of any particular concurrency control, which would bias the sample
//! toward its own admissible set. This generator emits well-formed
//! histories with tunable "dirtiness": probability of reading
//! uncommitted tips, abort rates, and (optionally) version orders that
//! deviate from commit order, as multi-version systems produce.

use adya_history::{History, HistoryBuilder, ObjectId, TxnId, Value, VersionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for the random-history sampler.
#[derive(Debug, Clone)]
pub struct HistGenConfig {
    /// Number of transactions.
    pub txns: usize,
    /// Number of (preloaded) objects.
    pub objects: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Probability an operation is a write.
    pub write_prob: f64,
    /// Probability a read observes the *latest version regardless of
    /// commit status* (dirty) instead of the latest committed one.
    pub dirty_read_prob: f64,
    /// Probability a transaction aborts.
    pub abort_prob: f64,
    /// Probability that an object's committed version order is a
    /// random permutation instead of commit order (multi-version
    /// flavour). Leave at 0 to model single-version systems.
    pub shuffle_order_prob: f64,
    /// Concurrency window: at most this many transactions are live at
    /// once; the next one starts only when a slot frees up (how a
    /// connection-pooled system behaves, and what a bounded-memory
    /// streaming checker can exploit). `0` means unbounded — every
    /// transaction is live from the start.
    pub max_concurrent: usize,
}

impl Default for HistGenConfig {
    fn default() -> Self {
        HistGenConfig {
            txns: 6,
            objects: 4,
            ops_per_txn: 4,
            write_prob: 0.5,
            dirty_read_prob: 0.3,
            abort_prob: 0.15,
            shuffle_order_prob: 0.0,
            max_concurrent: 0,
        }
    }
}

/// Tracks the live version bookkeeping during generation.
///
/// Mirrors an in-place store: when a transaction aborts, its versions
/// are undone and disappear from the chain — so a "dirty" read can
/// only ever observe versions of live (uncommitted) or committed
/// transactions, exactly as in any implementation the preventative
/// definitions reason about. (Reading a version *before* its writer
/// aborts is still possible, which is what G1a is for.)
struct ObjState {
    id: ObjectId,
    /// Live versions in install order: (writer, seq).
    versions: Vec<(TxnId, u32)>,
}

/// Digit-free object names: "oa", "ob", …, "oaa".
fn obj_name(mut i: usize) -> String {
    let mut suffix = String::new();
    loop {
        suffix.insert(0, (b'a' + (i % 26) as u8) as char);
        i /= 26;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    format!("o{suffix}")
}

/// Samples one random well-formed history.
pub fn random_history(cfg: &HistGenConfig, seed: u64) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = HistoryBuilder::new();

    let mut objs: Vec<ObjState> = (0..cfg.objects)
        .map(|i| ObjState {
            // Letter-suffixed names: the textual notation reserves
            // trailing digits for version references, and round-trip
            // tests need expressible names.
            id: b.preloaded_object(obj_name(i), Value::Int(0)),
            versions: Vec::new(),
        })
        .collect();

    struct Sess {
        txn: TxnId,
        remaining: usize,
        /// Objects this txn wrote (its reads must observe own writes).
        wrote: Vec<usize>,
    }
    let mut sessions: Vec<Sess> = (0..cfg.txns)
        .map(|i| Sess {
            txn: TxnId(i as u32),
            remaining: cfg.ops_per_txn,
            wrote: Vec::new(),
        })
        .collect();
    // Decide fates up front so the generator can commit writers before
    // the histories end.
    let fates: Vec<bool> = (0..cfg.txns)
        .map(|_| !rng.gen_bool(cfg.abort_prob))
        .collect();
    let mut committed: Vec<bool> = vec![false; cfg.txns];

    let window = if cfg.max_concurrent == 0 {
        cfg.txns
    } else {
        cfg.max_concurrent
    };
    let mut active: Vec<usize> = (0..cfg.txns.min(window)).collect();
    let mut next_admit = active.len();
    while !active.is_empty() {
        let pick = rng.gen_range(0..active.len());
        let six = active[pick];
        let done = {
            let s = &mut sessions[six];
            if s.remaining == 0 {
                true
            } else {
                s.remaining -= 1;
                let oix = rng.gen_range(0..objs.len());
                let obj = &mut objs[oix];
                if rng.gen_bool(cfg.write_prob) {
                    let vid = b.write(s.txn, obj.id, Value::Int(rng.gen_range(0..100)));
                    obj.versions.push((s.txn, vid.seq));
                    if !s.wrote.contains(&oix) {
                        s.wrote.push(oix);
                    }
                } else {
                    // Choose the version to read.
                    let vid = if s.wrote.contains(&oix) {
                        // Must read own latest write.
                        let (_, seq) = *obj
                            .versions
                            .iter()
                            .rev()
                            .find(|(t, _)| *t == s.txn)
                            .expect("wrote it");
                        VersionId::new(s.txn, seq)
                    } else if rng.gen_bool(cfg.dirty_read_prob) {
                        match obj.versions.last() {
                            Some(&(t, seq)) => VersionId::new(t, seq),
                            None => VersionId::INIT,
                        }
                    } else {
                        match obj
                            .versions
                            .iter()
                            .rev()
                            .find(|(t, _)| committed[t.0 as usize])
                        {
                            Some(&(t, seq)) => VersionId::new(t, seq),
                            None => VersionId::INIT,
                        }
                    };
                    b.read_version(s.txn, obj.id, vid);
                }
                false
            }
        };
        if done {
            let s = &sessions[six];
            if fates[six] {
                b.commit(s.txn);
                committed[six] = true;
            } else {
                b.abort(s.txn);
                // In-place undo: the aborted writer's versions vanish.
                for obj in &mut objs {
                    obj.versions.retain(|(t, _)| *t != s.txn);
                }
            }
            active.remove(pick);
            if next_admit < cfg.txns {
                active.push(next_admit);
                next_admit += 1;
            }
        }
    }

    // Optional multi-version shuffle of committed orders.
    if cfg.shuffle_order_prob > 0.0 {
        for obj in &objs {
            if !rng.gen_bool(cfg.shuffle_order_prob) {
                continue;
            }
            // Final committed versions of this object.
            let mut finals: Vec<VersionId> = Vec::new();
            for &(t, seq) in &obj.versions {
                if committed[t.0 as usize] {
                    match finals.iter_mut().find(|v| v.txn == t) {
                        Some(v) => {
                            if seq > v.seq {
                                v.seq = seq;
                            }
                        }
                        None => finals.push(VersionId::new(t, seq)),
                    }
                }
            }
            if finals.len() >= 2 {
                for i in (1..finals.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    finals.swap(i, j);
                }
                b.version_order(obj.id, &finals);
            }
        }
    }

    b.build()
        .expect("generator must produce well-formed histories")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_core::{classify, IsolationLevel};
    use adya_prevent::{check_locking, LockingLevel};

    #[test]
    fn generates_valid_histories_across_seeds() {
        let cfg = HistGenConfig::default();
        for seed in 0..50 {
            let h = random_history(&cfg, seed);
            assert!(!h.is_empty());
        }
    }

    #[test]
    fn dirtiness_zero_keeps_histories_clean_of_g1a() {
        let cfg = HistGenConfig {
            dirty_read_prob: 0.0,
            ..Default::default()
        };
        for seed in 0..30 {
            let h = random_history(&cfg, seed);
            let r = classify(&h);
            // Reads of committed versions only: G1a impossible. (G1b
            // too: committed final versions only.)
            let pl2_violations: Vec<_> = r
                .checks
                .iter()
                .filter(|c| c.level == IsolationLevel::PL2)
                .flat_map(|c| c.violations.iter())
                .collect();
            for v in pl2_violations {
                assert!(
                    !matches!(
                        v.kind(),
                        adya_core::PhenomenonKind::G1a | adya_core::PhenomenonKind::G1b
                    ),
                    "seed {seed}: {v}"
                );
            }
        }
    }

    #[test]
    fn preventative_admission_implies_generalized_admission() {
        // The paper's containment claim, sampled: a commit-order
        // history admitted by the preventative level is admitted by
        // the corresponding generalized level.
        let cfg = HistGenConfig {
            shuffle_order_prob: 0.0,
            dirty_read_prob: 0.4,
            ..Default::default()
        };
        let pairs = [
            (LockingLevel::ReadUncommitted, IsolationLevel::PL1),
            (LockingLevel::ReadCommitted, IsolationLevel::PL2),
            (LockingLevel::RepeatableRead, IsolationLevel::PL299),
            (LockingLevel::Serializable, IsolationLevel::PL3),
        ];
        for seed in 0..60 {
            let h = random_history(&cfg, seed);
            let g = classify(&h);
            for (pl, gl) in pairs {
                if check_locking(&h, pl).ok() {
                    assert!(
                        g.satisfies(gl),
                        "seed {seed}: {pl} admits but {gl} rejects\n{h}\n{g}"
                    );
                }
            }
        }
    }

    #[test]
    fn generalized_is_strictly_more_permissive_somewhere() {
        // There must exist sampled histories admitted by PL-3 yet
        // rejected by preventative SERIALIZABLE (H1'-like).
        let cfg = HistGenConfig {
            dirty_read_prob: 0.5,
            abort_prob: 0.0,
            ..Default::default()
        };
        let mut gap = 0;
        for seed in 0..200 {
            let h = random_history(&cfg, seed);
            if classify(&h).satisfies(IsolationLevel::PL3)
                && !check_locking(&h, LockingLevel::Serializable).ok()
            {
                gap += 1;
            }
        }
        assert!(gap > 0, "no permissiveness gap found in 200 samples");
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let cfg = HistGenConfig::default();
        let a = random_history(&cfg, 9).to_string();
        let b = random_history(&cfg, 9).to_string();
        assert_eq!(a, b);
    }
}
