//! §5.5 — Mixing of Isolation Levels: Definition 9 and the Mixing
//! Theorem.
//!
//! Two experiments:
//!
//! 1. **Locking mixes**: transactions at different Figure 1 rows run
//!    together on one 2PL engine ("a mixed system can be implemented
//!    using locking"); every recorded history must be mixing-correct.
//! 2. **Sampled mixes**: random histories with random per-transaction
//!    levels; we verify the theorem's observable consequences — an
//!    all-PL-3 assignment makes mixing-correct coincide with PL-3
//!    acceptance, and *lowering* any transaction's level never turns a
//!    mixing-correct history into an incorrect one (fewer obligatory
//!    edges, same G1 scope or smaller).

use adya_bench::{banner, verdict, Table};
use adya_core::{check_mixing, classify, IsolationLevel};
use adya_engine::{Engine, EngineError, Key, LockConfig, LockingEngine, Value};
use adya_history::RequestedLevel;
use adya_workloads::histgen::{random_history, HistGenConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs a hand-interleaved mixed-level schedule on the locking engine:
/// a PL-1 writer, a PL-2 reader and a PL-3 read-modify-writer over a
/// small table, retrying blocked operations round-robin.
fn locking_mix(seed: u64) -> adya_history::History {
    let engine = LockingEngine::new(LockConfig::serializable());
    let table = engine.catalog().table("acct");
    let seedtx = engine.begin();
    for k in 0..4u64 {
        engine.write(seedtx, table, Key(k), Value::Int(10)).unwrap();
    }
    engine.commit(seedtx).unwrap();

    let mut rng = StdRng::seed_from_u64(seed);
    // Session scripts: (config, ops) where an op is (is_write, key).
    let configs = [
        LockConfig::read_uncommitted(),
        LockConfig::read_committed(),
        LockConfig::serializable(),
    ];
    struct Sess {
        txn: adya_history::TxnId,
        ops: Vec<(bool, u64)>,
        pc: usize,
    }
    let mut sessions: Vec<Sess> = configs
        .iter()
        .map(|c| {
            let ops = (0..3)
                .map(|_| (rng.gen_bool(0.5), rng.gen_range(0..4u64)))
                .collect();
            Sess {
                txn: engine.begin_with(*c),
                ops,
                pc: 0,
            }
        })
        .collect();
    let mut fuel = 300;
    while fuel > 0 {
        fuel -= 1;
        let open: Vec<usize> = (0..sessions.len())
            .filter(|&i| sessions[i].pc <= sessions[i].ops.len())
            .collect();
        if open.is_empty() {
            break;
        }
        let i = open[rng.gen_range(0..open.len())];
        let s = &mut sessions[i];
        let result = if s.pc == s.ops.len() {
            engine.commit(s.txn)
        } else {
            let (w, k) = s.ops[s.pc];
            if w {
                engine.write(s.txn, table, Key(k), Value::Int(rng.gen_range(0..100)))
            } else {
                engine.read(s.txn, table, Key(k)).map(|_| ())
            }
        };
        match result {
            Ok(()) => s.pc += 1,
            Err(EngineError::Blocked { .. }) => {} // retry later
            Err(_) => {
                let _ = engine.abort(s.txn);
                s.pc = s.ops.len() + 1; // done (aborted)
            }
        }
    }
    engine.finalize()
}

/// `h` with every transaction's level reassigned by `level_of`,
/// re-validated (levels live in the parts, so rebuild).
fn with_levels(
    h: &adya_history::History,
    mut level_of: impl FnMut() -> RequestedLevel,
) -> adya_history::History {
    let mut parts = h.to_parts();
    for level in parts.levels.values_mut() {
        *level = level_of();
    }
    adya_history::History::from_parts(parts).expect("relabelled history stays valid")
}

fn main() {
    banner("Section 5.5: mixing of isolation levels (Definition 9)");
    // Seed plumbing: `--seed` shifts every sampled run.
    let base_seed = adya_bench::u64_from_args("seed", 0);

    // Experiment 1: locking mixes are always mixing-correct.
    let mut lock_ok = true;
    for seed in base_seed..base_seed + 20 {
        let h = locking_mix(seed);
        let rep = check_mixing(&h);
        if !rep.is_correct() {
            lock_ok = false;
            eprintln!("locking mix seed {seed} NOT mixing-correct: {rep}\n{h}");
        }
    }
    println!("locking-engine mixed runs (20 seeds): all mixing-correct = {lock_ok}");

    // Experiment 2: sampled histories.
    let cfg = HistGenConfig {
        dirty_read_prob: 0.35,
        abort_prob: 0.1,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(99 ^ base_seed);
    let mut agree = 0;
    let mut total = 0;
    let mut monotone_ok = true;
    let mut correct_at_pl3 = 0;
    let mut correct_random = 0;
    let n = 150;
    for seed in base_seed..base_seed + n {
        let h = random_history(&cfg, seed);
        // (a) all-PL-3 assignment: mixing-correct ⇔ PL-3.
        let pl3h = with_levels(&h, || RequestedLevel::PL3);
        let mix3 = check_mixing(&pl3h).is_correct();
        let pl3 = classify(&pl3h).satisfies(IsolationLevel::PL3);
        total += 1;
        if mix3 == pl3 {
            agree += 1;
        }
        if mix3 {
            correct_at_pl3 += 1;
        }
        // (b) random level assignment: lowering levels never breaks a
        // correct mix.
        let levels = [
            RequestedLevel::PL1,
            RequestedLevel::PL2,
            RequestedLevel::PL299,
            RequestedLevel::PL3,
        ];
        let mixed = with_levels(&pl3h, || levels[rng.gen_range(0..levels.len())]);
        let mix_rand = check_mixing(&mixed).is_correct();
        if mix_rand {
            correct_random += 1;
        }
        if mix3 && !mix_rand {
            monotone_ok = false;
            eprintln!("seed {seed}: lowering levels broke mixing-correctness");
        }
    }

    let mut table = Table::new(&["property", "result"]);
    table.row(&[
        "all-PL-3: mixing-correct ⇔ PL-3".to_string(),
        format!("{agree}/{total} agree"),
    ]);
    table.row(&[
        "mixing-correct at all-PL-3".to_string(),
        format!("{correct_at_pl3}/{total}"),
    ]);
    table.row(&[
        "mixing-correct at random levels".to_string(),
        format!("{correct_random}/{total} (≥ all-PL-3 count)"),
    ]);
    table.row(&[
        "lowering levels never breaks correctness".to_string(),
        format!("{monotone_ok}"),
    ]);
    println!("{}", table.render());

    let ok = lock_ok && agree == total && monotone_ok && correct_random >= correct_at_pl3;
    verdict("mixing", ok);
}
