//! Mixed-level systems end-to-end (§5.5): transactions at different
//! Figure 1 rows on one locking engine are always mixing-correct, and
//! the MSG edge rules behave as Definition 9 prescribes.

use adya::core::{check_mixing, classify, Dsg, IsolationLevel, Msg};
use adya::engine::{Engine, EngineError, Key, LockConfig, LockingEngine, Value};
use adya::history::RequestedLevel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random mixed-level run on the locking engine with a simple
/// round-robin retry driver.
fn mixed_run(seed: u64) -> adya::history::History {
    let engine = LockingEngine::new(LockConfig::serializable());
    let table = engine.catalog().table("acct");
    let seedtx = engine.begin();
    for k in 0..5u64 {
        engine.write(seedtx, table, Key(k), Value::Int(10)).unwrap();
    }
    engine.commit(seedtx).unwrap();

    let mut rng = StdRng::seed_from_u64(seed);
    // Degree 0 is excluded: it proscribes nothing (not even G0), so
    // it sits below PL-1 and outside Definition 9's framework — its
    // short write locks genuinely allow write-dependency cycles.
    let configs = [
        LockConfig::read_uncommitted(),
        LockConfig::read_committed(),
        LockConfig::repeatable_read(),
        LockConfig::serializable(),
    ];
    struct Sess {
        txn: adya::history::TxnId,
        ops: Vec<(bool, u64)>,
        pc: usize,
        done: bool,
    }
    let mut sessions: Vec<Sess> = (0..6)
        .map(|_| {
            let cfg = configs[rng.gen_range(0..configs.len())];
            Sess {
                txn: engine.begin_with(cfg),
                ops: (0..3)
                    .map(|_| (rng.gen_bool(0.5), rng.gen_range(0..5u64)))
                    .collect(),
                pc: 0,
                done: false,
            }
        })
        .collect();
    let mut fuel = 500;
    while fuel > 0 && sessions.iter().any(|s| !s.done) {
        fuel -= 1;
        let open: Vec<usize> = (0..sessions.len()).filter(|&i| !sessions[i].done).collect();
        let i = open[rng.gen_range(0..open.len())];
        let s = &mut sessions[i];
        let r = if s.pc == s.ops.len() {
            engine.commit(s.txn)
        } else {
            let (w, k) = s.ops[s.pc];
            if w {
                engine.write(s.txn, table, Key(k), Value::Int(rng.gen_range(0..100)))
            } else {
                engine.read(s.txn, table, Key(k)).map(|_| ())
            }
        };
        match r {
            Ok(()) => {
                if s.pc == s.ops.len() {
                    s.done = true;
                } else {
                    s.pc += 1;
                }
            }
            Err(EngineError::Blocked { .. }) => {}
            Err(_) => {
                let _ = engine.abort(s.txn);
                s.done = true;
            }
        }
    }
    // Abort any session stuck at the fuel limit (deadlock in this
    // simple driver) and finalize.
    for s in &sessions {
        if !s.done {
            let _ = engine.abort(s.txn);
        }
    }
    engine.finalize()
}

#[test]
fn locking_mixes_are_always_mixing_correct() {
    for seed in 0..30u64 {
        let h = mixed_run(seed);
        let rep = check_mixing(&h);
        assert!(rep.is_correct(), "seed {seed}: {rep}\n{h}");
    }
}

#[test]
fn recorded_levels_follow_begin_with() {
    let engine = LockingEngine::new(LockConfig::serializable());
    let t = engine.catalog().table("acct");
    let t1 = engine.begin_with(LockConfig::read_uncommitted());
    let t2 = engine.begin_with(LockConfig::serializable());
    engine.write(t1, t, Key(0), Value::Int(1)).unwrap();
    engine.commit(t1).unwrap();
    engine.read(t2, t, Key(0)).unwrap();
    engine.commit(t2).unwrap();
    let h = engine.finalize();
    assert_eq!(h.level(t1), RequestedLevel::PL1);
    assert_eq!(h.level(t2), RequestedLevel::PL3);
}

#[test]
fn msg_drops_low_level_read_edges() {
    // A PL-1 transaction reading committed data: the read-dependency
    // into it is not an MSG edge, but the write-dependency chain is.
    let engine = LockingEngine::new(LockConfig::serializable());
    let t = engine.catalog().table("acct");
    let t1 = engine.begin_with(LockConfig::serializable());
    engine.write(t1, t, Key(0), Value::Int(1)).unwrap();
    engine.commit(t1).unwrap();
    let t2 = engine.begin_with(LockConfig::read_uncommitted());
    engine.read(t2, t, Key(0)).unwrap();
    engine.write(t2, t, Key(0), Value::Int(2)).unwrap();
    engine.commit(t2).unwrap();
    let h = engine.finalize();
    let msg = Msg::build(&h, Dsg::build(&h).conflicts());
    // ww edge kept; wr into the PL-1 reader dropped.
    assert_eq!(msg.graph().edge_count(), 1);
    assert!(check_mixing(&h).is_correct());
}

#[test]
fn pl3_sessions_inside_a_mix_get_serializability() {
    // Whatever the lower-level transactions do, the PL-3 members of a
    // mixing-correct history are serializable among themselves w.r.t.
    // obligatory edges: spot-check that an all-serializable run
    // classifies as PL-3.
    let engine = LockingEngine::new(LockConfig::serializable());
    let t = engine.catalog().table("acct");
    let a = engine.begin();
    engine.write(a, t, Key(0), Value::Int(1)).unwrap();
    engine.commit(a).unwrap();
    let b = engine.begin();
    engine.read(b, t, Key(0)).unwrap();
    engine.write(b, t, Key(1), Value::Int(2)).unwrap();
    engine.commit(b).unwrap();
    let h = engine.finalize();
    assert!(classify(&h).satisfies(IsolationLevel::PL3));
    assert!(check_mixing(&h).is_correct());
}
