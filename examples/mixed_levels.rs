//! Mixed isolation levels (§5.5): transactions at different Figure 1
//! rows share one locking engine; Definition 9 judges the result.
//!
//! ```sh
//! cargo run --example mixed_levels
//! ```

use adya::core::{check_mixing, Dsg, Msg};
use adya::engine::{Engine, EngineError, Key, LockConfig, LockingEngine, Value};
use adya::history::RequestedLevel;

fn main() {
    let engine = LockingEngine::new(LockConfig::serializable());
    let t = engine.catalog().table("acct");
    let seed = engine.begin();
    engine.write(seed, t, Key(0), Value::Int(5)).unwrap();
    engine.write(seed, t, Key(1), Value::Int(5)).unwrap();
    engine.commit(seed).unwrap();

    // A PL-2 reader scans both keys while a PL-3 transfer runs: the
    // reader's short read locks let it slide between the transfer's
    // writes, which is fine *for the reader's level*.
    let reader = engine.begin_with(LockConfig::read_committed());
    let transfer = engine.begin_with(LockConfig::serializable());

    let r0 = engine.read(reader, t, Key(0)).unwrap(); // old value
    engine.write(transfer, t, Key(0), Value::Int(0)).unwrap();
    engine.write(transfer, t, Key(1), Value::Int(10)).unwrap();
    engine.commit(transfer).unwrap();
    let r1 = engine.read(reader, t, Key(1)).unwrap(); // new value
    engine.commit(reader).unwrap();
    println!(
        "PL-2 reader observed ({:?}, {:?}) — a read-skew view a PL-3 txn must never see",
        r0.and_then(|v| v.as_int()),
        r1.and_then(|v| v.as_int())
    );

    let h = engine.finalize();
    let rep = check_mixing(&h);
    println!("mixing verdict: {rep}");
    assert!(
        rep.is_correct(),
        "the PL-2 reader's anti-dependency is not an obligatory edge"
    );

    let msg = Msg::build(&h, Dsg::build(&h).conflicts());
    println!(
        "MSG: {} nodes, {} edges (the reader's outgoing anti-dependency is dropped)",
        msg.graph().node_count(),
        msg.graph().edge_count()
    );
    println!("\nMSG as DOT:\n{}", msg.to_dot("mixed"));

    // The same history re-labelled all-PL-3 is NOT mixing-correct: the
    // anti-dependency becomes obligatory and closes a cycle.
    let mut parts = adya::history::HistoryParts {
        events: h.events().to_vec(),
        ..Default::default()
    };
    for (o, i) in h.objects() {
        parts.objects.insert(o, i.clone());
    }
    for (r, i) in h.relations() {
        parts.relations.insert(r, i.clone());
    }
    for (txn, _) in h.txns() {
        parts.levels.insert(txn, RequestedLevel::PL3);
    }
    let pl3_history = adya::history::History::from_parts(parts).unwrap();
    let rep3 = check_mixing(&pl3_history);
    println!("\nsame events, everyone at PL-3: {rep3}");
    assert!(!rep3.is_correct());

    // Demonstrate an obligatory conflict the other way: at
    // serializable, the PL-3 reader *blocks* the writer instead.
    let engine = LockingEngine::new(LockConfig::serializable());
    let t = engine.catalog().table("acct");
    let s = engine.begin();
    engine.write(s, t, Key(0), Value::Int(5)).unwrap();
    engine.commit(s).unwrap();
    let pl3_reader = engine.begin_with(LockConfig::serializable());
    let writer = engine.begin_with(LockConfig::read_uncommitted());
    engine.read(pl3_reader, t, Key(0)).unwrap();
    match engine.write(writer, t, Key(0), Value::Int(9)) {
        Err(EngineError::Blocked { holders }) => {
            println!(
                "\nPL-1 writer blocked by PL-3 reader {holders:?}: the overwrite would be \
                 an obligatory anti-dependency"
            );
        }
        other => println!("\nunexpected: {other:?}"),
    }
    let _ = engine.commit(pl3_reader);
    let _ = engine.commit(writer);
    let h = engine.finalize();
    assert!(check_mixing(&h).is_correct());
    println!("final mixed history: {}", check_mixing(&h));
}
