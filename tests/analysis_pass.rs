//! Every entry point of the batch checker answers from the same
//! analysis pass: the all-levels report equals eight single-level
//! checks witness for witness, and the full analysis equals the
//! standalone detection, classification and mixing check — over the
//! paper's histories, the committed fixtures, and seeded random
//! histories exercising the whole vocabulary (aborts, explicit version
//! orders, predicate reads, cursor reads, mixed requested levels).

use std::collections::HashSet;
use std::fmt::Debug;

use adya::core::{
    analyze, check_level, check_mixing, classify, detect_all, paper, Dsg, IsolationLevel,
};
use adya::history::{
    parse_history_completed, Event, History, PredicateId, PredicateInfo, PredicateReadEvent,
    RequestedLevel, Value, VersionId,
};
use adya::workloads::histgen::{random_history, HistGenConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Witnesses carry no `PartialEq`; their `Debug` rendering is
/// structural, so equal text is equal witnesses.
fn dbg(x: &impl Debug) -> String {
    format!("{x:?}")
}

fn assert_one_pass(name: &str, h: &History) {
    let report = classify(h);
    assert_eq!(report.checks.len(), IsolationLevel::ALL.len());
    for (check, level) in report.checks.iter().zip(IsolationLevel::ALL) {
        assert_eq!(
            dbg(check),
            dbg(&check_level(h, level)),
            "{name}: classify vs check_level at {level}\n{h}"
        );
    }
    let a = analyze(h);
    assert_eq!(
        dbg(&a.phenomena),
        dbg(&detect_all(h)),
        "{name}: phenomena\n{h}"
    );
    assert_eq!(dbg(&a.levels), dbg(&report), "{name}: levels\n{h}");
    assert_eq!(dbg(&a.mixing), dbg(&check_mixing(h)), "{name}: mixing\n{h}");
    assert_eq!(
        a.dsg.conflicts(),
        Dsg::build(h).conflicts(),
        "{name}: conflicts\n{h}"
    );
}

#[test]
fn paper_histories_and_fixtures() {
    for (name, h) in paper::all() {
        assert_one_pass(name, &h);
    }
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let mut fixtures = 0;
    for dir in [data.clone(), data.join("paper")] {
        for entry in std::fs::read_dir(dir).expect("tests/data") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|e| e != "hist") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read fixture");
            // `#` opens a comment line, except for `#pred(` directives.
            let notation: Vec<&str> = text
                .lines()
                .filter(|l| !l.starts_with('#') || l.starts_with("#pred("))
                .collect();
            let h = parse_history_completed(&notation.join("\n")).expect("fixture parses");
            assert_one_pass(&path.display().to_string(), &h);
            fixtures += 1;
        }
    }
    assert!(fixtures >= 14, "{fixtures} fixtures found");
}

/// What the sample turned out to contain.
#[derive(Default)]
struct Coverage {
    predicate_reads: usize,
    cursor_reads: usize,
    aborts: usize,
    dirty: usize,
}

/// `base` with the vocabulary the sampler does not draw: each
/// transaction gets a random requested level, a quarter of the reads
/// go through a cursor, and another quarter become reads of the
/// predicate "value < 50" selecting the version the item read saw.
fn decorate(base: &History, rng: &mut StdRng, cov: &mut Coverage) -> History {
    let mut parts = base.to_parts();
    for (t, _) in base.txns() {
        let level = RequestedLevel::ALL[rng.gen_range(0..RequestedLevel::ALL.len())];
        parts.levels.insert(t, level);
    }
    let mut matches: HashSet<_> = parts
        .objects
        .iter()
        .filter(|(_, info)| matches!(info.preload, Some(Value::Int(v)) if v < 50))
        .map(|(&o, _)| (o, VersionId::INIT))
        .collect();
    for e in &parts.events {
        if let Event::Write(w) = e {
            if matches!(w.value, Some(Value::Int(v)) if v < 50) {
                matches.insert((w.object, w.version()));
            }
        }
    }
    let predicate = PredicateId(0);
    parts.predicates.insert(
        predicate,
        PredicateInfo {
            name: "value<50".to_string(),
            relations: parts.relations.keys().copied().collect(),
            matches,
        },
    );
    let item_only = parts.clone();
    let (mut cursors, mut predicates) = (0, 0);
    for e in &mut parts.events {
        let Event::Read(r) = e else { continue };
        match rng.gen_range(0..4) {
            0 => {
                r.through_cursor = true;
                cursors += 1;
            }
            1 => {
                *e = Event::PredicateRead(PredicateReadEvent {
                    txn: r.txn,
                    predicate,
                    vset: vec![(r.object, r.version)],
                });
                predicates += 1;
            }
            _ => {}
        }
    }
    // A version set leaves unlisted objects at their initial version,
    // which a transaction that already wrote one of them may not read.
    match History::from_parts(parts) {
        Ok(h) => {
            cov.cursor_reads += cursors;
            cov.predicate_reads += predicates;
            h
        }
        Err(_) => History::from_parts(item_only).expect("levels and a predicate change nothing"),
    }
}

#[test]
fn seeded_random_histories() {
    let mut cov = Coverage::default();
    let mut rng = StdRng::seed_from_u64(16);
    for seed in 0..320u64 {
        let cfg = HistGenConfig {
            txns: 4 + (seed % 5) as usize,
            objects: 2 + (seed % 3) as usize,
            ops_per_txn: 2 + (seed % 4) as usize,
            dirty_read_prob: [0.0, 0.3, 0.6][(seed % 3) as usize],
            abort_prob: [0.0, 0.2][(seed % 2) as usize],
            shuffle_order_prob: [0.0, 0.5][((seed / 2) % 2) as usize],
            max_concurrent: [0, 3, 1][((seed / 4) % 3) as usize],
            ..HistGenConfig::default()
        };
        let base = random_history(&cfg, seed);
        let h = decorate(&base, &mut rng, &mut cov);
        cov.aborts += h.txns().filter(|(t, _)| !h.is_committed(*t)).count();
        cov.dirty += usize::from(!detect_all(&h).is_empty());
        assert_one_pass(&format!("seed {seed}"), &h);
    }
    // The sample must actually contain what the header promises
    // (levels and version orders are there by construction), on both
    // sides: witnesses to compare, and clean histories where every
    // detector runs to completion.
    assert!(cov.predicate_reads >= 100, "{}", cov.predicate_reads);
    assert!(cov.cursor_reads >= 100, "{}", cov.cursor_reads);
    assert!(cov.aborts >= 50, "{}", cov.aborts);
    assert!((100..=300).contains(&cov.dirty), "{}", cov.dirty);
}
