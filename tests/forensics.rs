//! Integration tests of the forensics plane: golden `explain`
//! narratives for the paper's canonical G0/G1c/G2 histories, the
//! shrinker's phenomenon-preservation contract over generated
//! histories, and the Chrome-trace export's structure.

use std::path::Path;

use adya::core::analyze;
use adya::forensics::{detected_kinds, extract_all, minimize, narrative, trace_json};
use adya::history::{parse_history_completed, History};
use adya::workloads::histgen::{random_history, HistGenConfig};
use proptest::prelude::*;

/// Loads `tests/data/<name>.hist` the way `adya-check` does: comment
/// lines stripped, remaining lines joined.
fn fixture(name: &str) -> History {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("{name}.hist"));
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let text: String = raw
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect::<Vec<_>>()
        .join(" ");
    parse_history_completed(&text).expect("fixture parses")
}

/// What `adya-check explain` prints for `h`: the witness narratives,
/// blank line between.
fn explain_text(h: &History) -> String {
    extract_all(h)
        .iter()
        .map(narrative)
        .collect::<Vec<_>>()
        .join("\n")
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("{name}.golden"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// The three fixed fixtures: the paper's G0 write cycle, the G1c
/// pure-dependency cycle, and the §2/H2 read-skew G2.
const FIXTURES: [&str; 3] = ["g0_write_cycle", "g1c_cycle", "read_skew"];

#[test]
fn explain_matches_goldens() {
    for name in FIXTURES {
        let h = fixture(name);
        assert_eq!(explain_text(&h), golden(name), "golden drifted: {name}");
    }
}

#[test]
fn minimal_subhistories_hit_the_hand_derived_minimum() {
    // Every phenomenon in these fixtures is a two-transaction cycle
    // (or, for the G-SI family, a two-transaction conflict), so no
    // correct shrinker can go below 2 — and ours must reach it.
    for name in FIXTURES {
        for w in extract_all(&fixture(name)) {
            assert_eq!(
                w.minimal_history.txns().count(),
                2,
                "{name}/{}: minimal sub-history not minimal",
                w.kind
            );
        }
    }
}

#[test]
fn every_cycle_edge_cites_concrete_operations() {
    for name in FIXTURES {
        for w in extract_all(&fixture(name)) {
            for e in &w.cycle {
                assert!(
                    !e.ops.is_empty(),
                    "{name}/{}: edge T{} -> T{} cites nothing",
                    w.kind,
                    e.from.0,
                    e.to.0
                );
                for op in &e.ops {
                    assert!(
                        op.citation.contains("event "),
                        "{name}/{}: citation lacks an event position: {}",
                        w.kind,
                        op.citation
                    );
                }
            }
        }
    }
}

/// A string-aware structural scan: balanced braces/brackets outside
/// string literals, no trailing comma before a closer. Not a full
/// parser (CI runs one), but enough to catch a broken writer.
fn assert_balanced_json(s: &str) {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut esc = false;
    let mut prev_nonspace = ' ';
    for ch in s.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if ch == '\\' {
                esc = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                assert_ne!(prev_nonspace, ',', "trailing comma before {ch}");
                depth -= 1;
                assert!(depth >= 0, "unbalanced closer");
            }
            _ => {}
        }
        if !ch.is_whitespace() {
            prev_nonspace = ch;
        }
    }
    assert!(!in_str, "unterminated string");
    assert_eq!(depth, 0, "unbalanced trace JSON");
}

#[test]
fn trace_export_is_wellformed_and_complete() {
    let h = fixture("read_skew");
    let a = analyze(&h);
    let t = trace_json(&h, Some(&a));
    assert_balanced_json(&t);
    assert!(t.contains("\"traceEvents\""), "{t}");
    // One metadata record and one lane of spans per transaction.
    for needle in ["\"ph\": \"M\"", "\"ph\": \"X\"", "\"ph\": \"i\""] {
        assert!(t.contains(needle), "missing {needle}: {t}");
    }
    assert!(t.contains("\"T1\"") && t.contains("\"T2\""), "{t}");
    // The anomaly lane names the fired phenomena.
    assert!(t.contains("G2"), "{t}");
}

fn cfg_strategy() -> impl Strategy<Value = HistGenConfig> {
    (2usize..6, 2usize..4, 1usize..5, 0.0f64..1.0, 0.0f64..0.5).prop_map(
        |(txns, objects, ops, write, dirty)| HistGenConfig {
            txns,
            objects,
            ops_per_txn: ops,
            write_prob: write,
            dirty_read_prob: dirty,
            abort_prob: 0.1,
            shuffle_order_prob: 0.0,
            max_concurrent: 0,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shrinker's contract: the minimized history detects exactly
    /// the original phenomenon-kind set — nothing lost, nothing
    /// acquired — and never grows.
    #[test]
    fn shrinking_never_changes_the_phenomenon_set(cfg in cfg_strategy(), seed in 0u64..10_000) {
        let h = random_history(&cfg, seed);
        let shrunk = minimize(&h);
        prop_assert_eq!(detected_kinds(&shrunk), detected_kinds(&h));
        prop_assert!(shrunk.len() <= h.len());
    }

    /// Every extracted witness stands on its own: its minimal history
    /// still exhibits the witness's phenomenon, and its cycle edges all
    /// carry provenance.
    #[test]
    fn witnesses_are_self_contained(cfg in cfg_strategy(), seed in 0u64..10_000) {
        let h = random_history(&cfg, seed);
        for w in extract_all(&h) {
            prop_assert!(
                detected_kinds(&w.minimal_history).contains(&w.kind),
                "{} lost by its own minimal history", w.kind
            );
            for e in &w.cycle {
                prop_assert!(!e.ops.is_empty(), "unprovenanced edge in {}", w.kind);
            }
        }
    }
}
