//! Forensics for isolation violations, in the style of Elle's minimal
//! counterexamples (Kingsbury & Alvaro, VLDB 2020) and Jepsen's
//! per-transaction timeline views.
//!
//! The paper's whole contribution is *why* a history fails a level —
//! a concrete cycle of ww/wr/rw edges in the DSG. This crate turns
//! that cycle into an auditable artifact:
//!
//! * [`minimize`] shrinks a violating history to a **minimal
//!   sub-history** (greedy transaction- then event-removal with
//!   re-validation and re-detection) that exhibits exactly the same
//!   phenomenon set;
//! * [`extract`] builds a structured [`Witness`] — the shortest
//!   offending cycle over the minimal history, each edge mapped back
//!   to the concrete operations, versions, and predicate version-sets
//!   that induced it (via [`adya_core::Dsg::provenance`]);
//! * [`narrative`] renders the witness for `adya-check explain` (one
//!   paragraph per edge, paper notation), [`cycle_dot`] draws just the
//!   offending cycle as Graphviz DOT, and [`trace_json`] exports a
//!   Perfetto/Chrome-trace timeline with one track per transaction.

#![warn(missing_docs)]

mod render;
mod shrink;
mod trace;
mod witness;

pub use render::{cycle_dot, narrative};
pub use shrink::{detected_kinds, minimize};
pub use trace::trace_json;
pub use witness::{extract, extract_all, EdgeOp, Witness, WitnessEdge};

#[cfg(test)]
mod tests {
    use super::*;
    use adya_core::{analyze, PhenomenonKind};
    use adya_history::parse_history;

    #[test]
    fn g0_witness_cites_both_ww_edges() {
        let h =
            parse_history("w1(x,2) w2(x,5) w2(y,5) c2 w1(y,8) c1 [x1 << x2, y2 << y1]").unwrap();
        let w = extract(&h, PhenomenonKind::G0).expect("G0 witness");
        assert_eq!(w.minimal_history.txns().count(), 2);
        assert_eq!(w.cycle.len(), 2);
        for e in &w.cycle {
            assert!(!e.ops.is_empty(), "edge {:?} cites no operations", e.kind);
            for op in &e.ops {
                assert!(op.citation.contains("installed"), "{}", op.citation);
                assert!(op.citation.contains("event"), "{}", op.citation);
            }
        }
        let text = narrative(&w);
        assert!(text.contains("G0"), "{text}");
        assert!(text.contains("-[ww]->"), "{text}");
    }

    #[test]
    fn read_skew_minimizes_to_two_txns() {
        // H2 (§2/§4): classic read skew — G2 with a 2-txn minimum.
        let h = parse_history("r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(y1,9) c2")
            .unwrap();
        let w = extract(&h, PhenomenonKind::G2).expect("G2 witness");
        assert_eq!(w.minimal_history.txns().count(), 2, "{}", w.minimal_history);
        assert!(w.cycle.iter().any(|e| e.kind.is_anti()));
        let dot = cycle_dot(&w, "read_skew");
        assert!(dot.starts_with("digraph read_skew {"), "{dot}");
        assert!(dot.contains("label=\"rw"), "{dot}");
    }

    #[test]
    fn g1a_witness_has_no_cycle_but_a_narrative() {
        let h = parse_history("w1(x,1) r2(x1) a1 c2").unwrap();
        let w = extract(&h, PhenomenonKind::G1a).expect("G1a witness");
        assert!(w.cycle.is_empty());
        let text = narrative(&w);
        assert!(text.contains("G1a"), "{text}");
        let dot = cycle_dot(&w, "g1a");
        assert!(dot.contains("wr"), "{dot}");
    }

    #[test]
    fn missing_phenomenon_yields_none() {
        let h = parse_history("w1(x,1) c1 r2(x1) c2").unwrap();
        assert!(extract(&h, PhenomenonKind::G0).is_none());
        assert!(extract_all(&h).is_empty());
    }

    #[test]
    fn trace_export_has_required_keys_per_event() {
        let h = parse_history("r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(y1,9) c2")
            .unwrap();
        let a = analyze(&h);
        let json = trace_json(&h, Some(&a));
        assert!(adya_obs::json::parse(&json).is_ok(), "{json}");
        assert!(json.trim_end().ends_with('}'), "{json}");
        // Every emitted record carries the Chrome trace-event required
        // keys.
        let events: Vec<&str> = json.lines().filter(|l| l.contains("\"ph\"")).collect();
        assert!(events.len() > 8, "{json}");
        for line in events {
            for key in ["\"name\"", "\"ph\"", "\"ts\"", "\"pid\"", "\"tid\""] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
        }
        assert!(json.contains("\"anomalies\""), "{json}");
        assert!(json.contains("\"G2\""), "{json}");
        // Balanced braces and quotes — cheap well-formedness checks.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }
}
