//! Human-facing renderings of a [`Witness`]: the `explain` narrative
//! (one paragraph per cycle edge, in the paper's notation) and a
//! cycle-scoped Graphviz DOT drawing.

use std::fmt::Write as _;

use adya_core::Phenomenon;
use adya_graph::Dot;

use crate::witness::Witness;

/// Renders the witness as an `adya-check explain` narrative:
/// phenomenon, minimal sub-history, then one paragraph per cycle edge
/// citing the operations that induced it. Deterministic — suitable
/// for golden-file comparison.
pub fn narrative(w: &Witness) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {} ==", w.phenomenon);
    let _ = writeln!(s, "witness id: {}", w.id());
    let txns = w.minimal_history.txns().count();
    let _ = writeln!(
        s,
        "minimal sub-history ({} txn{}, {} events; shrink removed {} txn{}, {} events):",
        txns,
        plural(txns),
        w.minimal_history.len(),
        w.removed_txns,
        plural(w.removed_txns),
        w.removed_events,
    );
    let _ = writeln!(s, "  {}", w.minimal_history);
    if w.cycle.is_empty() {
        // Non-cycle phenomena: the phenomenon Display line above
        // already cites the reader/writer/object/version.
        let _ = writeln!(s, "  (no DSG cycle: the witness is the read itself)");
        return s;
    }
    for e in &w.cycle {
        let _ = writeln!(s, "  {} -[{}]-> {}:", e.from, e.kind, e.to);
        if e.ops.is_empty() {
            let _ = writeln!(s, "    (edge present in the DSG; no recorded conflict)");
        }
        for op in &e.ops {
            let _ = writeln!(s, "    {}.", op.citation);
        }
    }
    s
}

/// Renders only the witness cycle (not the whole DSG) as Graphviz DOT,
/// with each edge labelled by its kind and, below it, the first
/// inducing operation's object and version.
pub fn cycle_dot(w: &Witness, name: &str) -> String {
    let mut edges: Vec<_> = w
        .cycle
        .iter()
        .map(|e| {
            let mut label = vec![e.kind.to_string()];
            let cited = e.ops.first().map(|op| &op.conflict);
            if let Some((o, v)) = cited.and_then(|c| c.object.zip(c.version)) {
                label.push(format!("{}[{}]", w.minimal_history.object_name(o), v));
            }
            (e.from, e.to, label)
        })
        .collect();
    // Non-cycle phenomena still get the involved transactions drawn.
    if edges.is_empty() {
        if let Phenomenon::G1a { reader, writer, .. } | Phenomenon::G1b { reader, writer, .. } =
            &w.phenomenon
        {
            edges.push((*writer, *reader, vec!["wr".to_string()]));
        }
    }
    Dot::of_edges(if name.is_empty() { "witness" } else { name }, &edges)
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}
