//! Graphviz DOT export: the one writer every drawing in the workspace
//! goes through.
//!
//! The paper illustrates its histories with DSG drawings (Figures 3, 4
//! and 5); the `figure3`/`figure4`/`figure5` harness binaries emit these
//! drawings as DOT so they can be rendered and compared with the paper,
//! `adya-check explain --dot` draws a witness cycle and `adya-check
//! --stream --dot` the cycle behind a verdict. [`Dot`] is what all of
//! them write through, so a graph name is sanitised and a label escaped
//! in one place.

use std::fmt::{Display, Write as _};
use std::hash::Hash;

use crate::digraph::DiGraph;

/// A DOT document being written: header, then nodes, then edges, laid
/// out left to right like the paper's figures.
#[derive(Debug)]
pub struct Dot(String);

impl Dot {
    /// Opens `digraph <name> { … }`. Characters a DOT identifier cannot
    /// hold become `_`; an empty name becomes `G`.
    pub fn new(name: &str) -> Dot {
        Dot(format!(
            "digraph {} {{\n  rankdir=LR;\n  node [shape=circle];\n",
            sanitize(name)
        ))
    }

    /// Declares a node.
    pub fn node(&mut self, id: impl Display) {
        self.0.push_str("  ");
        self.quoted(id);
        self.0.push_str(";\n");
    }

    /// Draws an edge whose label is `label`'s lines, one below the
    /// other: the line break is the writer's to spell, not the caller's.
    pub fn edge<L: Display>(&mut self, from: impl Display, to: impl Display, label: &[L]) {
        self.0.push_str("  ");
        self.quoted(from);
        self.0.push_str(" -> ");
        self.quoted(to);
        self.0.push_str(" [label=\"");
        for (i, line) in label.iter().enumerate() {
            if i > 0 {
                self.0.push_str("\\n");
            }
            self.escaped(line);
        }
        self.0.push_str("\"];\n");
    }

    /// Closes the document.
    pub fn finish(mut self) -> String {
        self.0.push_str("}\n");
        self.0
    }

    /// A graph given by its edges alone (a cycle, a witness): the nodes
    /// are declared in the order the edges first name them, then the
    /// edges in the order given.
    pub fn of_edges<N: Display + PartialEq, L: Display>(
        name: &str,
        edges: &[(N, N, Vec<L>)],
    ) -> String {
        let mut dot = Dot::new(name);
        let mut seen: Vec<&N> = Vec::new();
        for n in edges.iter().flat_map(|(from, to, _)| [from, to]) {
            if !seen.contains(&n) {
                seen.push(n);
                dot.node(n);
            }
        }
        for (from, to, label) in edges {
            dot.edge(from, to, label);
        }
        dot.finish()
    }

    fn quoted(&mut self, text: impl Display) {
        self.0.push('"');
        self.escaped(text);
        self.0.push('"');
    }

    /// Appends `text` as the inside of a DOT string.
    fn escaped(&mut self, text: impl Display) {
        let _ = write!(Escaping(&mut self.0), "{text}");
    }
}

/// `name` as a DOT identifier: characters one cannot hold become `_`,
/// and no name at all becomes `G`.
fn sanitize(name: &str) -> String {
    if name.is_empty() {
        return "G".to_string();
    }
    let keep = |c: char| c.is_alphanumeric() || c == '_';
    name.chars()
        .map(|c| if keep(c) { c } else { '_' })
        .collect()
}

/// The inside of a DOT string: quote and backslash escaped, a newline
/// spelled as DOT's own line break.
struct Escaping<'a>(&'a mut String);

impl std::fmt::Write for Escaping<'_> {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        for c in text.chars() {
            match c {
                '\\' => self.0.push_str("\\\\"),
                '"' => self.0.push_str("\\\""),
                '\n' => self.0.push_str("\\n"),
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

impl<N, E> DiGraph<N, E>
where
    N: Eq + Hash + Clone + Display,
    E: Display,
{
    /// Renders the graph in Graphviz DOT syntax as `digraph <name>`.
    pub fn to_dot(&self, name: &str) -> String {
        let mut dot = Dot::new(name);
        for n in self.nodes() {
            dot.node(n);
        }
        for e in self.edges() {
            dot.edge(e.from, e.to, &[e.label]);
        }
        dot.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut g: DiGraph<&str, &str> = DiGraph::new();
        g.add_edge("T1", "T2", "ww");
        assert_eq!(
            g.to_dot("DSG"),
            "digraph DSG {\n  rankdir=LR;\n  node [shape=circle];\n  \"T1\";\n  \"T2\";\n  \
             \"T1\" -> \"T2\" [label=\"ww\"];\n}\n"
        );
    }

    /// The three writers this one replaced, as cases of it: the graph
    /// export's `my graph!`, the witness drawing's kind name, the
    /// stream verdict's `_`-joined kinds — and no name at all.
    #[test]
    fn names_are_sanitised() {
        let header = |name: &str| Dot::new(name).finish().lines().next().unwrap().to_string();
        assert_eq!(header("my graph!"), "digraph my_graph_ {");
        assert_eq!(header("G2-item"), "digraph G2_item {");
        assert_eq!(header("G2-item_G2"), "digraph G2_item_G2 {");
        assert_eq!(header("Figure3_Hserial"), "digraph Figure3_Hserial {");
        assert_eq!(header("żółw 1"), "digraph żółw_1 {");
        assert_eq!(header("{\"}"), "digraph ___ {");
        assert_eq!(header(""), "digraph G {");
    }

    #[test]
    fn quotes_and_backslashes_are_escaped_everywhere_a_string_is_written() {
        let mut dot = Dot::new("g");
        dot.node("a\"b");
        dot.edge("a\"b", "c\\d", &["say \"hi\"", "x\\ny"]);
        let text = dot.finish();
        assert!(text.contains("  \"a\\\"b\";\n"), "{text}");
        // A backslash the caller wrote stays a backslash — `\n` typed
        // into a label is two characters, not a line break.
        assert!(
            text.contains("  \"a\\\"b\" -> \"c\\\\d\" [label=\"say \\\"hi\\\"\\nx\\\\ny\"];\n"),
            "{text}"
        );
    }

    #[test]
    fn a_label_is_its_lines_and_a_raw_newline_is_a_line_break_too() {
        let mut dot = Dot::new("g");
        dot.edge(1, 2, &["rw", "x[1]"]);
        dot.edge(2, 3, &["ww\nwr"]);
        dot.edge(3, 1, &[] as &[&str]);
        let text = dot.finish();
        assert!(
            text.contains("\"1\" -> \"2\" [label=\"rw\\nx[1]\"];"),
            "{text}"
        );
        assert!(
            text.contains("\"2\" -> \"3\" [label=\"ww\\nwr\"];"),
            "{text}"
        );
        assert!(text.contains("\"3\" -> \"1\" [label=\"\"];"), "{text}");
        assert_eq!(text.lines().count(), 7, "one statement a line:\n{text}");
    }

    #[test]
    fn an_edge_list_declares_its_nodes_in_first_seen_order() {
        let text = Dot::of_edges(
            "G1c",
            &[(2, 1, vec!["rw"]), (1, 3, vec!["wr"]), (3, 2, vec!["ww"])],
        );
        let nodes: Vec<&str> = text.lines().skip(3).take(3).collect();
        assert_eq!(nodes, ["  \"2\";", "  \"1\";", "  \"3\";"]);
        assert_eq!(Dot::of_edges::<u8, &str>("", &[]).lines().count(), 4);
    }
}
