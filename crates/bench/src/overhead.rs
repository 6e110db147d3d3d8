//! The on/off comparator behind E16, E17 and E21: what does a checker
//! feature cost on the ingest hot path?
//!
//! One skeleton, written once. For each history size, generate one
//! [`overhead_history`] and ingest it under both configurations,
//! best-of-[`OVERHEAD_REPS`] per side (the usual min-of-N noise
//! filter), on and off alternating repetition by repetition so a box
//! that changes speed mid-sweep slows both sides alike; the two sides
//! must produce equal outputs (the feature observes, never alters); the
//! aggregate cost over all sizes is held to a budget. An experiment
//! supplies its [`Labels`] and an `ingest(&History, on) -> (nanoseconds,
//! output)` closure that runs one repetition and times it itself, so
//! setup and teardown stay outside the clock.

use adya_history::History;
use adya_obs::json::JsonWriter;

use crate::Table;

/// Timing repetitions per (size, side); best-of is kept. Generous
/// because each repetition is only milliseconds and the best-of floor
/// is what the comparison hinges on.
pub const OVERHEAD_REPS: usize = 15;

/// The full sweep's history sizes, in transactions.
pub const SIZES: [usize; 4] = [128, 256, 512, 1024];

/// The sizes to run: the full sweep, or the one size `--txns N` names
/// (CI smoke).
pub fn sizes_from_args() -> Vec<usize> {
    match crate::u64_from_args("txns", 0) {
        0 => SIZES.to_vec(),
        n => vec![n as usize],
    }
}

/// The overhead experiments' workload: conflict-heavy, aborts in the
/// mix, and a connection-pool-like window of bounded concurrency —
/// the regime where checker hot-path costs show, and what lets
/// watermark GC keep the live set flat while the history grows.
pub fn overhead_history(txns: usize, seed: u64) -> History {
    let cfg = adya_workloads::histgen::HistGenConfig {
        txns,
        objects: 8,
        ops_per_txn: 4,
        write_prob: 0.5,
        dirty_read_prob: 0.1,
        abort_prob: 0.1,
        shuffle_order_prob: 0.0,
        max_concurrent: 8,
    };
    adya_workloads::histgen::random_history(&cfg, seed)
}

/// What an experiment calls its two sides and its parity bit.
#[derive(Debug, Clone, Copy)]
pub struct Labels {
    /// Report-key prefix: rows carry `<key>_on_ns` / `<key>_off_ns`.
    pub key: &'static str,
    /// Table-column word: `<column> on µs` / `<column> off µs`.
    pub column: &'static str,
    /// The parity bit's report key; with spaces for underscores, its
    /// table column.
    pub parity: &'static str,
}

impl Labels {
    /// E16 `provenance_overhead`: per-edge provenance on vs off.
    pub const PROVENANCE: Labels = Labels {
        key: "provenance",
        column: "prov",
        parity: "fired_agree",
    };
    /// E17 `telemetry_overhead`: stage stamps + monitor SLIs + sampled
    /// phase timings on vs off.
    pub const TELEMETRY: Labels = Labels {
        key: "telemetry",
        column: "plane",
        parity: "verdicts_identical",
    };
    /// E21 `trace_provenance`: stage stamping on vs off.
    pub const TRACE: Labels = Labels {
        key: "trace",
        column: "trace",
        parity: "verdicts_identical",
    };
}

struct Row {
    txns: usize,
    events: usize,
    on_ns: u128,
    off_ns: u128,
    parity: bool,
}

/// Relative cost of `on` over `off`, in percent.
fn overhead_pct(on: u128, off: u128) -> f64 {
    (on as f64 - off as f64) / off.max(1) as f64 * 100.0
}

/// The same in basis points, floored at zero: the report writer is
/// integral.
fn overhead_bp(on: u128, off: u128) -> u64 {
    (overhead_pct(on, off) * 100.0).max(0.0) as u64
}

/// One finished on/off sweep.
pub struct Sweep {
    labels: Labels,
    rows: Vec<Row>,
}

impl Sweep {
    /// Runs the sweep: per size, one history from `seed`, the best of
    /// [`OVERHEAD_REPS`] repetitions of `ingest` per side — each
    /// repetition one run on, then one off — and the equality of the
    /// two sides' last outputs.
    pub fn run<P: PartialEq>(
        labels: Labels,
        sizes: &[usize],
        seed: u64,
        mut ingest: impl FnMut(&History, bool) -> (u128, P),
    ) -> Sweep {
        let rows = sizes
            .iter()
            .map(|&txns| {
                let h = overhead_history(txns, seed);
                let (mut on_ns, mut off_ns) = (u128::MAX, u128::MAX);
                let (mut on_out, mut off_out) = (None, None);
                for _ in 0..OVERHEAD_REPS {
                    let (ns, out) = ingest(&h, true);
                    (on_ns, on_out) = (on_ns.min(ns), Some(out));
                    let (ns, out) = ingest(&h, false);
                    (off_ns, off_out) = (off_ns.min(ns), Some(out));
                }
                Row {
                    txns,
                    events: h.events().len(),
                    on_ns,
                    off_ns,
                    parity: on_out == off_out,
                }
            })
            .collect();
        Sweep { labels, rows }
    }

    /// Nanoseconds over all sizes: (on, off).
    fn totals(&self) -> (u128, u128) {
        self.rows
            .iter()
            .fold((0, 0), |(on, off), r| (on + r.on_ns, off + r.off_ns))
    }

    /// Aggregate cost of the on side over the off side, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let (on, off) = self.totals();
        overhead_pct(on, off)
    }

    /// The gate: both sides produced equal outputs at every size, and
    /// the aggregate cost is at most `budget_pct` percent (integer
    /// arithmetic: exactly at budget passes).
    pub fn passes(&self, budget_pct: u64) -> bool {
        let (on, off) = self.totals();
        self.rows.iter().all(|r| r.parity) && on * 100 <= off * (100 + u128::from(budget_pct))
    }

    /// The per-size table.
    pub fn table(&self) -> String {
        let Labels { column, parity, .. } = self.labels;
        let mut table = Table::new(&[
            "txns".to_string(),
            "events".to_string(),
            format!("{column} on µs"),
            format!("{column} off µs"),
            "overhead".to_string(),
            parity.replace('_', " "),
        ]);
        for r in &self.rows {
            table.row(&[
                r.txns.to_string(),
                r.events.to_string(),
                (r.on_ns / 1000).to_string(),
                (r.off_ns / 1000).to_string(),
                format!("{:+.1}%", overhead_pct(r.on_ns, r.off_ns)),
                if r.parity { "yes" } else { "NO" }.to_string(),
            ]);
        }
        table.render()
    }

    /// Appends the sweep to a report's root object: the `runs` array,
    /// the totals, and — when the experiment's claim is a budget —
    /// `within_budget`, the gate at `claim_pct`.
    pub fn report(&self, w: &mut JsonWriter, claim_pct: Option<u64>) {
        let Labels { key, parity, .. } = self.labels;
        w.open_array(Some("runs"));
        for r in &self.rows {
            w.open_object(None);
            w.u64_field("txns", r.txns as u64);
            w.u64_field("events", r.events as u64);
            w.u64_field(&format!("{key}_on_ns"), r.on_ns as u64);
            w.u64_field(&format!("{key}_off_ns"), r.off_ns as u64);
            w.u64_field("overhead_bp", overhead_bp(r.on_ns, r.off_ns));
            w.bool_field(parity, r.parity);
            w.close_object();
        }
        w.close_array();
        let (on, off) = self.totals();
        w.u64_field("total_on_ns", on as u64);
        w.u64_field("total_off_ns", off as u64);
        w.u64_field("total_overhead_bp", overhead_bp(on, off));
        if let Some(pct) = claim_pct {
            w.bool_field("within_budget", self.passes(pct));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_obs::json::{parse, Value};

    const LABELS: Labels = Labels {
        key: "fake",
        column: "fake",
        parity: "outputs_equal",
    };

    /// A sweep over two tiny histories whose sides always take
    /// `on_ns` / `off_ns` and emit `on_out` / `off_out`.
    fn fake(on_ns: u128, off_ns: u128, on_out: u8, off_out: u8) -> Sweep {
        Sweep::run(LABELS, &[4, 8], 1, |_, on| {
            if on {
                (on_ns, on_out)
            } else {
                (off_ns, off_out)
            }
        })
    }

    #[test]
    fn a_parity_mismatch_fails_the_gate_whatever_the_cost() {
        let s = fake(1_000, 1_000, 1, 2);
        assert!(!s.passes(100));
        assert!(fake(1_000, 1_000, 1, 1).passes(0));
        assert!(s.table().contains("NO"));
    }

    #[test]
    fn the_budget_gates_the_aggregate_and_admits_exactly_at_budget() {
        let s = fake(1_100, 1_000, 7, 7);
        assert!(!s.passes(9), "10% over a 9% budget");
        assert!(s.passes(10), "exactly at budget passes");
        assert!(s.passes(11));
        assert!((s.overhead_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn best_of_keeps_the_fastest_repetition_per_side() {
        let mut sides = Vec::new();
        let s = Sweep::run(LABELS, &[4], 1, |_, on| {
            sides.push(on);
            // Each side's repetitions get slower; the first is kept.
            (if on { 2_000 } else { 1_000 } + sides.len() as u128, ())
        });
        // On and off alternate, on first: a box that changes speed
        // mid-sweep slows both sides alike.
        let alternating: Vec<bool> = (0..2 * OVERHEAD_REPS).map(|i| i % 2 == 0).collect();
        assert_eq!(sides, alternating);
        assert_eq!(s.totals(), (2_001, 1_002));
    }

    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    /// A report's top-level keys with the header (name, seed, cores,
    /// knobs) dropped.
    fn keys_from_runs(v: &Value) -> Vec<&str> {
        let ks = keys(v);
        let at = ks.iter().position(|k| *k == "runs").expect("a runs array");
        ks[at..].to_vec()
    }

    /// The three experiments' committed reports, from `runs` on, are
    /// this module's output under their labels: a renamed or reordered
    /// key fails here, not in whoever reads `experiments/*.json`.
    #[test]
    fn reports_keep_the_committed_key_sequence() {
        // (report, labels, within_budget?, what the binary appends)
        let cases: [(&str, Labels, Option<u64>, &[&str]); 3] = [
            (
                "provenance_overhead",
                Labels::PROVENANCE,
                None,
                &["witness_extract_ns"],
            ),
            ("telemetry_overhead", Labels::TELEMETRY, Some(10), &[]),
            ("trace_provenance", Labels::TRACE, Some(5), &["replicated"]),
        ];
        for (name, labels, claim, tail) in cases {
            let sweep = Sweep::run(labels, &[4], 42, |_, on| (1_000 + u128::from(on), ()));
            let rendered = crate::render_report(name, 42, &[], |w| sweep.report(w, claim));
            let rendered = parse(&rendered).expect("rendered report parses");
            let path = format!(
                "{}/../../experiments/{name}.json",
                env!("CARGO_MANIFEST_DIR")
            );
            let committed = parse(&std::fs::read_to_string(&path).expect(&path))
                .unwrap_or_else(|e| panic!("{path}: {e}"));

            let mut want = keys_from_runs(&rendered);
            want.extend(tail);
            assert_eq!(keys_from_runs(&committed), want, "{name}: top-level keys");

            let row = |v: &Value| keys(&v.get("runs").unwrap().as_array().unwrap()[0]).join(",");
            assert_eq!(row(&committed), row(&rendered), "{name}: row keys");
        }
    }
}
