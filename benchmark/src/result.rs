//! What one run reports: named metric values checked against the
//! spec, and the result line the driver reads.

use std::collections::BTreeMap;

use crate::spec::{self, MetricSpec};
use crate::trace::SelfTime;
use crate::RunArgs;

/// The metrics of one spec table (end-to-end or per-layer), each
/// measured or not. A per-layer metric stays `None` when its layer does
/// no work on this workload or when too few samples arrived for the
/// percentile it names; `None` is never shown as a measured 0.
#[derive(Debug, Clone)]
pub struct Metrics {
    specs: &'static [MetricSpec],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(specs: &'static [MetricSpec]) -> Metrics {
        Metrics {
            specs,
            values: vec![None; specs.len()],
        }
    }

    fn index(&self, name: &str) -> usize {
        self.specs
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the benchmark spec"))
    }

    /// Sets `name`; panics on a name the spec does not list, so
    /// nothing unnamed can ever be emitted.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.index(name);
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values[self.index(name)]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricSpec, Option<f64>)> + '_ {
        self.specs.iter().zip(self.values.iter().copied())
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` with every digit of
    /// each value. The driver wants a number under every name of the
    /// table on every run, so here — and only here — an unmeasured
    /// per-layer metric is written as 0; the ledger document and
    /// `describe` say `null` / `not measured`. (An unmeasured
    /// end-to-end metric never gets this far: `single_run` refuses to
    /// print a result without all of them.)
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    v.unwrap_or(0.0),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Names of the metrics nothing has set.
    pub fn unmeasured(&self) -> Vec<&'static str> {
        self.iter()
            .filter(|(_, v)| v.is_none())
            .map(|(m, _)| m.name)
            .collect()
    }
}

/// The outcome of one `--workload … --trace …` run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Every checked output matched its oracle.
    pub correct: bool,
    /// Verdicts (or recovered sessions) checked against the oracle.
    pub attempted: u64,
    /// Of those, how many were refused, errored or mismatched.
    pub failed: u64,
    pub metrics: Metrics,
    /// FNV-1a of the generated input.
    pub input_hash: u64,
    /// Sample counts and other context, for humans.
    pub notes: Vec<String>,
    /// Self-time table of the traced pass.
    pub self_time: BTreeMap<&'static str, SelfTime>,
}

impl RunResult {
    /// A result with nothing attempted yet, reporting the metrics of
    /// the mode `args` selects.
    pub fn new(args: &RunArgs) -> RunResult {
        RunResult {
            workload: args.workload.name,
            seed: args.seed,
            traced: args.traced,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::new(if args.traced {
                &spec::PER_LAYER
            } else {
                &spec::END_TO_END
            }),
            input_hash: 0,
            notes: Vec::new(),
            self_time: BTreeMap::new(),
        }
    }

    /// The one-line JSON object the driver parses: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }

    /// Human-readable context, printed before the driver line.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "workload {} seed {} trace {} input_hash {:016x}\n",
            self.workload, self.seed, self.traced as u8, self.input_hash
        );
        for n in &self.notes {
            let _ = writeln!(s, "  note: {n}");
        }
        for (m, v) in self.metrics.iter() {
            match v {
                Some(v) => {
                    let _ = writeln!(s, "  {} = {v} {}", m.name, m.unit);
                }
                None => {
                    let _ = writeln!(s, "  {} not measured", m.name);
                }
            }
        }
        if !self.self_time.is_empty() {
            let _ = writeln!(s, "  self-time table (span: count, total ms, self ms):");
            for (name, t) in &self.self_time {
                let _ = writeln!(
                    s,
                    "    {name}: {}, {:.3}, {:.3}",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric nothing measured is absent, not a measured 0 — a
    /// percentile the sample count refused must not read as "0 ms".
    #[test]
    fn an_unmeasured_metric_is_not_a_zero() {
        let mut m = Metrics::new(&spec::PER_LAYER);
        m.set("core.dsg.edges", 0.0);
        assert_eq!(m.get("core.dsg.edges"), Some(0.0));
        assert_eq!(m.get("online.checker.commit_ns_p99"), None);
        assert_eq!(m.unmeasured().len(), spec::PER_LAYER.len() - 1);
        let mut res = RunResult::new(&crate::RunArgs {
            workload: &spec::WORKLOADS[0],
            seed: 1,
            seconds: 1.0,
            quick: true,
            traced: true,
        });
        res.metrics = m;
        let text = res.describe();
        assert!(text.contains("core.dsg.edges = 0 count"), "{text}");
        assert!(
            text.contains("online.checker.commit_ns_p99 not measured"),
            "{text}"
        );
    }
}
