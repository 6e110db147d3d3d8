//! The analysis pass: one derivation of the direct conflicts
//! (Figure 2), the graphs over them, one search per phenomenon, and
//! every level (Figure 6: a list of proscribed phenomena) looked up in
//! what was found. Every entry point is a few lines over [`Pass`].

use std::fmt;

use adya_history::History;
use adya_obs::Registry;

use crate::dsg::Dsg;
use crate::levels::{IsolationLevel, LevelCheck, LevelReport};
use crate::mixing::MixingReport;
use crate::phenomena::{self, Phenomenon, PhenomenonKind};
use crate::ssg::Ssg;
use crate::usg;

/// What is derived from one history: the conflicts inside the DSG,
/// and the DSG's one component labelling, which G2, G2-item,
/// G-single and G-monotonic search inside. The SSG is a view of the
/// two (it stores no start-dependency edge), taken where G-SIa or
/// G-SIb is searched for.
struct Pass<'h> {
    h: &'h History,
    dsg: Dsg,
}

impl<'h> Pass<'h> {
    fn new(h: &'h History) -> Self {
        Pass {
            h,
            dsg: Dsg::build(h),
        }
    }

    /// The kind → detector table; each a function of `(h, dsg)`.
    fn detect(&self, kind: PhenomenonKind) -> Option<Phenomenon> {
        use PhenomenonKind::*;
        adya_obs::counter!("checker.detector_runs").inc();
        let (h, dsg) = (self.h, &self.dsg);
        match kind {
            G0 => phenomena::g0(dsg),
            G1a => phenomena::g1a(h),
            G1b => phenomena::g1b(h),
            G1c => phenomena::g1c(dsg),
            G2Item => phenomena::g2_item(dsg),
            G2 => phenomena::g2(dsg),
            GSingle => dsg.single_anti_cycle().map(Phenomenon::GSingle),
            GSIa => Ssg::build(h, dsg)
                .interference_edge()
                .map(|(from, to, kind)| Phenomenon::GSIa { from, to, kind }),
            GSIb => Ssg::build(h, dsg)
                .missed_effects_cycle()
                .map(Phenomenon::GSIb),
            GCursor => phenomena::g_cursor(h, dsg),
            GMonotonic => {
                usg::g_monotonic(h, dsg).map(|(txn, cycle)| Phenomenon::GMonotonic { txn, cycle })
            }
        }
    }

    /// One witness per kind of `kinds` present, in `kinds` order.
    fn detect_each(&self, kinds: &[PhenomenonKind]) -> Vec<Phenomenon> {
        kinds.iter().filter_map(|&k| self.detect(k)).collect()
    }
}

/// Detects every phenomenon present in `h`, one witness per kind.
pub fn detect_all(h: &History) -> Vec<Phenomenon> {
    Pass::new(h).detect_each(&PhenomenonKind::ALL)
}

/// Classifies `h` against every level: each phenomenon is searched
/// for once, and every level's check is read off what was found.
pub fn classify(h: &History) -> LevelReport {
    LevelReport::of(&detect_all(h))
}

/// Checks whether `h` is admitted at `level` (Figure 6): runs exactly
/// the detectors for the level's proscribed phenomena.
pub fn check_level(h: &History, level: IsolationLevel) -> LevelCheck {
    LevelCheck::of(level, &Pass::new(h).detect_each(level.proscribes()))
}

/// Checks Definition 9: `H` is mixing-correct iff `MSG(H)` is acyclic
/// and phenomena G1a and G1b do not occur for PL-2 and PL-3 (and
/// PL-2.99) transactions.
pub fn check_mixing(h: &History) -> MixingReport {
    MixingReport::of(h, Dsg::build(h).conflicts())
}

/// Everything the checker can say about one history: the DSG, every
/// phenomenon present (with witnesses), the verdict at every level,
/// and the mixed-level verdict.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The direct serialization graph.
    pub dsg: Dsg,
    /// One witness per phenomenon kind present.
    pub phenomena: Vec<Phenomenon>,
    /// Per-level verdicts.
    pub levels: LevelReport,
    /// Definition 9 on the recorded per-transaction levels.
    pub mixing: MixingReport,
}

/// Analyzes `h` fully.
///
/// ```
/// use adya_core::analyze;
/// use adya_history::parse_history;
///
/// let h = parse_history("w1(x,1) c1 r2(x1) c2").unwrap();
/// let a = analyze(&h);
/// assert!(a.phenomena.is_empty());
/// assert!(a.mixing.is_correct());
/// ```
pub fn analyze(h: &History) -> Analysis {
    analyze_in(h, adya_obs::global())
}

/// [`analyze`], recording per-phase timings, graph-shape stats and
/// phenomenon hit counters into `reg`.
///
/// Metric names (all under the `checker.` prefix): phase latencies as
/// histograms `checker.phase.{dsg_build,detect_all,classify,mixing,
/// total}_ns`; graph shape as gauges `checker.dsg.{nodes,edges,sccs,
/// max_scc}` and `checker.history.{txns,committed}`; one counter
/// `checker.phenomena.<kind>` per detected phenomenon kind; plus a
/// `checker.analyses` run counter. (The work counters
/// `checker.conflict_derivations`, `checker.detector_runs`,
/// `checker.construction_visits` and `checker.search_visits` count
/// process-wide, whichever entry point did the work.)
pub fn analyze_in(h: &History, reg: &Registry) -> Analysis {
    let total = reg.span("checker.phase.total_ns");
    let pass = reg.time("checker.phase.dsg_build_ns", || Pass::new(h));
    let phenomena = reg.time("checker.phase.detect_all_ns", || {
        pass.detect_each(&PhenomenonKind::ALL)
    });
    let levels = reg.time("checker.phase.classify_ns", || LevelReport::of(&phenomena));
    let mixing = reg.time("checker.phase.mixing_ns", || {
        MixingReport::of(h, pass.dsg.conflicts())
    });
    total.stop();

    reg.counter("checker.analyses").inc();
    let g = pass.dsg.graph();
    reg.gauge("checker.dsg.nodes").set(g.node_count() as i64);
    reg.gauge("checker.dsg.edges").set(g.edge_count() as i64);
    let sccs = pass.dsg.component_sizes();
    reg.gauge("checker.dsg.sccs").set(sccs.len() as i64);
    let max_scc = sccs.iter().max().copied().unwrap_or(0);
    reg.gauge("checker.dsg.max_scc").set(max_scc as i64);
    reg.gauge("checker.history.txns")
        .set(h.txns().count() as i64);
    reg.gauge("checker.history.committed")
        .set(h.committed_txns().count() as i64);
    for p in &phenomena {
        reg.counter(&format!("checker.phenomena.{}", p.kind()))
            .inc();
    }

    Analysis {
        dsg: pass.dsg,
        phenomena,
        levels,
        mixing,
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DSG: {} committed txns, {} edges",
            self.dsg.graph().node_count(),
            self.dsg.graph().edge_count()
        )?;
        if self.phenomena.is_empty() {
            writeln!(f, "phenomena: none")?;
        } else {
            writeln!(f, "phenomena:")?;
            for p in &self.phenomena {
                writeln!(f, "  {p}")?;
            }
        }
        writeln!(f, "{}", self.levels)?;
        write!(f, "mixing: {}", self.mixing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssg::tests::{materialised, with_begins};
    use crate::IsolationLevel;
    use adya_history::parse_history;
    use adya_workloads::histgen::{random_history, HistGenConfig};
    use proptest::prelude::*;

    /// The G2-item, G2, G-single, G-SIb and G-monotonic witnesses as
    /// printed: the pass's, which search inside the stored labelling's
    /// components (and the SSG's), then those of a labelling per
    /// detector over the edges its shape admits, the SSG with every
    /// start edge stored, every transaction unfolded over every
    /// conflict. (The graph crate's searches share the pass's kernel;
    /// `graph/tests/proptests.rs` holds them to a naive restatement of
    /// the witness rule.)
    fn gated_and_ungated(h: &History) -> [Vec<String>; 2] {
        use PhenomenonKind::*;
        let pass = Pass::new(h);
        let gated = pass.detect_each(&[G2Item, G2, GSingle, GSIb, GMonotonic]);
        let g = pass.dsg.graph();
        let ungated = [
            g.find_cycle(|_| true, |k| k.is_item_anti())
                .map(Phenomenon::G2Item),
            g.find_cycle(|_| true, |k| k.is_anti()).map(Phenomenon::G2),
            g.find_cycle_exactly_one(|k| k.is_anti(), |k| k.is_dependency())
                .map(Phenomenon::GSingle),
            materialised(h, &pass.dsg)
                .find_cycle_exactly_one(|k| k.is_anti(), |k| !k.is_anti())
                .map(Phenomenon::GSIb),
            usg::tests::ungated(h, &pass.dsg)
                .map(|(txn, cycle)| Phenomenon::GMonotonic { txn, cycle }),
        ];
        [
            gated.iter().map(ToString::to_string).collect(),
            ungated.iter().flatten().map(ToString::to_string).collect(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn gated_searches_report_what_ungated_ones_did(
            seed in 0u64..1_000_000,
            txns in 4usize..40,
            objects in 2usize..6,
            dirty in any::<bool>(),
            shuffled in any::<bool>(),
            window in 0usize..9,
            begins in 0u32..3,
        ) {
            let cfg = HistGenConfig {
                txns,
                objects,
                ops_per_txn: 3,
                dirty_read_prob: if dirty { 0.3 } else { 0.0 },
                abort_prob: if dirty { 0.15 } else { 0.0 },
                shuffle_order_prob: if shuffled { 0.5 } else { 0.0 },
                max_concurrent: window,
                ..HistGenConfig::default()
            };
            let h = random_history(&cfg, seed);
            // No `b` events, one per transaction, or one for every
            // other transaction.
            let h = with_begins(&h, |t| begins == 1 || (begins == 2 && t.0 % 2 == 0));
            let [gated, ungated] = gated_and_ungated(&h);
            prop_assert_eq!(gated, ungated, "{}", h);
        }
    }

    #[test]
    fn gated_searches_on_the_paper_histories() {
        for (name, h) in crate::paper::all() {
            let [gated, ungated] = gated_and_ungated(&h);
            assert_eq!(gated, ungated, "{name}");
        }
    }

    #[test]
    fn clean_history_analysis() {
        let h = parse_history("w1(x,1) c1 r2(x1) c2").unwrap();
        let a = analyze(&h);
        assert!(a.phenomena.is_empty());
        assert!(a.levels.satisfies(IsolationLevel::PL3));
        assert!(a.dsg.is_acyclic());
        let s = a.to_string();
        assert!(s.contains("phenomena: none"));
        assert!(s.contains("mixing-correct"));
    }

    #[test]
    fn dirty_analysis_lists_phenomena() {
        let h = parse_history("w1(x,1) r2(x1) a1 c2").unwrap();
        let a = analyze(&h);
        assert!(!a.phenomena.is_empty());
        assert!(a.to_string().contains("G1a"));
    }
}
