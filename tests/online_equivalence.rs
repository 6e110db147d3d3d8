//! Online/batch equivalence: for random commit-order histories, the
//! streaming checker's final verdict — after a full ingest with the
//! most aggressive GC configuration — must match the batch
//! classification exactly, both in the strongest ANSI level and in
//! the set of fired phenomena.
//!
//! Histories are sampled with `shuffle_order_prob = 0.0` because the
//! online checker installs versions at commit time: explicit version
//! orders that diverge from commit order are a batch-only concept
//! (see `adya::online` crate docs).
//!
//! Below the proptests: the indexed watermark GC held, byte for byte,
//! to the scanning collector it replaced.

use std::collections::BTreeSet;

#[cfg(debug_assertions)]
use adya::core::PhenomenonKind::G1c;
use adya::core::{classify, detect_all, PhenomenonKind};
use adya::history::Event;
use adya::online::{GcConfig, OnlineChecker, StreamFeed};
use adya::workloads::histgen::{random_history, HistGenConfig};
use proptest::prelude::*;

mod common;

/// The phenomena the online checker reports (the ANSI chain's
/// proscriptions); batch-only extensions (G-single, G-SI, …) are
/// filtered out of the batch side before comparing.
const ONLINE_KINDS: [PhenomenonKind; 6] = [
    PhenomenonKind::G0,
    PhenomenonKind::G1a,
    PhenomenonKind::G1b,
    PhenomenonKind::G1c,
    PhenomenonKind::G2Item,
    PhenomenonKind::G2,
];

fn cfg_strategy() -> impl Strategy<Value = HistGenConfig> {
    (
        2usize..8,
        2usize..5,
        1usize..6,
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..0.5,
        // Both unbounded concurrency (everything live at once, GC
        // mostly idle until the tail) and tight windows (GC prunes
        // mid-stream, the regime it exists for).
        prop_oneof![Just(0usize), 1usize..4],
    )
        .prop_map(
            |(txns, objects, ops, write, dirty, abortp, win)| HistGenConfig {
                txns,
                objects,
                ops_per_txn: ops,
                write_prob: write,
                dirty_read_prob: dirty,
                abort_prob: abortp,
                // Install order must equal commit order for the streaming
                // model; see the module docs above.
                shuffle_order_prob: 0.0,
                max_concurrent: win,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Full-ingest equivalence with GC at its most aggressive setting
    /// (a collection pass after every event), so any pruning bug that
    /// loses an edge, a cycle, or a dirty-read witness shows up as a
    /// verdict divergence.
    #[test]
    fn online_matches_batch(cfg in cfg_strategy(), seed in 0u64..10_000) {
        let h = random_history(&cfg, seed);

        let mut online = OnlineChecker::with_gc(GcConfig { enabled: true, interval: 1 });
        for e in h.events() {
            online.ingest(e);
        }
        let v = online.finish();

        let batch = classify(&h);
        prop_assert_eq!(
            v.strongest_ansi,
            batch.strongest_ansi(),
            "strongest ANSI level diverged (online fired {:?}):\n{}",
            online.fired_kinds(),
            h
        );

        let batch_kinds: BTreeSet<PhenomenonKind> = detect_all(&h)
            .iter()
            .map(|p| p.kind())
            .filter(|k| ONLINE_KINDS.contains(k))
            .collect();
        let online_kinds: BTreeSet<PhenomenonKind> =
            online.fired_kinds().into_iter().collect();
        prop_assert_eq!(
            online_kinds,
            batch_kinds,
            "fired-phenomena sets diverged:\n{}",
            h
        );

        // Commit-order histories never read versions the GC has
        // already pruned incorrectly: a nonzero stale count means a
        // liveness-accounting bug, not a legitimately weakened verdict.
        prop_assert_eq!(v.stale_refs, 0, "stale reads under GC:\n{}", h);
    }

    /// GC must be verdict-neutral: the same ingest with collection
    /// disabled (exact batch memory behaviour) produces the same
    /// verdict as interval-1 collection.
    #[test]
    fn gc_is_verdict_neutral(cfg in cfg_strategy(), seed in 0u64..10_000) {
        let h = random_history(&cfg, seed);

        let mut eager = OnlineChecker::with_gc(GcConfig { enabled: true, interval: 1 });
        let mut keeper = OnlineChecker::with_gc(GcConfig { enabled: false, interval: 1 });
        for e in h.events() {
            eager.ingest(e);
            keeper.ingest(e);
        }
        let ve = eager.finish();
        let vk = keeper.finish();
        prop_assert_eq!(ve.strongest_ansi, vk.strongest_ansi, "GC changed the level:\n{}", h);
        let ke: BTreeSet<PhenomenonKind> = ve.fired.iter().copied().collect();
        let kk: BTreeSet<PhenomenonKind> = vk.fired.iter().copied().collect();
        prop_assert_eq!(ke, kk, "GC changed the fired set:\n{}", h);
    }
}

/// The indexed collector against the scanning one it replaced
/// (`set_gc_by_scan`, the old pass kept for exactly this): on
/// sliding-window streams — clean ones, where graphs stay live and
/// prunes contract them, and dirty ones with aborts, dirty reads and
/// latches — every verdict line and the checker image after every
/// commit are the same bytes. And since the index is derived state, a
/// checker restored from any image along the way carries on to the
/// same bytes too.
#[cfg(debug_assertions)] // the reference collector exists in debug builds only
#[test]
fn indexed_gc_matches_the_scanning_collector_byte_for_byte() {
    use common::{sliding_window_events, SlidingWindow};

    for (seed, dirty, provenance, interval) in [
        (1, false, true, 1),
        (2, false, false, 64),
        (3, true, true, 64),
        (4, true, false, 1),
        (5, false, true, 64),
        (6, true, true, 1),
    ] {
        let cfg = SlidingWindow {
            keys: 24,
            slide: 400,
            open: 5,
            dirty,
        };
        let events = sliding_window_events(cfg, seed, 1_600);
        let gc = GcConfig {
            enabled: true,
            interval,
        };
        let mut indexed = OnlineChecker::with_gc(gc);
        let mut scanning = OnlineChecker::with_gc(gc);
        scanning.set_gc_by_scan(true);
        for c in [&mut indexed, &mut scanning] {
            c.set_provenance(provenance);
        }
        let mut restored: Vec<OnlineChecker> = Vec::new();
        let what = format!("seed {seed} dirty {dirty} provenance {provenance} interval {interval}");
        for (i, e) in events.iter().enumerate() {
            if i % 97 == 0 {
                restored.push(OnlineChecker::restore(&indexed.snapshot()).expect("restore"));
            }
            let line = indexed.ingest(e).map(|v| v.to_json());
            assert_eq!(
                line,
                scanning.ingest(e).map(|v| v.to_json()),
                "{what}: verdict at event {i}"
            );
            for r in &mut restored {
                assert_eq!(
                    line,
                    r.ingest(e).map(|v| v.to_json()),
                    "{what}: restored checker's verdict at event {i}"
                );
            }
            if line.is_some() {
                assert_eq!(
                    indexed.snapshot(),
                    scanning.snapshot(),
                    "{what}: image after event {i}"
                );
            }
        }
        assert!(indexed.pruned_txns() > 50, "{what}: the stream must prune");
        let last = indexed.finish().to_json();
        assert_eq!(last, scanning.finish().to_json(), "{what}: final verdict");
        let image = indexed.snapshot();
        assert_eq!(image, scanning.snapshot(), "{what}: final image");
        for (n, mut r) in restored.into_iter().enumerate() {
            assert_eq!(last, r.finish().to_json(), "{what}: restore #{n}");
            assert_eq!(image, r.snapshot(), "{what}: restore #{n}'s final image");
        }
    }
}

/// The events of `tests/data/stream/<name>.events`, as a checker
/// collecting under `gc` is fed them: which transaction a reused id
/// names, and so how its writes are numbered, depends on what was
/// pruned before its token.
fn fixture_events(name: &str, gc: GcConfig) -> Vec<Event> {
    let mut feed = StreamFeed::new(OnlineChecker::with_gc(gc));
    common::stream_fixture(name)
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .flat_map(str::split_whitespace)
        .map(|tok| {
            let ev = feed.parse(tok).expect("fixture token");
            feed.ingest(&ev);
            ev
        })
        .collect()
}

/// A pass after every event: the GC the image goldens run under.
const EAGER: GcConfig = GcConfig {
    enabled: true,
    interval: 1,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(digits: &str) -> Vec<u8> {
    (0..digits.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&digits[i..i + 2], 16).expect("hex"))
        .collect()
}

/// Every `image@<cut> <hex>` line of an image golden, in file order.
fn images(golden: &str) -> Vec<(&str, Vec<u8>)> {
    golden
        .lines()
        .filter_map(|l| l.strip_prefix("image@")?.split_once(' '))
        .map(|(cut, digits)| (cut, unhex(digits)))
        .collect()
}

/// One run of a fixture at interval-1 GC, as the lines of its golden:
/// the checker image (hex) before the events at a quarter, a half and
/// three quarters of the stream, every verdict line in between, and
/// the image after `finish`.
fn image_golden_lines(events: &[Event], provenance: bool) -> Vec<String> {
    let mut c = OnlineChecker::with_gc(EAGER);
    c.set_provenance(provenance);
    let mut lines = vec![format!("# provenance {provenance}")];
    for (i, e) in events.iter().enumerate() {
        if i > 0 && i % (events.len() / 4) == 0 {
            lines.push(format!("image@{i} {}", hex(&c.snapshot())));
        }
        if let Some(v) = c.ingest(e) {
            lines.push(format!("verdict {}", v.to_json()));
        }
    }
    lines.push(format!("verdict {}", c.finish().to_json()));
    lines.push(format!("image@end {}", hex(&c.snapshot())));
    lines
}

/// Checker images and the verdicts between them, as the parent of the
/// module split wrote them (`REGEN_GOLDEN=1` rewrites): the image is
/// the checker's whole state, so its bytes staying put is the
/// byte-identity contract of `OnlineChecker::snapshot` held across
/// refactorings, not just across one process's restore.
#[test]
fn stream_images_match_their_goldens() {
    for name in common::STREAM_FIXTURES {
        let events = fixture_events(name, EAGER);
        let mut text = String::new();
        for provenance in [true, false] {
            for line in image_golden_lines(&events, provenance) {
                text.push_str(&line);
                text.push('\n');
            }
        }
        common::check_stream_golden(&format!("{name}.image.golden"), &text);
    }
}

/// The drawings `adya-check --stream --dot` prints are
/// `Verdict::cycle_dot`'s and nothing else's: the same checker fed the
/// same events in-process renders each fixture's DOT golden, no binary
/// or pipe involved.
#[test]
fn stream_dots_match_their_goldens_in_process() {
    for name in common::STREAM_FIXTURES {
        let mut c = OnlineChecker::new();
        c.set_provenance(true);
        let dots: String = fixture_events(name, GcConfig::default())
            .iter()
            .filter_map(|e| c.ingest(e)?.cycle_dot())
            .collect();
        common::check_stream_golden(&format!("{name}.dot.golden"), &dots);
        assert_eq!(
            c.finish().cycle_dot(),
            None,
            "{name}: nothing fires at the end"
        );
    }
}

/// Restores each mid-stream image in `tests/data/stream/<file>`, laid
/// out as an image golden, and carries it on over the rest of `name`'s
/// events: to the file's remaining verdict lines and, with
/// `final_image`, to its final image too.
fn continue_from_images(name: &str, file: &str, final_image: bool) {
    let events = fixture_events(name, EAGER);
    let path = common::stream_data(file);
    let golden = std::fs::read_to_string(&path).expect("image file");
    let compared =
        |l: &str| l.starts_with("verdict ") || (final_image && l.starts_with("image@end "));
    // Each `# provenance` section is one run.
    for run in golden.split("# provenance ").skip(1) {
        let lines: Vec<&str> = run.lines().skip(1).collect();
        for (at, line) in lines.iter().enumerate() {
            let Some((cut, digits)) = line
                .strip_prefix("image@")
                .and_then(|l| l.split_once(' '))
                .filter(|(cut, _)| *cut != "end")
            else {
                continue;
            };
            let cut: usize = cut.parse().expect("cut index");
            let mut c = OnlineChecker::restore(&unhex(digits)).expect("the image restores");
            let mut got = Vec::new();
            for e in &events[cut..] {
                if let Some(v) = c.ingest(e) {
                    got.push(format!("verdict {}", v.to_json()));
                }
            }
            got.push(format!("verdict {}", c.finish().to_json()));
            got.push(format!("image@end {}", hex(&c.snapshot())));
            got.retain(|l| compared(l));
            let want: Vec<&str> = lines[at + 1..]
                .iter()
                .copied()
                .filter(|l| compared(l))
                .collect();
            assert_eq!(got, want, "{file}: continuing from image@{cut}");
        }
    }
}

/// An image in a golden restores under this build and carries on to
/// the golden's remaining verdict lines and its final image.
#[test]
fn golden_images_restore_and_continue_to_the_golden_verdicts() {
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        return; // the goldens are being rewritten under this test's feet
    }
    for name in common::STREAM_FIXTURES {
        continue_from_images(name, &format!("{name}.image.golden"), true);
    }
}

/// Restores every image of `tests/data/stream/<file>`, `name`'s image
/// golden as an older build wrote it, and requires each to be the state
/// this build reaches at the same cut: the current golden's image, but
/// for the CRC and the two reorder counters, which still count the
/// reorders of the graph the restore let go.
fn restores_to_this_builds_state(name: &str, file: &str) {
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        return; // the current golden is being rewritten under this test's feet
    }
    let read = |file: &str| std::fs::read_to_string(common::stream_data(file)).expect(file);
    let (old_text, new_text) = (read(file), read(&format!("{name}.image.golden")));
    // Magic and CRC take 12 bytes; the payload opens with the clock,
    // the GC policy and four counters (49 bytes), then the reorder
    // counts of dropped graphs and of those already reported.
    const DROPPED: usize = 12 + 49;
    const REPORTED: usize = DROPPED + 8;
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let (old, new) = (images(&old_text), images(&new_text));
    assert_eq!(old.len(), new.len());
    for ((cut, image), (at, want)) in old.into_iter().zip(new) {
        assert_eq!(cut, at);
        let mut got = OnlineChecker::restore(&image)
            .expect("the image restores")
            .snapshot();
        // Both counts exceed this build's by the old graph's reorders:
        // folded into the dropped count, they are not reported twice.
        let extra = |at| u64_at(&got, at).wrapping_sub(u64_at(&want, at));
        assert_eq!(extra(DROPPED), extra(REPORTED), "image@{cut}: reorders");
        got[8..12].copy_from_slice(&want[8..12]);
        got[DROPPED..REPORTED + 8].copy_from_slice(&want[DROPPED..REPORTED + 8]);
        assert!(got == want, "{file}: image@{cut} restores to another state");
    }
}

/// `dirty_hot.lane0.image` is `dirty_hot`'s image golden as the build
/// before the G0 lane's removal wrote it: every image still carries a
/// write-dependency graph, at the last cut the only graph left, beside
/// a provenance map. Each restores (the graph checked, then dropped,
/// the map cleared once no graph is left) and carries on to the same
/// verdict lines; its final images are the old build's, so are not
/// compared. Restored, each is the state this build reaches at the same
/// cut — where nothing is parked, that is with G1c's graph shed, and
/// the map cleared once no graph holds an edge.
#[test]
fn images_with_a_g0_graph_restore_and_continue_to_the_same_verdicts() {
    continue_from_images("dirty_hot", "dirty_hot.lane0.image", false);
    restores_to_this_builds_state("dirty_hot", "dirty_hot.lane0.image");
}

/// `clean_window.g1c.image` is `clean_window`'s image golden as the
/// build before G1c's graph was shed wrote it: the stream is strict
/// 2PL, so no read is ever parked, yet every image holds a G1c graph
/// beside G2's. Each restores (the G1c graph checked, then shed) and
/// carries on to the same verdict lines, and is, restored, the state
/// this build reaches at the same cut.
#[test]
fn images_with_a_g1c_graph_and_nothing_parked_restore_to_this_builds_state() {
    continue_from_images("clean_window", "clean_window.g1c.image", false);
    restores_to_this_builds_state("clean_window", "clean_window.g1c.image");
}

/// G1c's graph, shed while no read is parked, held to the graph fed on
/// every commit that it replaced (`set_g1c_eager`). Over seeded streams
/// with rare dirty reads — a read is parked now and then, the graph is
/// shed in between, and G1c fires late in the stream — at GC interval 1
/// and 64, with provenance on, every verdict line and every
/// `cycle_dot` are the same bytes, the final verdict too. The sample
/// must hold at least 100 streams in which, under both intervals, G1c
/// fires after the shed graph held fewer nodes than the eager one.
#[cfg(debug_assertions)] // the eager reference exists in debug builds only
#[test]
fn the_g1c_graph_shed_while_nothing_is_parked_matches_the_eager_one() {
    let cfg = HistGenConfig {
        txns: 200,
        objects: 4,
        ops_per_txn: 4,
        write_prob: 0.5,
        dirty_read_prob: 0.01,
        abort_prob: 0.05,
        shuffle_order_prob: 0.0,
        max_concurrent: 4,
    };
    let mut late_g1c = 0;
    for seed in 0..440 {
        let h = random_history(&cfg, seed);
        let mut late_in_both = true;
        for interval in [1, 64] {
            let gc = GcConfig {
                enabled: true,
                interval,
            };
            let (mut lazy, mut eager) = (OnlineChecker::with_gc(gc), OnlineChecker::with_gc(gc));
            eager.set_g1c_eager(true);
            for c in [&mut lazy, &mut eager] {
                c.set_provenance(true);
            }
            let (mut shed, mut late) = (false, false);
            for (i, e) in h.events().iter().enumerate() {
                let v = lazy.ingest(e);
                late |= shed && v.as_ref().is_some_and(|v| v.new_fired.contains(&G1c));
                assert_eq!(
                    v.map(|v| (v.to_json(), v.cycle_dot())),
                    eager.ingest(e).map(|v| (v.to_json(), v.cycle_dot())),
                    "seed {seed}, interval {interval}: verdict at event {i}"
                );
                let nodes = |c: &OnlineChecker| c.cycle_graphs()[0].map(|(nodes, _)| nodes);
                shed |= nodes(&lazy) < nodes(&eager);
            }
            assert_eq!(
                lazy.finish().to_json(),
                eager.finish().to_json(),
                "seed {seed}, interval {interval}: final verdict"
            );
            late_in_both &= late;
        }
        late_g1c += usize::from(late_in_both);
    }
    assert!(
        late_g1c >= 100,
        "G1c fired after a shed in {late_g1c} streams"
    );
    eprintln!("G1c fired after a shed, at both GC intervals, in {late_g1c} of 440 streams");
}
