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
//! Below the proptests: restored checkers held to the uninterrupted
//! run, the collecting checker held to the exact one verdict for
//! verdict, and images earlier builds wrote.

use std::collections::BTreeSet;

#[cfg(debug_assertions)]
use adya::core::PhenomenonKind::G1c;
use adya::core::{classify, detect_all, PhenomenonKind};
use adya::history::{Event, ObjectId, ReadEvent, TxnId, VersionId};
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
    /// verdict divergence. The generator reads "the latest committed"
    /// in write order while the checker installs in commit order, so
    /// some histories hold reads the collecting checker retires (see
    /// `common::retired_reads`): on those it may fire less than batch,
    /// never more, and counts each retired read as stale. Without
    /// collection the checker is batch's, on every history.
    #[test]
    fn online_matches_batch(cfg in cfg_strategy(), seed in 0u64..10_000) {
        let h = random_history(&cfg, seed);
        let retired = common::retired_reads(h.events());

        let mut online = OnlineChecker::with_gc(GcConfig { enabled: true, interval: 1 });
        let mut exact = OnlineChecker::with_gc(GcConfig { enabled: false, interval: 1 });
        for e in h.events() {
            online.ingest(e);
            exact.ingest(e);
        }
        let v = online.finish();
        let ve = exact.finish();

        let batch = classify(&h);
        let batch_kinds: BTreeSet<PhenomenonKind> = detect_all(&h)
            .iter()
            .map(|p| p.kind())
            .filter(|k| ONLINE_KINDS.contains(k))
            .collect();
        let online_kinds: BTreeSet<PhenomenonKind> =
            online.fired_kinds().into_iter().collect();
        let exact_kinds: BTreeSet<PhenomenonKind> = exact.fired_kinds().into_iter().collect();

        prop_assert_eq!(
            ve.strongest_ansi,
            batch.strongest_ansi(),
            "without GC, the strongest ANSI level diverged:\n{}",
            h
        );
        prop_assert_eq!(&exact_kinds, &batch_kinds, "without GC, the fired sets diverged:\n{}", h);
        prop_assert_eq!(ve.stale_refs, 0, "stale reads without GC:\n{}", h);

        if retired > 0 {
            prop_assert_eq!(v.stale_refs, retired, "retired reads counted as stale:\n{}", h);
            prop_assert!(
                online_kinds.is_subset(&batch_kinds),
                "fired {:?}, which batch ({:?}) does not:\n{}",
                online_kinds,
                batch_kinds,
                h
            );
            return Ok(());
        }

        prop_assert_eq!(
            v.strongest_ansi,
            batch.strongest_ansi(),
            "strongest ANSI level diverged (online fired {:?}):\n{}",
            online.fired_kinds(),
            h
        );
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
    /// verdict as interval-1 collection — on a history with retired
    /// reads, a fired set that holds nothing the exact one lacks and a
    /// stale tick per retired read.
    #[test]
    fn gc_is_verdict_neutral(cfg in cfg_strategy(), seed in 0u64..10_000) {
        let h = random_history(&cfg, seed);
        let retired = common::retired_reads(h.events());

        let mut eager = OnlineChecker::with_gc(GcConfig { enabled: true, interval: 1 });
        let mut keeper = OnlineChecker::with_gc(GcConfig { enabled: false, interval: 1 });
        for e in h.events() {
            eager.ingest(e);
            keeper.ingest(e);
        }
        let ve = eager.finish();
        let vk = keeper.finish();
        let ke: BTreeSet<PhenomenonKind> = ve.fired.iter().copied().collect();
        let kk: BTreeSet<PhenomenonKind> = vk.fired.iter().copied().collect();
        if retired > 0 {
            prop_assert_eq!(ve.stale_refs, retired, "retired reads counted as stale:\n{}", h);
            prop_assert!(ke.is_subset(&kk), "GC fired {:?} beyond {:?}:\n{}", ke, kk, h);
            return Ok(());
        }
        prop_assert_eq!(ve.strongest_ansi, vk.strongest_ansi, "GC changed the level:\n{}", h);
        prop_assert_eq!(ke, kk, "GC changed the fired set:\n{}", h);
    }
}

/// A checker restored from its image carries on as the one it was
/// taken from: on sliding-window streams — clean ones, where graphs
/// stay live and the peel and the release rule work through them, and
/// dirty ones with aborts, dirty reads and latches — a checker restored
/// every 97 events says every later verdict line, and ends in the final
/// image, byte for byte. The queue and the passed marks are derived
/// state, which the first pass after a restore derives again.
#[test]
fn a_restored_checker_carries_on_byte_for_byte() {
    use common::{sliding_window_events, SlidingWindow};

    for (seed, dirty, provenance, interval) in [
        (1, false, true, 1),
        (2, false, false, 64),
        (3, true, true, 64),
        (4, true, false, 1),
        (5, false, true, 64),
        (6, true, true, 1),
        (7, true, true, 7),
        (8, false, false, 7),
    ] {
        let cfg = SlidingWindow {
            keys: 24,
            slide: 400,
            open: 5,
            dirty,
        };
        let events = sliding_window_events(cfg, seed, 1_600);
        let mut c = OnlineChecker::with_gc(GcConfig {
            enabled: true,
            interval,
        });
        c.set_provenance(provenance);
        let mut restored: Vec<OnlineChecker> = Vec::new();
        let what = format!("seed {seed} dirty {dirty} provenance {provenance} interval {interval}");
        for (i, e) in events.iter().enumerate() {
            if i % 97 == 0 {
                let image = c.snapshot();
                let r = OnlineChecker::restore(&image).expect("restore");
                assert_eq!(r.snapshot(), image, "{what}: re-image at event {i}");
                restored.push(r);
            }
            let line = c.ingest(e).map(|v| v.to_json());
            for r in &mut restored {
                assert_eq!(
                    line,
                    r.ingest(e).map(|v| v.to_json()),
                    "{what}: restored checker's verdict at event {i}"
                );
            }
        }
        assert!(c.pruned_txns() > 50, "{what}: the stream must release");
        let last = c.finish().to_json();
        let image = c.snapshot();
        for (n, mut r) in restored.into_iter().enumerate() {
            assert_eq!(last, r.finish().to_json(), "{what}: restore #{n}");
            assert_eq!(image, r.snapshot(), "{what}: restore #{n}'s final image");
        }
    }
}

/// What a verdict says about the history, as opposed to what the
/// collector has done: everything but `pruned` and `live_txns`.
fn finding(v: &adya_online::Verdict) -> String {
    format!(
        "T{:?} {} {:?} {:?} {:?} {:?} {:?} {:?}",
        v.txn,
        v.committed,
        v.fired,
        v.new_fired,
        v.witness,
        v.witness_id,
        v.cycle_dot(),
        v.stale_refs
    )
}

/// A witness does not depend on when collection passes run or what
/// they peel: over dirty sliding-window streams (no retired read among
/// them), checkers collecting at intervals 1, 7 and 64 find, verdict for verdict, what the exact checker finds — the same
/// phenomena, witness text, named anti-dependency edge, cycle and
/// provenance. A merged cycle's edges sit in an order that depends on
/// the graph's slot numbering, so the edge a G2 witness names "through"
/// is the least of its anti-dependency edges, not the first in that
/// order.
#[test]
fn witnesses_do_not_depend_on_the_collection_schedule() {
    use common::{sliding_window_events, SlidingWindow};

    let mut cycles = 0;
    for seed in 0..240u64 {
        let cfg = SlidingWindow {
            keys: [8, 16, 24, 48][(seed % 4) as usize],
            slide: [200, 400, 1 << 40][(seed / 4 % 3) as usize],
            open: [3, 5, 8][(seed / 12 % 3) as usize],
            dirty: true,
        };
        let events = sliding_window_events(cfg, seed, 1_500);
        assert_eq!(common::retired_reads(&events), 0, "seed {seed}");
        let run = |enabled: bool, interval: u64| {
            let mut c = OnlineChecker::with_gc(GcConfig { enabled, interval });
            c.set_provenance(true);
            let mut found: Vec<String> = events
                .iter()
                .filter_map(|e| c.ingest(e))
                .map(|v| finding(&v))
                .collect();
            found.push(finding(&c.finish()));
            found
        };
        let exact = run(false, 1);
        cycles += exact.iter().filter(|f| f.contains(" through T")).count();
        for interval in [1, 7, 64] {
            assert_eq!(
                run(true, interval),
                exact,
                "seed {seed}, interval {interval}"
            );
        }
    }
    assert!(cycles >= 100, "only {cycles} G2 witnesses name an edge");
}

/// Collection changes what the checker holds and nothing it finds: on
/// the stream fixtures whose ids never come round again, on 520
/// generated sliding-window streams, clean and dirty (none with a
/// retired read), and on 25 of them again with one reader open from
/// the first event to after the last, which pins the watermark
/// (`gc_work_bound`'s `stream-pinned`), checkers collecting at
/// intervals 1, 7 and 64 say
/// every verdict line the exact checker (`GcConfig { enabled: false }`)
/// says, but for `pruned` and `live_txns`. (`reused_ids` is left out:
/// there a `b1` while the checker still holds a finished T1 continues
/// that T1, and which rows are held is what collection decides.)
#[test]
fn collection_changes_no_finding() {
    use common::{sliding_window_events, SlidingWindow};

    let findings = |events: &[Event], gc: GcConfig| -> Vec<String> {
        let mut c = OnlineChecker::with_gc(gc);
        c.set_provenance(true);
        let mut lines: Vec<String> = events
            .iter()
            .filter_map(|e| c.ingest(e))
            .map(|v| v.to_json())
            .collect();
        lines.push(c.finish().to_json());
        lines.iter().map(|l| common::finding_of_line(l)).collect()
    };
    let exact = GcConfig {
        enabled: false,
        interval: 1,
    };
    let mut streams: Vec<(String, Vec<Event>)> = (common::STREAM_FIXTURES.iter())
        .filter(|&&name| name != "reused_ids")
        .map(|&name| (name.to_string(), fixture_events(name, exact)))
        .collect();
    for seed in 0..520u64 {
        let cfg = SlidingWindow {
            keys: [6, 16, 48, 256][(seed % 4) as usize],
            slide: [150, 400, 1 << 40][(seed / 4 % 3) as usize],
            open: [2, 4, 8, 16][(seed / 12 % 4) as usize],
            dirty: seed % 2 == 1,
        };
        let events = sliding_window_events(cfg, seed, 1_200);
        if seed % 21 == 0 {
            let pinned = TxnId(4_000_000_000);
            let mut held = vec![
                Event::Begin(pinned),
                Event::Read(ReadEvent {
                    txn: pinned,
                    object: ObjectId(0),
                    version: VersionId::INIT,
                    through_cursor: false,
                }),
            ];
            held.extend(events.iter().cloned());
            held.push(Event::Commit(pinned));
            streams.push((format!("{cfg:?} seed {seed}, pinned"), held));
        }
        streams.push((format!("{cfg:?} seed {seed}"), events));
    }
    for (what, events) in &streams {
        assert_eq!(common::retired_reads(events), 0, "{what}");
        let want = findings(events, exact);
        for interval in [1, 7, 64] {
            let gc = GcConfig {
                enabled: true,
                interval,
            };
            assert_eq!(findings(events, gc), want, "{what}, interval {interval}");
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
/// events: with `own` (a golden of this build), to the file's remaining
/// verdict lines and its final image, byte for byte; else (an image an
/// earlier build wrote) to the findings of its remaining verdict lines
/// — every field but `pruned` and `live_txns`, which count what the
/// collector holds ([`common::finding_of_line`]).
fn continue_from_images(name: &str, file: &str, own: bool) {
    let events = fixture_events(name, EAGER);
    let path = common::stream_data(file);
    let golden = std::fs::read_to_string(&path).expect("image file");
    let compared = |l: &str| {
        if l.starts_with("verdict ") && !own {
            Some(common::finding_of_line(l))
        } else {
            (l.starts_with("verdict ") || (own && l.starts_with("image@end "))).then(|| l.into())
        }
    };
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
            let got: Vec<String> = got.iter().filter_map(|l| compared(l)).collect();
            let want: Vec<String> = lines[at + 1..].iter().filter_map(|l| compared(l)).collect();
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

/// `dirty_hot.lane0.image` is `dirty_hot`'s image golden as the build
/// before the G0 lane's removal wrote it: every image still carries a
/// write-dependency graph, at the last cut the only graph left, beside
/// a provenance map, in the `\x02` layout. Each restores (the graph
/// checked, then dropped, the map cleared once no graph is left) and
/// carries on to the same findings.
#[test]
fn images_with_a_g0_graph_restore_and_continue_to_the_same_verdicts() {
    continue_from_images("dirty_hot", "dirty_hot.lane0.image", false);
}

/// Restores each image in `file`, an image golden an earlier build
/// wrote, beside this build's golden image at the same cut of fixture
/// `name`, and feeds both the rest of the stream at interval 1. After
/// every event — each followed by a collection pass — the two find the
/// same and their G1c and G2 graphs hold as many edges; by the end, as
/// many nodes. An earlier build's image holds rows this build has let
/// go (its next pass releases them) and graphs with closed sources
/// still in them (its next pass peels them), but for a node brought in
/// only by an edge out of a closed transaction (which this build drops):
/// it has no edge, and leaves once the watermark passes it.
fn tracks_this_builds_state(name: &str, file: &str) {
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        return; // the current golden is being rewritten under this test's feet
    }
    let events = fixture_events(name, EAGER);
    let read = |file: &str| std::fs::read_to_string(common::stream_data(file)).expect(file);
    let (old_text, new_text) = (read(file), read(&format!("{name}.image.golden")));
    let (old, new) = (images(&old_text), images(&new_text));
    assert_eq!(old.len(), new.len());
    for ((cut, image), (at, want)) in old.into_iter().zip(new) {
        assert_eq!(cut, at);
        let Ok(cut) = cut.parse::<usize>() else {
            continue; // the final image: no events left to feed
        };
        let mut got = OnlineChecker::restore(&image).expect("the image restores");
        let mut want = OnlineChecker::restore(&want).expect("the golden image restores");
        let finding = |v: adya_online::Verdict| common::finding_of_line(&v.to_json());
        for (i, e) in events[cut..].iter().enumerate() {
            let (g, w) = (got.ingest(e), want.ingest(e));
            assert_eq!(
                g.map(finding),
                w.map(finding),
                "{file}: image@{cut}, event {i}: verdict"
            );
            let [g, w] = [&got, &want].map(|c| c.cycle_graphs().map(|g| g.unwrap_or((0, 0))));
            let fits = g.iter().zip(&w).all(|(g, w)| g.1 == w.1 && g.0 >= w.0);
            assert!(
                fits,
                "{file}: image@{cut}, event {i}: graphs {g:?}, want {w:?}"
            );
        }
        assert_eq!(finding(got.finish()), finding(want.finish()));
        assert_eq!(
            got.cycle_graphs(),
            want.cycle_graphs(),
            "{file}: image@{cut}"
        );
    }
}

/// `clean_window.g1c.image` is `clean_window`'s image golden as the
/// build before G1c's graph was shed wrote it: the stream is strict
/// 2PL, so no read is ever parked, yet every image holds a G1c graph
/// beside G2's. `clean_window.unpeeled.image` is the golden of the last
/// build before the peel, whose G2 graph still holds every closed
/// source. Each image of either restores (a G1c graph checked, then
/// shed) and carries on to the same findings, and after the next pass
/// holds graphs of the size this build's own golden image at the cut
/// leads to ([`tracks_this_builds_state`]).
#[test]
fn images_with_a_g1c_graph_and_nothing_parked_restore_to_this_builds_state() {
    continue_from_images("clean_window", "clean_window.g1c.image", false);
    continue_from_images("clean_window", "clean_window.unpeeled.image", false);
    tracks_this_builds_state("clean_window", "clean_window.g1c.image");
    tracks_this_builds_state("clean_window", "clean_window.unpeeled.image");
}

/// G1c's graph, shed while no read is parked, held to the graph fed on
/// every commit that it replaced (`set_g1c_eager`). Over seeded streams
/// with rare dirty reads — a read is parked now and then, the graph is
/// shed in between, and G1c fires late in the stream — at GC interval 1
/// and 64, with provenance on, every verdict line and every
/// `cycle_dot` are the same bytes, the final verdict too, but for
/// `pruned` and `live_txns`: a transaction leaves the tables only once
/// no graph holds it, and the eager graph holds more. The sample
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
                let finding = |v: adya_online::Verdict| {
                    (common::finding_of_line(&v.to_json()), v.cycle_dot())
                };
                assert_eq!(
                    v.map(finding),
                    eager.ingest(e).map(finding),
                    "seed {seed}, interval {interval}: verdict at event {i}"
                );
                let nodes = |c: &OnlineChecker| c.cycle_graphs()[0].map(|(nodes, _)| nodes);
                shed |= nodes(&lazy) < nodes(&eager);
            }
            assert_eq!(
                common::finding_of_line(&lazy.finish().to_json()),
                common::finding_of_line(&eager.finish().to_json()),
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
