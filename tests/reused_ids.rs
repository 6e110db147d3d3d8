//! `tests/data/stream/reused_ids.events`: a strict-2PL stream whose
//! sixteen transaction ids come round again, most of them after their
//! last holder was pruned. A parser that kept counting a pruned
//! transaction's writes numbered the next holder's versions from the
//! old count, and its reads of its own versions turned into false G1b.
//! Here the three ways text reaches a checker — `StreamFeed` (what
//! `adya-check --stream` runs), an `adya-serve` session, and a session
//! recovered after a kill — agree byte for byte with the uninterrupted
//! run, and a session snapshot written by a parser that never forgot
//! still resumes, to the verdicts a forgetting one gives. So do a parser
//! image and a session directory written by a build whose parser kept
//! each name as a shared `Arc<str>` (`clean_window.parser.image`,
//! `clean_window.session`): the name table's layout is not in its bytes.

use std::path::{Path, PathBuf};

use adya::history::ObjectId;
use adya::online::{wire, GcConfig, OnlineChecker, StreamFeed, StreamParser};
use adya::serve::log::SNAP_MAGIC_LINES;
use adya::serve::{
    FsyncPolicy, LogConfig, RecoverError, Session, SessionConfig, SessionDir, SessionLog,
};
use adya_faults::{TapCrashConfig, TapCrashPlane};

mod common;

fn fixture_tokens() -> Vec<String> {
    let text = common::stream_fixture("reused_ids");
    text.split_whitespace().map(str::to_string).collect()
}

/// The uninterrupted run: the verdict lines and the final line of
/// `tokens` through one `StreamFeed`, token by token.
fn through_the_feed(tokens: &[String], gc: GcConfig, provenance: bool) -> (Vec<String>, String) {
    let mut checker = OnlineChecker::with_gc(gc);
    checker.set_provenance(provenance);
    let mut feed = StreamFeed::new(checker);
    let mut verdicts = Vec::new();
    for tok in tokens {
        let ev = feed.parse(tok).expect("fixture token");
        if let Some(v) = feed.ingest(&ev) {
            verdicts.push(v.to_json());
        }
    }
    (verdicts, feed.finish().to_json())
}

fn session_config(gc: GcConfig, provenance: bool) -> SessionConfig {
    SessionConfig {
        log: LogConfig {
            rotate_events: 32,
            snapshot_every: 16,
            fsync: FsyncPolicy::Never,
        },
        gc,
        provenance,
    }
}

/// Applies `line` and returns its verdict lines.
fn apply(session: &mut Session, line: &str) -> Vec<String> {
    let tap = TapCrashPlane::new(TapCrashConfig::default());
    let out = session.apply_line(line, &tap).expect("apply");
    out.into_iter().map(|(_, v)| v).collect()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = common::data_dir(name);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

const EAGER: GcConfig = GcConfig {
    enabled: true,
    interval: 1,
};

#[test]
fn the_feed_a_session_and_a_recovered_session_agree() {
    let tokens = fixture_tokens();
    let (want, want_final) = through_the_feed(&tokens, EAGER, false);
    let cfg = session_config(EAGER, false);

    // The whole stream as one line, a pass after every event: a
    // transaction pruned mid-line is forgotten before the next token is
    // numbered.
    let dir = fresh_dir("reused-ids-one-line");
    let mut session = Session::create(&dir, "s", cfg, None).expect("create");
    assert_eq!(apply(&mut session, &tokens.join(" ")), want);
    assert_eq!(session.close().expect("close"), want_final);

    // Killed after every prefix, recovered, and carried on: the replayed
    // tail and the rest of the stream are the uninterrupted run's.
    for cut in 0..=tokens.len() {
        let dir = fresh_dir("reused-ids-kill");
        let mut session = Session::create(&dir, "s", cfg, None).expect("create");
        let mut got = apply(&mut session, &tokens[..cut].join(" "));
        drop(session); // a kill: the log holds what was appended
        let mut session = Session::recover(&dir, "s", cfg, None).expect("recover");
        let (_, durable, replay) = session.resume(got.len() as u64).expect("resume");
        assert_eq!((durable, replay.len()), (got.len() as u64, 0), "cut {cut}");
        got.extend(apply(&mut session, &tokens[cut..].join(" ")));
        assert_eq!(got, want, "cut {cut}");
        assert_eq!(session.close().expect("close"), want_final, "cut {cut}");
    }

    // And `adya-check --stream` (default GC, provenance on) printed
    // what a session so configured answers: its golden.
    let (lines, fin) = through_the_feed(&tokens, GcConfig::default(), true);
    let dir = fresh_dir("reused-ids-cli");
    let cfg = session_config(GcConfig::default(), true);
    let mut session = Session::create(&dir, "s", cfg, None).expect("create");
    assert_eq!(apply(&mut session, &tokens.join(" ")), lines);
    assert_eq!(session.close().expect("close"), fin);
    let golden = std::fs::read_to_string(common::stream_data("reused_ids.verdicts.golden"))
        .expect("verdicts golden");
    let printed: Vec<&str> = golden.lines().collect();
    assert_eq!(
        printed.split_last(),
        Some((&fin.as_str(), &lines_of(&lines)[..]))
    );
}

fn lines_of(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read fixture dir") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).expect("copy");
        }
    }
}

/// `reused_ids.never_forgot/s` is session `s` as a build whose parser
/// never forgot wrote it: the first 19 lines of the stream (119 events,
/// up to the first token the two builds number differently) under the
/// default configuration, then a snapshot. Its parser image still
/// counts for transactions its checker had pruned.
#[test]
fn a_session_written_by_a_never_forgetting_parser_resumes_to_the_forgetting_verdicts() {
    let cfg = SessionConfig {
        log: LogConfig {
            rotate_events: 1 << 20,
            snapshot_every: u64::MAX,
            fsync: FsyncPolicy::Never,
        },
        ..SessionConfig::default()
    };
    let fixture = common::stream_data("reused_ids.never_forgot");
    let image = std::fs::read(fixture.join("s/snap-119.snap")).expect("snapshot file");
    let payload = wire::open(&SNAP_MAGIC_LINES, &image).expect("sealed snapshot");
    let mut d = wire::Dec::new(payload);
    for _ in 0..4 {
        d.u64().expect("record, verdict and segment counts");
    }
    let n = d.len().expect("parser image length");
    let parser = StreamParser::restore(d.bytes(n).expect("parser image")).expect("restores");

    // It restores, and the counters of pruned transactions are gone.
    let dir = fresh_dir("reused-ids-never-forgot");
    copy_dir(&fixture, &dir);
    let r = SessionLog::recover(&dir.join("s"), cfg.log, cfg.gc, cfg.provenance, None)
        .expect("a never-forgetting parser's session recovers");
    let kept = r.feed.parser().counters();
    assert!(
        kept < parser.counters(),
        "{kept} of the image's {} counters kept",
        parser.counters()
    );
    assert!(kept <= 4 * r.feed.checker().live_txns());
    drop(r);

    // Carried on, it finds what a session that forgot all along does,
    // verdict for verdict, but for what the rows held decide: `pruned`
    // and `live_txns`, and here `committed` and `stale_refs` too — a
    // `b1` while the checker holds a finished T1 continues that T1, and
    // the image holds the rows its own build's rule kept.
    let text = common::stream_fixture("reused_ids");
    let lines: Vec<&str> = text.lines().collect();
    let (head, tail) = lines.split_at(19);
    let dir = fresh_dir("reused-ids-forgot-all-along");
    let mut fresh = Session::create(&dir, "s", cfg, None).expect("create");
    let mut want = Vec::new();
    for line in head {
        want.extend(apply(&mut fresh, line));
    }
    let have = want.len() as u64;
    want.clear();
    for line in tail {
        want.extend(apply(&mut fresh, line));
    }
    let dir = fresh_dir("reused-ids-never-forgot");
    copy_dir(&fixture, &dir);
    let mut resumed = Session::recover(&dir, "s", cfg, None).expect("recover");
    resumed
        .resume(have)
        .expect("resume where the writer left off");
    let mut got = Vec::new();
    for line in tail {
        got.extend(apply(&mut resumed, line));
    }
    got.push(resumed.close().expect("close"));
    want.push(fresh.close().expect("close"));
    let held = ["pruned", "live_txns", "committed", "stale_refs"];
    let findings = |lines: &[String]| -> Vec<String> {
        let lines = lines.iter();
        lines.map(|l| common::without_fields(l, &held)).collect()
    };
    assert_eq!(findings(&got), findings(&want));
    assert!(got.iter().all(|l| common::is_clean_verdict(l)), "{got:?}");
}

/// `clean_window.parser.image`: an earlier build's `StreamParser` image
/// after the first half of `clean_window`'s tokens. It restores to its
/// own bytes, this build writes the same image at that point, and the
/// restored parser reads the second half as one that read the whole
/// stream does — events, names and the final image.
#[test]
fn a_parser_image_an_earlier_build_wrote_restores_and_parses_on_byte_for_byte() {
    let text = common::stream_fixture("clean_window");
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let (head, tail) = tokens.split_at(tokens.len() / 2);
    let image = std::fs::read(common::stream_data("clean_window.parser.image")).expect("image");
    let mut restored = StreamParser::restore(&image).expect("an earlier build's image restores");
    assert_eq!(restored.snapshot(), image);
    let mut straight = StreamParser::new();
    for tok in head {
        straight.parse_token(tok).expect("fixture tokens parse");
    }
    assert_eq!(straight.snapshot(), image, "this build's image of the head");
    for tok in tail {
        assert_eq!(
            restored.parse_token(tok),
            straight.parse_token(tok),
            "{tok}"
        );
    }
    assert_eq!(restored.snapshot(), straight.snapshot());
    assert_eq!(restored.interned(), straight.interned());
    for o in (0..straight.interned() as u32).map(ObjectId) {
        assert_eq!(restored.object_name(o), straight.object_name(o));
    }
}

/// `clean_window.session/s`: session `s` as an earlier build wrote it —
/// the first 33 lines of `clean_window` (provenance on, a snapshot every
/// 96 events), then killed, leaving a snapshot with its parser image, a
/// segment and a names log. Recovered and carried on, it finds what an
/// uninterrupted session does: every field but `pruned` and
/// `live_txns`. Its checker image is the earlier build's, in the `\x02`
/// layout, whose tables still held the rows this build lets go and
/// whose G2 graph the transactions it peels (sanctioned image breaks),
/// and its parser image the counters of those rows; so the parser and
/// checker images are held to this build's in a directory this build
/// wrote and a kill left the same way.
#[test]
fn a_session_directory_an_earlier_build_wrote_resumes_byte_for_byte() {
    let cfg = SessionConfig {
        log: LogConfig {
            rotate_events: 64,
            snapshot_every: 96,
            fsync: FsyncPolicy::Never,
        },
        gc: GcConfig::default(),
        provenance: true,
    };
    let text = common::stream_fixture("clean_window");
    let lines: Vec<&str> = text.lines().collect();
    let (head, tail) = lines.split_at(33);
    let fixture = common::stream_data("clean_window.session");

    let mut checker = OnlineChecker::new();
    checker.set_provenance(true);
    let mut feed = StreamFeed::new(checker);
    for tok in head.iter().flat_map(|l| l.split_whitespace()) {
        let ev = feed.parse(tok).expect("fixture tokens parse");
        feed.ingest(&ev);
    }
    let dir = fresh_dir("clean-window-this-build");
    let mut killed = Session::create(&dir, "s", cfg, None).expect("create");
    for line in head {
        apply(&mut killed, line);
    }
    drop(killed); // a kill: the log holds what was appended
    let r = SessionLog::recover(&dir.join("s"), cfg.log, cfg.gc, cfg.provenance, None)
        .expect("this build's session recovers");
    assert_eq!(r.feed.parser().snapshot(), feed.parser().snapshot());
    assert_eq!(r.feed.checker().snapshot(), feed.checker().snapshot());
    drop(r);

    let dir = fresh_dir("clean-window-uninterrupted");
    let mut fresh = Session::create(&dir, "s", cfg, None).expect("create");
    let have: usize = head.iter().map(|l| apply(&mut fresh, l).len()).sum();
    let want: Vec<String> = tail.iter().flat_map(|l| apply(&mut fresh, l)).collect();
    let dir = fresh_dir("clean-window-earlier-build");
    copy_dir(&fixture, &dir);
    let mut resumed = Session::recover(&dir, "s", cfg, None).expect("recover");
    let (_, durable, replay) = resumed.resume(have as u64).expect("resume");
    assert_eq!((durable, replay.len()), (have as u64, 0));
    let got: Vec<String> = tail.iter().flat_map(|l| apply(&mut resumed, l)).collect();
    let findings = |lines: &[String]| -> Vec<String> {
        lines.iter().map(|l| common::finding_of_line(l)).collect()
    };
    assert_eq!(findings(&got), findings(&want));
    assert_eq!(
        common::finding_of_line(&resumed.close().expect("close")),
        common::finding_of_line(&fresh.close().expect("close"))
    );
}

/// An earlier build's session snapshot (`SNAP_MAGIC_LINES`) taken apart
/// at its verdict window: the payload before the window, the window's
/// base, and its lines as that build wrote them.
fn lines_window(image: &[u8]) -> (Vec<u8>, u64, Vec<String>) {
    let payload = wire::open(&SNAP_MAGIC_LINES, image).expect("an earlier build's snapshot");
    let mut d = wire::Dec::new(payload);
    for _ in 0..4 {
        d.u64().expect("record, verdict and segment counts");
    }
    for _ in 0..2 {
        let n = d.len().expect("image length");
        d.bytes(n).expect("parser and checker images");
    }
    let head = payload[..payload.len() - d.remaining()].to_vec();
    let base = d.u64().expect("window base");
    let n = d.len().expect("window length");
    let lines = (0..n).map(|_| d.str().expect("a window line")).collect();
    assert_eq!(d.remaining(), 0, "the window ends the payload");
    (head, base, lines)
}

/// `lines_window`'s parts sealed again, as that build sealed them.
fn seal_lines(head: &[u8], base: u64, lines: &[String]) -> Vec<u8> {
    let mut e = wire::Enc::new();
    e.bytes(head);
    e.u64(base);
    e.len(lines.len());
    lines.iter().for_each(|l| e.str(l));
    wire::seal(&SNAP_MAGIC_LINES, &e.into_bytes())
}

/// The session directories earlier builds wrote keep their verdict
/// window as lines. This build reads each line back into its fact and
/// keeps the fact only if it renders, through the snapshot's own
/// checker, to the line byte for byte: a resume re-sends the window
/// exactly as the earlier build wrote it. A line that does not render
/// back makes the snapshot undecodable; a follower's `heal` keeps such
/// a snapshot, since its container is sound.
#[test]
fn an_earlier_builds_line_window_re_sends_byte_for_byte_and_a_changed_line_is_refused() {
    let cfg = SessionConfig {
        log: LogConfig {
            rotate_events: 1 << 20,
            snapshot_every: u64::MAX,
            fsync: FsyncPolicy::Never,
        },
        ..SessionConfig::default()
    };
    let fixtures = [
        ("clean_window.session", "snap-193.snap"),
        ("reused_ids.never_forgot", "snap-119.snap"),
    ];
    for (fixture, snap) in fixtures {
        let image = std::fs::read(common::stream_data(fixture).join("s").join(snap)).expect("snap");
        let (head, base, lines) = lines_window(&image);
        assert!(!lines.is_empty(), "{fixture}: a window to re-send");

        let dir = fresh_dir(&format!("lines-window-{fixture}"));
        copy_dir(&common::stream_data(fixture), &dir);
        let mut s = Session::recover(&dir, "s", cfg, None).expect("recovers");
        let (_, durable, replay) = s.resume(base).expect("resume at the window's base");
        assert_eq!(replay.len() as u64, durable - base, "{fixture}");
        assert_eq!(
            replay.lines().take(lines.len()).collect::<Vec<_>>(),
            lines,
            "{fixture}: the window as written"
        );
        drop(s);

        // A follower's heal checks the container, and keeps it.
        let mut mirror = SessionDir::mirror(&dir.join("s"), FsyncPolicy::Never).expect("mirror");
        mirror.heal().expect("heal");
        let kept = std::fs::read(dir.join("s").join(snap)).expect("heal kept the snapshot");
        assert_eq!(kept, image, "{fixture}");

        // Re-sealed as written, it still restores from the snapshot;
        // with one digit of one line changed, it does not. The digit is
        // the level's: `strongest_ansi` follows from `fired`, so the
        // changed line is no line its fact renders to. (A changed count
        // is a different fact, which only the checksum guards.)
        let at = lines.len() / 2;
        let mut changed = lines.clone();
        changed[at] = changed[at].replacen("\"PL-3\"", "\"PL-2\"", 1);
        assert_ne!(changed[at], lines[at], "{fixture}: a PL-3 line");
        for (window, decodes) in [(&lines, true), (&changed, false)] {
            let dir = fresh_dir(&format!("lines-window-{fixture}-{decodes}"));
            copy_dir(&common::stream_data(fixture), &dir);
            std::fs::write(dir.join("s").join(snap), seal_lines(&head, base, window))
                .expect("re-seal");
            let r = SessionLog::recover(&dir.join("s"), cfg.log, cfg.gc, cfg.provenance, None);
            // Without the snapshot, recovery replays from record 0 —
            // or refuses a directory whose first segment and names the
            // snapshot had covered are gone (`clean_window.session`).
            match (r, decodes) {
                (Ok(r), true) => assert_eq!(r.verdict_log.base(), base, "{fixture}"),
                (Ok(r), false) => assert_eq!(r.tail_events, r.log.records(), "{fixture}"),
                (Err(RecoverError::Corrupt(_)), false) => {}
                (Err(e), _) => panic!("{fixture}: {e}"),
            }
        }
    }
}
