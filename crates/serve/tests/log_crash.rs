//! Seeded crash-point property test of [`SessionLog`]: a random token
//! stream under random (small) rotation and snapshot cadences is cut
//! at a random point — optionally with a torn partial record appended,
//! or right after a rotation with the new segment's header cut short:
//! the disk images a kill -9 mid-append leaves — and recovery must
//! round-trip: exact record count, replayed verdict tail byte-identical
//! to the uninterrupted run, the torn tail truncated at its exact good
//! byte (the header written whole), and the continued stream (including
//! a second recovery) indistinguishable from one that never crashed.

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use adya_faults::{TapCrashConfig, TapCrashPlane};
use adya_history::ObjectId;
use adya_online::{wire, GcConfig, OnlineChecker, StreamFeed, LOG_MAGIC};
use adya_serve::verdict_log::FACT_BYTES;
use adya_serve::{
    log, FileName, FsyncPolicy, LogConfig, RecoverError, Session, SessionConfig, SessionLog,
    VerdictLog,
};
use proptest::prelude::*;

/// A deterministic, version-correct token stream: interleaved begins,
/// reads of the last committed writer, writes and commits over five
/// objects (digit-free names — write targets must not look versioned).
fn token_stream(txns: u64) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut last_writer = [None::<u64>; 5];
    let obj = |i: usize| (b'a' + i as u8) as char;
    for t in 1..=txns {
        let wobj = (t as usize * 7) % 5;
        let robj = (t as usize * 3) % 5;
        tokens.push(format!("b{t}"));
        if let Some(w) = last_writer[robj] {
            tokens.push(format!("r{t}(k{}{w})", obj(robj)));
        }
        tokens.push(format!("w{t}(k{},{t})", obj(wobj)));
        tokens.push(format!("c{t}"));
        last_writer[wobj] = Some(t);
    }
    tokens
}

/// The live side of a session: mirrors `Session::apply_line`'s
/// durability ordering (names, then the event, snapshot on cadence).
struct Rig {
    log: SessionLog,
    feed: StreamFeed,
    verdicts: Vec<String>,
    window: VerdictLog,
}

impl Rig {
    fn create(dir: &Path, cfg: LogConfig) -> Rig {
        Rig {
            log: SessionLog::create(dir, cfg, None).expect("create"),
            feed: StreamFeed::new(OnlineChecker::with_gc(GcConfig::default())),
            verdicts: Vec::new(),
            window: VerdictLog::default(),
        }
    }

    /// One token, and the snapshot its cadence asks for.
    fn apply(&mut self, tok: &str) {
        self.append(tok);
        if self.log.snapshot_due() {
            self.log
                .write_snapshot(&self.feed, &self.window)
                .expect("snapshot");
        }
    }

    /// One token, up to the snapshot: where a kill inside the append
    /// leaves the session.
    fn append(&mut self, tok: &str) {
        let known = self.feed.parser().interned();
        let ev = self.feed.parse(tok).expect("valid token");
        let parser = self.feed.parser();
        let fresh = (known..parser.interned()).map(|i| parser.object_name(ObjectId(i as u32)));
        self.log.append_names(fresh).expect("append names");
        self.log.append(&ev).expect("append event");
        if let Some(v) = self.feed.ingest(&ev) {
            self.window.push(&v, self.feed.checker());
            self.verdicts.push(v.to_json());
        }
    }
}

/// The open (highest-numbered) segment file in a session directory.
fn open_segment(dir: &Path) -> PathBuf {
    let listing = adya_serve::dir::list(dir).expect("list session dir");
    let open = listing
        .iter()
        .rfind(|(f, _)| matches!(f, FileName::Segment(_)))
        .expect("at least one segment");
    dir.join(open.0.to_string())
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adya-log-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A rewrite of a snapshot's verdict window: `(window_base, facts)`,
/// each fact its fixed-width bytes.
type Rewrite = fn(u64, Vec<Vec<u8>>) -> (u64, Vec<Vec<u8>>);

/// Re-seals `dir`'s one snapshot with a valid CRC after `rewrite`
/// changed the verdict window at its end; the stored count is kept.
fn tamper_window(dir: &Path, rewrite: Rewrite) {
    let listing = adya_serve::dir::list(dir).expect("list session dir");
    let (snap, _) = listing
        .iter()
        .find(|(f, _)| matches!(f, FileName::Snapshot(_)))
        .expect("one snapshot");
    let path = dir.join(snap.to_string());
    let bytes = fs::read(&path).expect("read snapshot");
    let mut d = wire::Dec::new(wire::open(&log::SNAP_MAGIC, &bytes).expect("sealed"));
    let mut e = wire::Enc::new();
    for _ in 0..4 {
        e.u64(d.u64().unwrap()); // records, verdicts, segment, offset
    }
    for _ in 0..2 {
        let n = d.len().unwrap(); // parser, checker
        e.len(n);
        e.bytes(d.bytes(n).unwrap());
    }
    let base = d.u64().unwrap();
    let facts = (0..d.u64().unwrap())
        .map(|_| d.bytes(FACT_BYTES).unwrap().to_vec())
        .collect();
    let (base, facts) = rewrite(base, facts);
    e.u64(base);
    e.len(facts.len());
    facts.iter().for_each(|f| e.bytes(f));
    fs::write(&path, wire::seal(&log::SNAP_MAGIC, &e.into_bytes())).expect("re-seal");
}

/// A snapshot whose stored verdict count disagrees with its window is
/// refused like any undecodable one: recovery, a resume and the next
/// snapshot neither panic nor re-send anything but the session's own
/// verdicts.
#[test]
fn a_snapshot_whose_count_disagrees_with_its_window_is_refused() {
    let tap = TapCrashPlane::new(TapCrashConfig::default());
    let cfg = SessionConfig::default();
    let tampers: [(&str, Rewrite); 2] = [
        ("emptied", |base, _| (base, Vec::new())),
        ("base-above-count", |_, facts| (7, facts)),
    ];
    for (tag, rewrite) in tampers {
        let data = tmp(&format!("tampered-{tag}"));
        let mut s = Session::create(&data, "s", cfg, None).expect("create");
        let mut want = Vec::new();
        for i in 1..=6 {
            for (_, line) in s
                .apply_line(&format!("b{i} w{i}(k) c{i}"), &tap)
                .expect("apply")
            {
                want.push(line);
            }
        }
        assert_eq!(want.len(), 6);
        s.snapshot().expect("snapshot");
        drop(s);
        tamper_window(&data.join("s"), rewrite);

        let mut s = Session::recover(&data, "s", cfg, None).expect("recovers from the log");
        let (_, verdicts, replay) = s.resume(2).expect("resumes");
        assert_eq!(verdicts, 6, "{tag}");
        assert_eq!(replay, want[2..], "{tag}");
        s.snapshot().expect("snapshots again");
        fs::remove_dir_all(&data).ok();
    }
}

/// A snapshot rotates the name log, but the older one stays while
/// `seg-0` does: recovery that refuses every snapshot replays from
/// record 0, and still knows `k`. So T8 reads T6's `k` — the version
/// the uninterrupted session reads — not a version T6 never wrote of a
/// new object (a stale tick, where the older name log went with the
/// snapshot).
#[test]
fn a_refused_snapshot_leaves_recovery_its_names() {
    let tap = TapCrashPlane::new(TapCrashConfig::default());
    let cfg = SessionConfig::default();
    let data = tmp("kept-names");
    let mut s = Session::create(&data, "s", cfg, None).expect("create");
    for i in 1..=6 {
        s.apply_line(&format!("b{i} w{i}(k) c{i}"), &tap)
            .expect("apply");
    }
    s.snapshot().expect("snapshot");
    drop(s);
    tamper_window(&data.join("s"), |base, _| (base, Vec::new()));

    let mut s = Session::recover(&data, "s", cfg, None).expect("recovers from the log");
    let lines = s
        .apply_line("b8 r8(k6) c8", &tap)
        .expect("apply after recovery");
    let [(_, c8)] = &lines[..] else {
        panic!("one verdict: {lines:?}")
    };
    assert!(c8.contains("\"txn\": 8,"), "{c8}");
    assert!(c8.contains("\"stale_refs\": 0,"), "{c8}");
    let names = data.join("s").join("names-0.log");
    assert!(names.exists(), "kept beside seg-0");
    fs::remove_dir_all(&data).ok();
}

/// Recovery that refuses every snapshot, in a directory whose older
/// name log an earlier build deleted with the snapshot, replays records
/// naming objects whose names it no longer has: a name a later token
/// brings in gets an id of its own, not one of theirs. Here the
/// replayed `k` is object 0, with T1..T6's versions; were `m` given 0
/// too, T7's read of `m`'s initial version would be a read of a version
/// T1 superseded before T7 began — a retired read, a stale tick —
/// rather than of a fresh object's.
#[test]
fn a_recovery_that_lost_its_names_gives_a_new_name_an_id_of_its_own() {
    let tap = TapCrashPlane::new(TapCrashConfig::default());
    let cfg = SessionConfig::default();
    let data = tmp("lost-names");
    let mut s = Session::create(&data, "s", cfg, None).expect("create");
    for i in 1..=6 {
        s.apply_line(&format!("b{i} w{i}(k) c{i}"), &tap)
            .expect("apply");
    }
    s.snapshot().expect("snapshot");
    drop(s);
    // What an earlier build left: the older name log went with the
    // snapshot, though `seg-0` stayed.
    fs::remove_file(data.join("s").join("names-0.log")).expect("the older name log");
    tamper_window(&data.join("s"), |base, _| (base, Vec::new()));

    let mut s = Session::recover(&data, "s", cfg, None).expect("recovers from the log");
    let lines = s
        .apply_line("b7 r7(minit) w7(m) c7", &tap)
        .expect("apply after recovery");
    let [(_, c7)] = &lines[..] else {
        panic!("one verdict: {lines:?}")
    };
    assert!(c7.contains("\"txn\": 7,"), "{c7}");
    assert!(c7.contains("\"stale_refs\": 0,"), "{c7}");
    fs::remove_dir_all(&data).ok();
}

/// Mid-file damage in a closed segment is no torn write: no writer had
/// the file open, so recovery, which replays that segment, refuses the
/// session, and a refused recovery cuts nothing: the file keeps every
/// byte.
#[test]
fn mid_file_damage_in_a_closed_segment_is_left_and_refused() {
    let tap = TapCrashPlane::new(TapCrashConfig::default());
    let cfg = SessionConfig {
        log: LogConfig {
            rotate_events: 8,
            snapshot_every: u64::MAX,
            fsync: FsyncPolicy::Never,
        },
        ..SessionConfig::default()
    };
    let data = tmp("closed-damage");
    let mut s = Session::create(&data, "s", cfg, None).expect("create");
    for i in 1..=6 {
        s.apply_line(&format!("b{i} w{i}(k) c{i}"), &tap)
            .expect("apply");
    }
    drop(s); // a kill
    let seg = data.join("s").join("seg-0.log");
    assert_ne!(open_segment(&data.join("s")), seg, "seg-0 is closed");
    let mut bytes = fs::read(&seg).expect("seg-0");
    let mid = (LOG_MAGIC.len() + bytes.len()) / 2;
    bytes[mid] ^= 0xff;
    fs::write(&seg, &bytes).expect("damage seg-0");

    match Session::recover(&data, "s", cfg, None) {
        Err(RecoverError::Corrupt(detail)) => assert!(detail.contains("seg-0.log"), "{detail}"),
        Err(e) => panic!("refused for the wrong reason: {e}"),
        Ok(_) => panic!("a damaged closed segment recovered"),
    }
    assert_eq!(fs::read(&seg).expect("seg-0"), bytes, "left byte for byte");
    fs::remove_dir_all(&data).ok();
}

/// A kill inside a rotation's header write leaves the new segment with
/// none or part of its 8-byte header. It holds no records: recovery
/// writes the header whole, replays the four records of `seg-0`, and
/// the session goes on in `seg-4` — through a second recovery too.
#[test]
fn a_kill_inside_a_rotations_header_write_recovers() {
    let cfg = LogConfig {
        rotate_events: 4,
        snapshot_every: u64::MAX,
        fsync: FsyncPolicy::Never,
    };
    for written in [0, 3] {
        let dir = tmp(&format!("rotation-header-{written}"));
        let mut rig = Rig::create(&dir, cfg);
        for tok in ["b1", "w1(k,1)", "c1", "b2"] {
            rig.apply(tok);
        }
        drop(rig);
        let seg = dir.join("seg-4.log");
        assert_eq!(fs::read(&seg).expect("seg-4"), LOG_MAGIC, "rotated");
        fs::write(&seg, &LOG_MAGIC[..written]).expect("cut the header short");

        let r = SessionLog::recover(&dir, cfg, GcConfig::default(), false, None)
            .unwrap_or_else(|e| panic!("{written} header bytes: {e}"));
        assert_eq!(r.log.records(), 4);
        let notice = r.truncated.as_deref().expect("the repair is reported");
        assert!(notice.contains("seg-4.log"), "{notice}");
        assert_eq!(fs::read(&seg).expect("seg-4"), LOG_MAGIC, "header restored");

        let mut rig = Rig {
            log: r.log,
            feed: r.feed,
            verdicts: Vec::new(),
            window: r.verdict_log,
        };
        rig.apply("w2(k,2)");
        drop(rig);
        let r = SessionLog::recover(&dir, cfg, GcConfig::default(), false, None)
            .expect("second recovery");
        assert_eq!(r.log.records(), 5);
        assert_eq!(
            r.log.open_segment_records(),
            1,
            "the fifth record is in seg-4"
        );
        assert!(r.truncated.is_none(), "nothing left to mend");
        fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn crash_point_round_trips_rotation_compaction_and_torn_tails(
        rotate in 2u64..8,
        snapshot in 2u64..10,
        txns in 4u64..24,
        crash_frac in 0u64..1000,
        torn in 0usize..8,
        header in 0u64..32,
    ) {
        let cfg = LogConfig {
            rotate_events: rotate,
            snapshot_every: snapshot,
            ..LogConfig::default()
        };
        let tokens = token_stream(txns);
        let mut crash_at = 1 + (crash_frac as usize * (tokens.len() - 1)) / 1000;
        // In a quarter of the cases the kill comes inside the header write of the
        // rotation that the last record before it started (one token is
        // one record), so the snapshot its cadence asked for is never
        // taken, and the torn tail is that header, `header` bytes of it.
        let header = (header < 8).then_some(header);
        if header.is_some() {
            crash_at = crash_at.max(rotate as usize) / rotate as usize * rotate as usize;
        }
        let torn = if header.is_some() { 0 } else { torn };

        // The uninterrupted reference run.
        let mut reference = StreamFeed::new(OnlineChecker::with_gc(GcConfig::default()));
        let mut ref_verdicts = Vec::new();
        for tok in &tokens {
            let ev = reference.parse(tok).expect("token");
            if let Some(v) = reference.ingest(&ev) {
                ref_verdicts.push(v.to_json());
            }
        }
        let ref_final = reference.finish().to_json();

        // Live run up to the crash point, then drop (kill): appends
        // reached the OS, nothing else is promised.
        let dir = tmp(&format!("{rotate}-{snapshot}-{txns}-{crash_frac}-{torn}-{header:?}"));
        let mut rig = Rig::create(&dir, cfg);
        for tok in &tokens[..crash_at - 1] {
            rig.apply(tok);
        }
        if header.is_some() {
            rig.append(&tokens[crash_at - 1]);
        } else {
            rig.apply(&tokens[crash_at - 1]);
        }
        let crash_verdicts = rig.verdicts.len();
        drop(rig);

        // A kill mid-append leaves a torn partial record: any 1..8
        // trailing bytes cannot form a complete [len][crc] header, so
        // the reader reports a torn tail, never corruption. A kill
        // inside a rotation's header write leaves 0..8 of its bytes.
        let seg = open_segment(&dir);
        let good_len = fs::metadata(&seg).expect("seg meta").len();
        if torn > 0 {
            let mut f = OpenOptions::new().append(true).open(&seg).expect("open seg");
            f.write_all(&vec![0xFF; torn]).expect("tear");
        }
        if let Some(written) = header {
            prop_assert_eq!(good_len, LOG_MAGIC.len() as u64, "a rotation just happened");
            let f = OpenOptions::new().write(true).open(&seg).expect("open seg");
            f.set_len(written).expect("cut the header short");
        }

        let r = SessionLog::recover(&dir, cfg, GcConfig::default(), false, None)
            .expect("recovery must succeed");
        prop_assert_eq!(r.log.records(), crash_at as u64, "exact record count");
        let mended = torn > 0 || header.is_some();
        prop_assert_eq!(r.truncated.is_some(), mended, "a repair reported iff one was made");
        prop_assert_eq!(
            fs::metadata(&seg).expect("seg meta").len(),
            good_len,
            "truncated at the exact good byte, or the header restored"
        );
        let base = r.verdict_log.base();
        let window = r.verdict_log.reply(base, r.feed.checker(), |_| String::new());
        let window = window.expect("the whole window");
        prop_assert_eq!(
            window.lines().collect::<Vec<_>>(),
            &ref_verdicts[base as usize..crash_verdicts],
            "replayed verdict tail diverged from the uninterrupted run"
        );

        // Continue the stream on the recovered state: the remaining
        // verdicts and the final line must be byte-identical.
        let mut rig = Rig {
            log: r.log,
            feed: r.feed,
            verdicts: ref_verdicts[..crash_verdicts].to_vec(),
            window: r.verdict_log,
        };
        for tok in &tokens[crash_at..] {
            rig.apply(tok);
        }
        prop_assert_eq!(&rig.verdicts, &ref_verdicts, "continued stream diverged");
        prop_assert_eq!(rig.feed.finish().to_json(), ref_final, "final verdict diverged");

        // And a second, clean recovery of the healed image still works.
        let records = rig.log.records();
        drop(rig);
        let r2 = SessionLog::recover(&dir, cfg, GcConfig::default(), false, None)
            .expect("second recovery");
        prop_assert_eq!(r2.log.records(), records);
        prop_assert!(r2.truncated.is_none(), "healed image must not re-report a tear");
        fs::remove_dir_all(&dir).ok();
    }
}
