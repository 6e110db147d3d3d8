//! The durable per-session store: a segmented binary event log plus
//! periodic whole-session snapshots, with compaction keyed off the
//! snapshot horizon — the *cadence policy* over a
//! [`SessionDir`], which owns the file layout, the three ways a file
//! changes, their sync policy and their replication (see [`dir`] for
//! the directory diagram and durability model).
//!
//! A segment is named by the index of its first event record. A
//! snapshot freezes the [`StreamFeed`]'s checker and parser after
//! its named record count *and remembers the exact byte offset in the
//! open segment*, so recovery is `restore(snapshot) + replay from that
//! byte` — no rescan of already-consumed records. Every closed segment
//! whose records all precede the snapshot horizon is deleted right
//! after the snapshot lands (the open segment never is); because the
//! checker snapshot serializes the *post-GC* state, the watermark GC
//! is what bounds both the snapshot size and, through this horizon,
//! the bytes the log retains.
//!
//! The name side-log exists because the binary event log stores
//! resolved [`ObjectId`]s: replaying the tail
//! rebuilds the parser's write counters, but the name→id interning
//! that future *text* tokens depend on has to be persisted separately.
//! It is folded into compaction: each `names-<base>.log` holds the
//! names of ids `base..`, and because a snapshot's serialized parser
//! already carries every name interned before it, the side-log rotates
//! to a fresh empty `names-<interned>.log` at snapshot time. The older
//! files are deleted by the first snapshot whose compaction has taken
//! `seg-0` — until then recovery may have to replay from record 0
//! without a snapshot, and needs every name — so a session that cycles
//! object names forever keeps, past its first segment, at most one
//! snapshot interval of names on disk. (Legacy `names.log` files are
//! read as `base = 0` and migrate to the rotated scheme with the
//! others.)
//!
//! Under the default [`FsyncPolicy::Interval`] the snapshot is the
//! durability barrier: the open segment and name log are synced just
//! before it is written, so a snapshot never outlives log bytes it
//! claims to cover.

use std::io;
use std::path::Path;

use adya_history::{Event, ObjectId};
use adya_online::{
    encode_record, wire, EventLogReader, GcConfig, LogError, OnlineChecker, StreamFeed, LOG_MAGIC,
};

use crate::dir::{self, FileName, FsyncPolicy, SessionDir};
use crate::replica::LogPublisher;
use crate::verdict_log::VerdictLog;

/// First 8 bytes of every session snapshot container this build writes
/// (a [`wire::seal`]ed payload): its verdict window is fixed-width
/// facts.
pub const SNAP_MAGIC: [u8; 8] = *b"ADYASRV\x02";

/// The magic of the snapshots earlier builds wrote, whose verdict window
/// is the lines themselves. They still restore.
pub const SNAP_MAGIC_LINES: [u8; 8] = *b"ADYASRV\x01";

/// How a session snapshot's verdict window is written.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SnapWindow {
    /// [`SNAP_MAGIC`]: fixed-width facts.
    Facts,
    /// [`SNAP_MAGIC_LINES`]: the lines.
    Lines,
}

/// The one place a session snapshot's magic is recognised: the window
/// layout and the payload of a sealed container with either magic whose
/// length and checksum hold; `None` otherwise. Cheap — nothing inside
/// is decoded — so a mirror's `SessionDir::heal` asks it too.
pub(crate) fn open_snapshot(bytes: &[u8]) -> Option<(SnapWindow, &[u8])> {
    [
        (SNAP_MAGIC, SnapWindow::Facts),
        (SNAP_MAGIC_LINES, SnapWindow::Lines),
    ]
    .into_iter()
    .find_map(|(magic, window)| Some((window, wire::open(&magic, bytes)?)))
}

/// Rotation, snapshot cadence and sync policy for a [`SessionLog`].
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Start a new segment after this many event records.
    pub rotate_events: u64,
    /// Write a snapshot (and compact) every this many event records.
    pub snapshot_every: u64,
    /// Explicit-fsync policy.
    pub fsync: FsyncPolicy,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            rotate_events: 4096,
            snapshot_every: 1024,
            fsync: FsyncPolicy::Interval,
        }
    }
}

/// Failure while recovering a session directory.
#[derive(Debug)]
pub enum RecoverError {
    /// Filesystem trouble.
    Io(io::Error),
    /// The directory's contents cannot be trusted: mid-file log
    /// corruption, an unusable snapshot chain, or a broken segment
    /// chain. Recovery refuses to guess.
    Corrupt(String),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "session recovery i/o: {e}"),
            RecoverError::Corrupt(m) => write!(f, "session store corrupt: {m}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> RecoverError {
        RecoverError::Io(e)
    }
}

/// The open, writable durable store of one session.
#[derive(Debug)]
pub struct SessionLog {
    dir: SessionDir,
    cfg: LogConfig,
    /// The record being appended ([`encode_record`]), reused across
    /// appends; its bytes reach the disk (and the replication hub)
    /// through `dir`.
    rec: Vec<u8>,
    /// The open name side-log (a legacy `names.log` until its first
    /// rotation).
    names: FileName,
    /// Total durable event records across all segments.
    records: u64,
    /// First record index of the open segment.
    seg_start: u64,
    /// Records at the last snapshot (0 when none yet).
    last_snap: u64,
}

/// Everything [`SessionLog::recover`] reconstructs from a session
/// directory.
pub struct Recovered {
    /// The reopened, append-ready log.
    pub log: SessionLog,
    /// Parser and checker state as of the last durable record.
    pub feed: StreamFeed,
    /// Total durable commit verdicts: `verdict_log.count()`.
    pub verdicts: u64,
    /// The session's verdicts: the snapshot's window (the snapshot's
    /// count is its mark) followed by the verdicts of the replayed
    /// tail.
    pub verdict_log: VerdictLog,
    /// `Some(detail)` when the open segment was mended: a torn tail
    /// truncated at its exact `good_len` byte offset, or a header whose
    /// write a kill cut short written whole.
    pub truncated: Option<String>,
    /// The final verdict line when the session was closed in a
    /// previous life.
    pub closed: Option<String>,
    /// Events replayed from the log tail (after the snapshot).
    pub tail_events: u64,
}

impl SessionLog {
    /// Creates a brand-new session directory. Fails if it already
    /// exists — `hello` on an existing session must be a `resume`.
    /// When `repl` is set, every durable byte is also published to the
    /// replication hub.
    pub fn create(
        dir: &Path,
        cfg: LogConfig,
        repl: Option<LogPublisher>,
    ) -> io::Result<SessionLog> {
        let mut dir = SessionDir::create(dir, cfg.fsync, repl)?;
        dir.append(FileName::Segment(0), &LOG_MAGIC, 0, None)?;
        dir.put(FileName::Names(0), b"")?;
        Ok(SessionLog {
            dir,
            cfg,
            rec: Vec::new(),
            names: FileName::Names(0),
            records: 0,
            seg_start: 0,
            last_snap: 0,
        })
    }

    /// Total durable event records.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records in the open (not yet rotated) segment.
    pub fn open_segment_records(&self) -> u64 {
        self.records - self.seg_start
    }

    /// Appends newly interned object names (id order) to the name
    /// side-log. Call *before* appending the events that use them.
    pub fn append_names<'a>(&mut self, names: impl Iterator<Item = &'a str>) -> io::Result<()> {
        let mut buf = String::new();
        for n in names {
            buf.push_str(n);
            buf.push('\n');
        }
        if !buf.is_empty() {
            self.dir.append(self.names, buf.as_bytes(), 0, None)?;
        }
        Ok(())
    }

    /// Appends one event durably (reaches the OS before returning),
    /// rotating the segment afterwards when the cadence says so.
    pub fn append(&mut self, ev: &Event) -> io::Result<()> {
        self.append_traced(ev, None)
    }

    /// [`append`](SessionLog::append) carrying the event's trace id
    /// (sampled events only): the replication mutation for this record
    /// then propagates the id to followers.
    pub fn append_traced(&mut self, ev: &Event, trace: Option<u64>) -> io::Result<()> {
        self.rec.clear();
        encode_record(&mut self.rec, ev);
        self.dir
            .append(FileName::Segment(self.seg_start), &self.rec, 1, trace)?;
        self.records += 1;
        if self.records - self.seg_start >= self.cfg.rotate_events {
            self.seg_start = self.records;
            self.dir
                .append(FileName::Segment(self.seg_start), &LOG_MAGIC, 0, None)?;
        }
        Ok(())
    }

    /// True when the snapshot cadence is due.
    pub fn snapshot_due(&self) -> bool {
        self.records - self.last_snap >= self.cfg.snapshot_every
    }

    /// Writes a snapshot of `feed`'s checker and parser (which must
    /// reflect exactly the `records` appended so far) and compacts: every
    /// older snapshot and every fully-covered closed segment is
    /// deleted. Returns the number of segments removed.
    ///
    /// `verdicts` (the session's whole verdict log, replay window
    /// included) rides inside the snapshot so recovery can re-send
    /// verdicts from *before* the snapshot — closing the race where
    /// the snapshot lands but the verdicts that triggered it never
    /// reach the client.
    pub fn write_snapshot(
        &mut self,
        feed: &StreamFeed,
        verdicts: &VerdictLog,
    ) -> io::Result<usize> {
        // Sized first, then written into a buffer of exactly that size:
        // the image is allocated once, and no part of it is copied.
        let at = Horizon {
            records: self.records,
            seg_start: self.seg_start,
            seg_off: self.dir.len(FileName::Segment(self.seg_start))?,
        };
        let mut size = wire::Enc::<wire::ByteCount>::default();
        write_image(&mut size, at, feed, verdicts);
        let mut e = wire::Enc::with_capacity(size.written());
        write_image(&mut e, at, feed, verdicts);
        debug_assert_eq!(
            e.written(),
            size.written(),
            "the sizing pass and the image disagree"
        );
        let buf = e.into_bytes();

        // The open files catch up with stable storage first, so the
        // snapshot never outlives log bytes it claims to cover.
        self.dir.sync()?;
        self.dir.put(FileName::Snapshot(self.records), &buf)?;
        self.last_snap = self.records;
        let removed = self.compact()?;
        self.rotate_names(feed.parser().interned() as u64)?;
        Ok(removed)
    }

    /// Deletes snapshots older than the newest and closed segments
    /// fully covered by it. The open segment is never deleted.
    fn compact(&mut self) -> io::Result<usize> {
        let (segs, snaps) = segments_and_snapshots(&self.dir.list()?);
        let Some((&newest, older)) = snaps.split_last() else {
            return Ok(0);
        };
        for &n in older {
            self.dir.remove(FileName::Snapshot(n))?;
        }
        let mut removed = 0;
        // A closed segment [start_i, start_{i+1}) is covered when its
        // records all precede the snapshot horizon.
        for pair in segs.windows(2) {
            if pair[1] <= newest {
                self.dir.remove(FileName::Segment(pair[0]))?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Folds the name side-log into compaction: the snapshot that just
    /// landed serializes a parser that already knows every name
    /// interned so far (`interned`), so the side-log rotates to a fresh
    /// empty `names-<interned>.log`. The older files go once `seg-0`
    /// has: until then a recovery that refuses every snapshot replays
    /// the log from record 0, and needs every name it used. This is
    /// what bounds the side-log for sessions that cycle object names
    /// forever: past the first segment, at most one snapshot interval
    /// of names is ever on disk.
    fn rotate_names(&mut self, interned: u64) -> io::Result<()> {
        let files = self.dir.list()?;
        if self.dir.len(self.names)? != 0 {
            self.names = FileName::Names(interned);
            self.dir.put(self.names, b"")?;
        }
        if files.iter().any(|&(f, _)| f == FileName::Segment(0)) {
            return Ok(());
        }
        for (old, _) in files {
            if old.is_names() && old != self.names {
                self.dir.remove(old)?;
            }
        }
        Ok(())
    }

    /// Marks the session closed: `final_line` (the `finish()` verdict)
    /// is durable and any later resume is refused with it.
    pub fn mark_closed(&mut self, final_line: &str) -> io::Result<()> {
        self.dir.put(FileName::Closed, final_line.as_bytes())
    }

    /// Reopens a session directory: newest valid snapshot restored, then
    /// replay of the log tail from the snapshot's exact byte offset. The
    /// revived checker/parser continue the stream with verdicts
    /// byte-identical to an uninterrupted run (the `adya-online`
    /// snapshot invariant, now per-session).
    ///
    /// It is also the one repair of a leader's directory. A writer
    /// killed mid-append tore at most the newest name log and segment,
    /// and never made its torn record durable (the client re-sends it),
    /// so recovery mends, in the bytes it reads anyway: a partial final
    /// name line, a torn final record (cut at its exact `good_len`), and
    /// a segment holding a strict prefix of [`LOG_MAGIC`] — killed in a
    /// rotation's header write, it holds no records and gets the rest.
    /// Damage anywhere else may sit over acknowledged records and is
    /// refused. The mends are made once nothing was, so a refused
    /// recovery cuts and publishes nothing (it sweeps only tmp files).
    pub fn recover(
        dir: &Path,
        cfg: LogConfig,
        gc: GcConfig,
        provenance: bool,
        repl: Option<LogPublisher>,
    ) -> Result<Recovered, RecoverError> {
        let mut dir = SessionDir::at(dir, cfg.fsync, repl);
        let files = dir.sweep()?;
        let (segs, snaps) = segments_and_snapshots(&files);
        let Some(&last_seg) = segs.last() else {
            return Err(RecoverError::Corrupt(
                "no log segments (not a session directory)".into(),
            ));
        };
        // The newest base is last.
        let open_names = files.iter().map(|&(f, _)| f).rfind(|f| f.is_names());
        let (mut mends, mut truncated) = (Vec::new(), None);

        // Newest decodable snapshot wins; damaged ones are skipped.
        let mut state = None;
        for &n in snaps.iter().rev() {
            if let Some(s) = decode_snapshot(&dir.read(FileName::Snapshot(n))?) {
                state = Some(s);
                break;
            }
        }
        let SnapState {
            at:
                Horizon {
                    records: snap_records,
                    seg_start: snap_seg,
                    seg_off: snap_off,
                },
            mut feed,
            mut verdict_log,
        } = match state {
            Some(s) => s,
            None => SnapState {
                at: Horizon {
                    records: 0,
                    seg_start: 0,
                    seg_off: LOG_MAGIC.len() as u64,
                },
                feed: {
                    let mut c = OnlineChecker::with_gc(gc);
                    c.set_provenance(provenance);
                    StreamFeed::new(c)
                },
                verdict_log: VerdictLog::default(),
            },
        };

        // Re-intern every name beyond the snapshot's table, in id
        // order, so post-recovery text tokens resolve identically.
        // Names live in base-offset side-log files; ids covered by the
        // snapshot's serialized table are skipped, and a gap between a
        // file's base and the next expected id means lost names —
        // recovery refuses to guess.
        let mut next = feed.parser().interned() as u64;
        // Ids the session ever interned: its name logs number them
        // densely from 0, each file from its base, even where a file
        // compacted away took its names into a snapshot recovery could
        // not use.
        let mut named = next;
        for &(file, _) in &files {
            let base = match file {
                FileName::LegacyNames => 0,
                FileName::Names(base) => base,
                _ => continue,
            };
            let mut bytes = dir.read(file)?;
            let good = dir::whole_lines(&bytes);
            if good < bytes.len() {
                // Only the newest name log had a writer.
                if Some(file) != open_names {
                    return Err(RecoverError::Corrupt(format!(
                        "{file}: partial final name line"
                    )));
                }
                bytes.truncate(good);
                mends.push(Mend::Cut(file, good as u64));
            }
            let text = std::str::from_utf8(&bytes)
                .map_err(|_| RecoverError::Corrupt(format!("{file} is not UTF-8")))?;
            named = named.max(base + text.lines().count() as u64);
            for (j, name) in text.lines().enumerate() {
                let id = base + j as u64;
                if id < next {
                    continue;
                }
                if id > next {
                    return Err(RecoverError::Corrupt(format!(
                        "name side-log gap: expected id {next}, {file} starts at {id}"
                    )));
                }
                let got = feed.intern(name);
                if u64::from(got.0) != id {
                    return Err(RecoverError::Corrupt(format!(
                        "{file} line {j} interned as id {} (expected {id})",
                        got.0
                    )));
                }
                next += 1;
            }
        }

        // Ids whose names went with a compacted name log into a
        // snapshot recovery refused: the records replayed below still
        // name them, so each takes a placeholder no token can spell (a
        // token never holds whitespace), and no new name takes its id.
        for id in next..named {
            let got = feed.intern(&format!("lost name {id}"));
            debug_assert_eq!(u64::from(got.0), id);
        }

        let mut records = snap_records;
        let mut tail_events = 0u64;

        if !segs.contains(&snap_seg) {
            return Err(RecoverError::Corrupt(format!(
                "snapshot references missing segment {}",
                FileName::Segment(snap_seg)
            )));
        }

        let header = LOG_MAGIC.len() as u64;
        for &start in &segs {
            if start < snap_seg {
                continue; // fully covered by the snapshot
            }
            let file = FileName::Segment(start);
            if start != snap_seg && start != records {
                return Err(RecoverError::Corrupt(format!(
                    "segment chain broken: {file} but {records} records replayed"
                )));
            }
            // The snapshot holds what its segment's records before
            // `snap_off` did: of that segment only the header and the
            // records after it are read, of any later one all of it.
            let from = if start == snap_seg { snap_off } else { header };
            let (buf, len) = dir.read_tail(file, from)?;
            let corrupt = |e: LogError| RecoverError::Corrupt(format!("{file}: {e}"));
            let open = start == last_seg;
            // A header write cut short, in a segment no snapshot claims
            // bytes of (`buf` is then the whole file).
            if open && from == header && len < header && LOG_MAGIC.starts_with(&buf) {
                truncated = Some(format!(
                    "{file} held {len} of its {header} header bytes; header restored"
                ));
                mends.push(Mend::Header(file, len as usize));
                continue;
            }
            let mut reader =
                EventLogReader::open_tail(&buf, from as usize, len as usize).map_err(corrupt)?;
            while let Some(ev) = reader.next() {
                let ev = match ev {
                    Ok(ev) => ev,
                    Err(LogError::TornTail { good_len, detail }) if open => {
                        truncated = Some(format!("{file} truncated to {good_len} bytes: {detail}"));
                        mends.push(Mend::Cut(file, good_len as u64));
                        break;
                    }
                    Err(e) => return Err(corrupt(e)),
                };
                // Names are logged before the events that use them.
                if let Some(o) = objects_of(&ev).find(|o| u64::from(o.0) >= named) {
                    return Err(RecoverError::Corrupt(format!(
                        "{file}: record {records} names {o}, which no name log interned"
                    )));
                }
                records += 1;
                tail_events += 1;
                if let Some(v) = feed.replay(&ev) {
                    verdict_log.push(&v, feed.checker());
                }
            }
        }

        let closed = match dir.read(FileName::Closed) {
            Ok(bytes) => Some(
                String::from_utf8(bytes)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
            ),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };

        // Nothing was refused.
        for mend in mends {
            match mend {
                Mend::Cut(file, len) => dir.cut(file, len)?,
                Mend::Header(file, have) => dir.append(file, &LOG_MAGIC[have..], 0, None)?,
            }
        }
        // No name log listed (a kill inside `create`): one is started.
        let names = match open_names {
            Some(found) => found,
            None => {
                dir.put(FileName::Names(next), b"")?;
                FileName::Names(next)
            }
        };
        Ok(Recovered {
            log: SessionLog {
                dir,
                cfg,
                rec: Vec::new(),
                names,
                records,
                seg_start: last_seg,
                last_snap: snap_records,
            },
            feed,
            verdicts: verdict_log.count(),
            verdict_log,
            truncated,
            closed,
            tail_events,
        })
    }
}

/// What [`SessionLog::recover`] mends in a file a killed writer had open.
enum Mend {
    /// Cut to its intact prefix, of this many bytes.
    Cut(FileName, u64),
    /// This many bytes of a header written: the rest is appended.
    Header(FileName, usize),
}

/// The objects `ev` names.
fn objects_of(ev: &Event) -> impl Iterator<Item = ObjectId> + '_ {
    let one = match ev {
        Event::Write(w) => Some(w.object),
        Event::Read(r) => Some(r.object),
        _ => None,
    };
    let vset = ev.as_predicate_read().into_iter().flat_map(|p| &p.vset);
    one.into_iter().chain(vset.map(|&(o, _)| o))
}

/// Segment starts and snapshot record counts in a directory listing,
/// each ascending.
fn segments_and_snapshots(files: &[(FileName, u64)]) -> (Vec<u64>, Vec<u64>) {
    let (mut segs, mut snaps) = (Vec::new(), Vec::new());
    for (file, _) in files {
        match file {
            FileName::Segment(n) => segs.push(*n),
            FileName::Snapshot(n) => snaps.push(*n),
            _ => {}
        }
    }
    (segs, snaps)
}

/// Where a snapshot's log replay resumes: after `records` records, at
/// byte `seg_off` of the segment that starts at record `seg_start`.
#[derive(Clone, Copy)]
struct Horizon {
    records: u64,
    seg_start: u64,
    seg_off: u64,
}

/// A session snapshot's image, written in place: [`SNAP_MAGIC`] and a
/// frame around `records`, the verdict count, `seg_start`, `seg_off`,
/// the parser's and the checker's images each behind its length, and
/// the verdict window — the bytes `wire::seal` makes of the same
/// payload built from the parts' own images.
fn write_image<S: wire::Sink>(
    e: &mut wire::Enc<S>,
    at: Horizon,
    feed: &StreamFeed,
    verdicts: &VerdictLog,
) {
    e.sealed(&SNAP_MAGIC, |e| {
        e.u64(at.records);
        verdicts.write_count(e);
        e.u64(at.seg_start);
        e.u64(at.seg_off);
        e.len_prefixed(|e| feed.parser().snapshot_into(e));
        e.len_prefixed(|e| feed.checker().snapshot_into(e));
        verdicts.write_window(e);
    });
}

struct SnapState {
    at: Horizon,
    feed: StreamFeed,
    verdict_log: VerdictLog,
}

/// Decodes a snapshot container; `None` when it cannot be trusted —
/// a verdict window that does not end at the stored verdict count, or
/// (`\x01`) a line its fact does not render back to, included.
fn decode_snapshot(bytes: &[u8]) -> Option<SnapState> {
    let (window, payload) = open_snapshot(bytes)?;
    let mut d = wire::Dec::new(payload);
    let records = d.u64().ok()?;
    let verdicts = d.u64().ok()?;
    let at = Horizon {
        records,
        seg_start: d.u64().ok()?,
        seg_off: d.u64().ok()?,
    };
    let n = d.len().ok()?;
    let parser = d.bytes(n).ok()?;
    let n = d.len().ok()?;
    let feed = StreamFeed::restore(parser, d.bytes(n).ok()?).ok()?;
    // The window ends the payload: each reader refuses trailing bytes.
    let verdict_log = match window {
        SnapWindow::Facts => VerdictLog::read(verdicts, &mut d)?,
        SnapWindow::Lines => VerdictLog::read_lines(verdicts, &mut d, feed.checker())?,
    };
    Some(SnapState {
        at,
        feed,
        verdict_log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::ObjectId;
    use std::fs::{self, OpenOptions};
    use std::io::Write as _;
    use std::path::PathBuf;

    struct Rig {
        log: SessionLog,
        feed: StreamFeed,
        verdicts: Vec<String>,
        window: VerdictLog,
    }

    impl Rig {
        fn create(dir: &Path, cfg: LogConfig) -> Rig {
            Rig {
                log: SessionLog::create(dir, cfg, None).unwrap(),
                feed: StreamFeed::new(OnlineChecker::new()),
                verdicts: Vec::new(),
                window: VerdictLog::default(),
            }
        }

        /// Mirrors `Session::apply_line`'s durability ordering.
        fn apply(&mut self, tokens: &str) {
            for tok in tokens.split_whitespace() {
                let known = self.feed.parser().interned();
                let ev = self.feed.parse(tok).unwrap();
                let parser = self.feed.parser();
                let fresh =
                    (known..parser.interned()).map(|i| parser.object_name(ObjectId(i as u32)));
                self.log.append_names(fresh).unwrap();
                self.log.append(&ev).unwrap();
                if let Some(v) = self.feed.ingest(&ev) {
                    self.window.push(&v, self.feed.checker());
                    self.verdicts.push(v.to_json());
                }
            }
        }

        fn snapshot(&mut self) -> usize {
            self.log.write_snapshot(&self.feed, &self.window).unwrap()
        }

        /// A `Session`'s snapshot (`park`: its park's), checked against
        /// [`nested_image`] of the state it freezes.
        fn checked_snapshot(&mut self, park: bool) {
            let want = nested_image(&mut self.log, &self.feed, &self.window);
            let (log, feed) = (&mut self.log, &self.feed);
            let write = |v: &VerdictLog| log.write_snapshot(feed, v).map(drop);
            if park {
                self.window.park(write).unwrap();
            } else {
                self.window.snapshot(write).unwrap();
            }
            let file = FileName::Snapshot(self.log.records());
            let got = self.log.dir.read(file).unwrap();
            assert!(got == want, "{file} is not the nested layout's image");
        }
    }

    /// A session snapshot as the build before wrote it: the parser's
    /// and the checker's images made on their own, copied behind their
    /// lengths into a payload, which `wire::seal` copies again.
    fn nested_image(log: &mut SessionLog, feed: &StreamFeed, verdicts: &VerdictLog) -> Vec<u8> {
        let mut e = wire::Enc::new();
        e.u64(log.records);
        verdicts.write_count(&mut e);
        e.u64(log.seg_start);
        e.u64(log.dir.len(FileName::Segment(log.seg_start)).unwrap());
        for part in [feed.parser().snapshot(), feed.checker().snapshot()] {
            e.len(part.len());
            e.bytes(&part);
        }
        verdicts.write_window(&mut e);
        wire::seal(&SNAP_MAGIC, &e.into_bytes())
    }

    /// A seeded stream over twelve keys, lines of one to six tokens, up
    /// to four transactions open: each reads the newest committed
    /// version of a key (or, `dirty`, another open transaction's write)
    /// and writes keys at most once each; `dirty` streams abort one
    /// transaction in four.
    fn generated(seed: u64, dirty: bool, txns: u32) -> Vec<String> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let key = |k: usize| format!("k{}", (b'a' + k as u8) as char);
        let mut committed: Vec<Option<u32>> = vec![None; 12];
        // Open transactions and the keys each has written.
        let mut open: Vec<(u32, Vec<usize>)> = Vec::new();
        let (mut began, mut tokens) = (0, Vec::new());
        while began < txns || !open.is_empty() {
            if began < txns && (open.len() < 2 || (open.len() < 4 && next(3) == 0)) {
                began += 1;
                tokens.push(format!("b{began}"));
                open.push((began, Vec::new()));
                continue;
            }
            let i = next(open.len());
            let t = open[i].0;
            let k = next(12);
            match next(8) {
                0..=2 => {
                    let dirty_from = open.iter().find(|(w, ks)| *w != t && ks.contains(&k));
                    let from = match dirty_from {
                        Some(&(w, _)) if dirty => Some(w),
                        _ => committed[k],
                    };
                    tokens.push(match from {
                        Some(w) => format!("r{t}({}{w})", key(k)),
                        None => format!("r{t}({}init)", key(k)),
                    });
                }
                3..=5 if !open[i].1.contains(&k) => {
                    tokens.push(format!("w{t}({},{})", key(k), next(100)));
                    open[i].1.push(k);
                }
                _ => {
                    let (t, ks) = open.swap_remove(i);
                    if dirty && next(4) == 0 {
                        tokens.push(format!("a{t}"));
                    } else {
                        tokens.push(format!("c{t}"));
                        ks.into_iter().for_each(|k| committed[k] = Some(t));
                    }
                }
            }
        }
        let mut lines = Vec::new();
        while !tokens.is_empty() {
            let n = (1 + next(6)).min(tokens.len());
            lines.push(tokens.drain(..n).collect::<Vec<_>>().join(" "));
        }
        lines
    }

    fn files(dir: &Path) -> Vec<String> {
        let mut v: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        v.sort();
        v
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adya-serve-log-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const NINE: &str = "b1 w1(x,1) c1 b2 w2(y,1) c2 b3 r3(x1) c3";

    /// Every snapshot a session takes — on the cadence, at a park, and
    /// straight after a recovery and on after it — is the image the
    /// nested copies made, byte for byte, on clean and dirty streams
    /// with provenance on and off.
    #[test]
    fn snapshots_are_the_nested_layouts_image() {
        let cfg = LogConfig {
            rotate_events: 96,
            snapshot_every: 40,
            ..LogConfig::default()
        };
        for (dirty, provenance) in [(false, false), (false, true), (true, false), (true, true)] {
            let dir = tmp(&format!("nested-{dirty}-{provenance}"));
            let lines = generated(3 + dirty as u64, dirty, 240);
            let (before, after) = lines.split_at(lines.len() / 2);
            let mut checker = OnlineChecker::new();
            checker.set_provenance(provenance);
            let mut rig = Rig {
                feed: StreamFeed::new(checker),
                ..Rig::create(&dir, cfg)
            };
            let mut taken = 0;
            for line in before {
                rig.apply(line);
                if rig.log.snapshot_due() {
                    rig.checked_snapshot(false);
                    taken += 1;
                }
            }
            rig.checked_snapshot(true);
            let aborted_reads = rig.verdicts.iter().any(|v| v.contains("\"G1a\""));
            assert_eq!(aborted_reads, dirty, "G1a fires on the dirty stream alone");
            drop(rig);

            let r = SessionLog::recover(&dir, cfg, GcConfig::default(), provenance, None).unwrap();
            let mut rig = Rig {
                log: r.log,
                feed: r.feed,
                verdicts: Vec::new(),
                window: r.verdict_log,
            };
            rig.checked_snapshot(false);
            for line in after {
                rig.apply(line);
                if rig.log.snapshot_due() {
                    rig.checked_snapshot(false);
                    taken += 1;
                }
            }
            assert!(taken >= 12, "{taken} snapshots on the cadence");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn rotation_starts_a_new_segment_on_the_record_cadence() {
        let dir = tmp("rotate");
        let mut rig = Rig::create(
            &dir,
            LogConfig {
                rotate_events: 4,
                snapshot_every: u64::MAX,
                ..LogConfig::default()
            },
        );
        rig.apply(NINE); // 9 records: 4 + 4 + 1
        assert_eq!(rig.log.records(), 9);
        assert_eq!(rig.log.open_segment_records(), 1);
        assert_eq!(
            files(&dir),
            vec!["names-0.log", "seg-0.log", "seg-4.log", "seg-8.log"]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_deletes_exactly_the_covered_closed_segments() {
        let dir = tmp("compact");
        let cfg = LogConfig {
            rotate_events: 4,
            snapshot_every: u64::MAX,
            ..LogConfig::default()
        };
        let mut rig = Rig::create(&dir, cfg);
        rig.apply("b1 w1(x,1) c1 b2 w2(y,1)"); // 5 records: seg-0 closed, seg-4 open
        let removed = rig.snapshot(); // horizon 5 covers seg-0 (records 0..4)
        assert_eq!(removed, 1);
        // The name side-log rotated too: x and y are inside the
        // snapshot's parser, so names-0.log gave way to an empty
        // names-2.log.
        assert_eq!(files(&dir), vec!["names-2.log", "seg-4.log", "snap-5.snap"]);

        // A boundary snapshot: horizon exactly at a closed segment's
        // end. seg-4 holds records 4..8 and rotates at 8, so after 8
        // records the snapshot at 8 must delete it but keep the brand-
        // new empty seg-8.
        rig.apply("c2 b3 r3(x1)"); // records 6,7,8 → rotation at 8
        let removed = rig.snapshot();
        assert_eq!(removed, 1);
        assert_eq!(files(&dir), vec!["names-2.log", "seg-8.log", "snap-8.snap"]);

        // Older snapshots go too; the open segment never does.
        rig.apply("c3");
        let removed = rig.snapshot();
        assert_eq!(removed, 0);
        assert_eq!(files(&dir), vec!["names-2.log", "seg-8.log", "snap-9.snap"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn name_side_log_is_bounded_when_names_cycle() {
        let dir = tmp("names-bound");
        let cfg = LogConfig {
            rotate_events: 8,
            snapshot_every: 6,
            ..LogConfig::default()
        };
        let mut rig = Rig::create(&dir, cfg);
        let mut reference = Rig::create(&tmp("names-bound-ref"), cfg);
        // One stable object plus a session that never reuses a name:
        // ~640 bytes of names total, snapshotting every 6 records.
        // Write targets are digit-free; spell the index in letters.
        let key = |i: u32| {
            let spelled: String = format!("{i:04}")
                .bytes()
                .map(|b| (b'a' + (b - b'0')) as char)
                .collect();
            format!("key-{spelled}-cycled")
        };
        let mut stream = vec!["b1 w1(zz,1) c1".to_string()];
        for i in 0..40u32 {
            let t = i + 2;
            stream.push(format!("b{t} w{t}({},1) c{t}", key(i)));
        }
        for txn in &stream {
            rig.apply(txn);
            if rig.log.snapshot_due() {
                rig.snapshot();
            }
            reference.apply(txn);
        }
        assert_eq!(rig.feed.parser().interned(), 41);

        // Without folding, the side-log would hold all 41 names. With
        // it, exactly one file remains and it holds at most what came
        // after the last snapshot.
        let names: Vec<String> = files(&dir)
            .into_iter()
            .filter(|f| f.starts_with("names"))
            .collect();
        assert_eq!(names.len(), 1, "side-log not folded: {names:?}");
        let len = fs::metadata(dir.join(&names[0])).unwrap().len();
        assert!(len < 200, "side-log grew unbounded: {len} bytes");

        // Recovery re-interns from the rotated file and the continued
        // stream resolves both the oldest and the newest names with
        // verdicts byte-identical to an uninterrupted run.
        let before = rig.verdicts.clone();
        drop(rig);
        let r = SessionLog::recover(&dir, cfg, GcConfig::default(), false, None).unwrap();
        assert_eq!(r.verdicts, before.len() as u64);
        let mut rig2 = Rig {
            log: r.log,
            feed: r.feed,
            verdicts: Vec::new(),
            window: VerdictLog::default(),
        };
        reference.verdicts.clear();
        let cont = format!("b99 r99(zz1) w99({},2) w99(fresh,1) c99", key(39));
        rig2.apply(&cont);
        reference.apply(&cont);
        assert_eq!(rig2.verdicts, reference.verdicts);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_replays_the_tail_with_byte_identical_verdicts() {
        let dir = tmp("recover");
        let cfg = LogConfig {
            rotate_events: 3,
            snapshot_every: 4,
            ..LogConfig::default()
        };
        let mut rig = Rig::create(&dir, cfg);
        rig.apply(NINE);
        if rig.log.snapshot_due() {
            rig.snapshot();
        }
        let before = rig.verdicts.clone();
        let records = rig.log.records();
        drop(rig); // "kill": nothing flushed beyond what append wrote

        let r = SessionLog::recover(&dir, cfg, GcConfig::default(), false, None).unwrap();
        assert_eq!(r.log.records(), records);
        assert!(r.truncated.is_none());
        assert!(r.closed.is_none());
        // Verdicts replayed from the tail must be byte-identical to
        // the uninterrupted run's suffix.
        let base = r.verdict_log.base();
        assert_eq!(
            r.verdict_log
                .reply(base, r.feed.checker(), |_| String::new())
                .unwrap(),
            before[base as usize..],
            "resumed verdict stream diverged"
        );

        // The revived parser still resolves old names: continuing the
        // stream with a text token against object `x` must produce the
        // same verdict an uninterrupted checker would.
        let mut rig2 = Rig {
            log: r.log,
            feed: r.feed,
            verdicts: Vec::new(),
            window: VerdictLog::default(),
        };
        let mut reference = Rig::create(&tmp("recover-ref"), cfg);
        reference.apply(NINE);
        reference.verdicts.clear();
        rig2.apply("b4 r4(x1) w4(x,2) c4");
        reference.apply("b4 r4(x1) w4(x,2) c4");
        assert_eq!(rig2.verdicts, reference.verdicts);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_the_exact_good_byte() {
        let dir = tmp("torn");
        let cfg = LogConfig {
            rotate_events: u64::MAX,
            snapshot_every: u64::MAX,
            ..LogConfig::default()
        };
        let mut rig = Rig::create(&dir, cfg);
        rig.apply("b1 w1(x,1) c1 b2 w2(x,2)");
        drop(rig);

        let path = dir.join("seg-0.log");
        let good_len = fs::metadata(&path).unwrap().len();
        // A record header promising more payload than exists: the torn
        // write of a killed process.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[40, 0, 0, 0, 0xde, 0xad]).unwrap();
        drop(f);

        let r = SessionLog::recover(&dir, cfg, GcConfig::default(), false, None).unwrap();
        assert_eq!(r.log.records(), 5);
        let detail = r.truncated.expect("torn tail must be reported");
        assert!(
            detail.contains(&format!("truncated to {good_len} bytes")),
            "{detail}"
        );
        assert_eq!(fs::metadata(&path).unwrap().len(), good_len);

        // The healed log accepts appends and recovers cleanly again.
        let mut rig = Rig {
            log: r.log,
            feed: r.feed,
            verdicts: Vec::new(),
            window: VerdictLog::default(),
        };
        rig.apply("c2");
        assert_eq!(rig.verdicts.len(), 1);
        drop(rig);
        let r = SessionLog::recover(&dir, cfg, GcConfig::default(), false, None).unwrap();
        assert_eq!(r.log.records(), 6);
        assert!(r.truncated.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    fn contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let read = |name: String| {
            let bytes = fs::read(dir.join(&name)).unwrap();
            (name, bytes)
        };
        files(dir).into_iter().map(read).collect()
    }

    /// What a leader's recovery mends is only what a writer killed
    /// mid-append can have left in the files it had open: a partial
    /// final line of the newest name log, and here the open segment's
    /// partial header (`torn_tail_is_truncated_at_the_exact_good_byte`
    /// has its torn record). It sweeps a stray tmp file, and leaves an
    /// undecodable snapshot and the `closed` marker as they are; a second
    /// recovery mends nothing. Damage in a file no writer had open —
    /// mid-file in a closed segment, a torn closed segment, a partial
    /// line in an older name log — is refused, and a refused recovery
    /// leaves every byte of every session file, the open files' tears
    /// included.
    #[test]
    fn recovery_mends_only_what_a_killed_writer_left_and_is_idempotent() {
        let cfg = LogConfig {
            rotate_events: 2,
            snapshot_every: u64::MAX,
            ..LogConfig::default()
        };
        let recover = |dir: &Path| SessionLog::recover(dir, cfg, GcConfig::default(), false, None);
        let damaged = |tag: &str| {
            let dir = tmp(&format!("mend-{tag}"));
            let mut rig = Rig::create(&dir, cfg);
            rig.apply("b1 w1(x,1) c1 b2 w2(y,1) c2"); // seg-0, 2, 4 closed; seg-6 open
            drop(rig);
            fs::write(dir.join("names-2.log"), b"z\nhal").unwrap();
            fs::write(dir.join("seg-6.log"), &LOG_MAGIC[..3]).unwrap();
            fs::write(dir.join("snap-1.snap"), b"not a sealed container").unwrap();
            fs::write(dir.join("closed"), b"no newline").unwrap();
            let before = contents(&dir);
            fs::write(dir.join(".put.tmp"), b"stray").unwrap();
            (dir, before)
        };

        let (dir, before) = damaged("kill");
        let r = recover(&dir).unwrap();
        assert_eq!(r.log.records(), 6);
        assert_eq!(r.closed.as_deref(), Some("no newline"));
        assert!(r.truncated.is_some_and(|d| d.contains("seg-6.log")));
        drop(r.log);
        let mended: Vec<_> = before
            .iter()
            .cloned()
            .map(|(name, bytes)| match name.as_str() {
                "names-2.log" => (name, b"z\n".to_vec()),
                "seg-6.log" => (name, LOG_MAGIC.to_vec()),
                _ => (name, bytes),
            })
            .collect();
        assert_eq!(contents(&dir), mended);
        assert!(
            !dir.join(".put.tmp").exists(),
            "the stray tmp file is swept"
        );
        let again = recover(&dir).unwrap();
        assert!(again.truncated.is_none());
        assert_eq!(contents(&dir), mended);
        fs::remove_dir_all(&dir).unwrap();

        type Damage = fn(&Path);
        let refused: [(&str, Damage); 3] = [
            ("seg-0.log", |dir| {
                let path = dir.join("seg-0.log");
                let mut bytes = fs::read(&path).unwrap();
                bytes[LOG_MAGIC.len() + wire::FRAME_HEADER] ^= 0xff;
                fs::write(&path, bytes).unwrap();
            }),
            ("seg-2.log", |dir| {
                let path = dir.join("seg-2.log");
                let mut f = OpenOptions::new().append(true).open(path).unwrap();
                f.write_all(&[9, 0, 0, 0, 1, 2]).unwrap();
            }),
            ("names-0.log", |dir| {
                let path = dir.join("names-0.log");
                let mut f = OpenOptions::new().append(true).open(path).unwrap();
                f.write_all(b"partial-nam").unwrap();
            }),
        ];
        for (file, damage) in refused {
            let (dir, _) = damaged(file);
            damage(&dir);
            let before = contents(&dir)
                .into_iter()
                .filter(|(n, _)| n != ".put.tmp")
                .collect::<Vec<_>>();
            match recover(&dir) {
                Err(RecoverError::Corrupt(m)) => assert!(m.contains(file), "{m}"),
                Err(e) => panic!("{file}: refused for the wrong reason: {e}"),
                Ok(_) => panic!("{file}: recovered"),
            }
            assert_eq!(contents(&dir), before, "{file}: a refused recovery cut");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A snapshot whose resume offset lies outside its segment — the
    /// checksum holds, the offset does not — is refused as corrupt,
    /// however far out the offset points.
    #[test]
    fn a_resume_offset_past_the_segment_is_corrupt() {
        let cfg = LogConfig {
            rotate_events: u64::MAX,
            snapshot_every: u64::MAX,
            ..LogConfig::default()
        };
        for off in [1_000, u64::MAX] {
            let dir = tmp(&format!("offset-{off}"));
            let mut rig = Rig::create(&dir, cfg);
            rig.apply(NINE);
            rig.snapshot();
            drop(rig);
            let path = dir.join(FileName::Snapshot(9).to_string());
            let bytes = fs::read(&path).unwrap();
            let mut payload = wire::open(&SNAP_MAGIC, &bytes).unwrap().to_vec();
            payload[24..32].copy_from_slice(&off.to_le_bytes()); // seg_off
            fs::write(&path, wire::seal(&SNAP_MAGIC, &payload)).unwrap();
            match SessionLog::recover(&dir, cfg, GcConfig::default(), false, None) {
                Err(RecoverError::Corrupt(m)) => assert!(m.contains("resume offset"), "{m}"),
                Err(e) => panic!("{e}"),
                Ok(_) => panic!("recovered from offset {off}"),
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn non_canonical_names_are_not_session_files() {
        let dir = tmp("noncanonical");
        let cfg = LogConfig {
            rotate_events: 4,
            snapshot_every: u64::MAX,
            ..LogConfig::default()
        };
        let mut rig = Rig::create(&dir, cfg);
        // Five records: seg-0 closed, seg-4 open.
        rig.apply("b1 w1(x,1) c1 b2 w2(y,1)");
        // `str::parse::<u64>` reads these as 5 and 9; the grammar does
        // not, so neither compaction nor recovery may count them.
        fs::write(dir.join("seg-+5.log"), b"not a segment").unwrap();
        fs::write(dir.join("snap-+9.snap"), b"not a snapshot").unwrap();
        fs::write(dir.join("names-05.log"), b"nor a name log\n").unwrap();
        assert_eq!(rig.snapshot(), 1, "only seg-0 is covered; seg-4 is open");
        assert_eq!(
            files(&dir),
            vec![
                "names-05.log",
                "names-2.log",
                "seg-+5.log",
                "seg-4.log",
                "snap-+9.snap",
                "snap-5.snap"
            ]
        );
        drop(rig);
        let r = SessionLog::recover(&dir, cfg, GcConfig::default(), false, None).unwrap();
        assert_eq!(r.log.records(), 5);
        assert_eq!(r.log.open_segment_records(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_names_log_recovers_and_migrates_once_seg_0_is_gone() {
        let dir = tmp("legacy-names");
        let cfg = LogConfig {
            rotate_events: 12,
            snapshot_every: u64::MAX,
            ..LogConfig::default()
        };
        let mut rig = Rig::create(&dir, cfg);
        rig.apply("b1 w1(x,1) c1 b2 w2(y,1) c2");
        drop(rig);
        // The pre-rotation layout: one un-numbered side-log from id 0.
        fs::copy(dir.join("names-0.log"), dir.join("names.log")).unwrap();
        fs::remove_file(dir.join("names-0.log")).unwrap();

        let r = SessionLog::recover(&dir, cfg, GcConfig::default(), false, None).unwrap();
        let mut rig = Rig {
            log: r.log,
            feed: r.feed,
            verdicts: Vec::new(),
            window: VerdictLog::default(),
        };
        // Old names resolve, new ones append to the legacy file…
        rig.apply("b3 r3(x1) w3(z,1) c3");
        assert_eq!(fs::read(dir.join("names.log")).unwrap(), b"x\ny\nz\n");
        let mut reference = Rig::create(&tmp("legacy-names-ref"), cfg);
        reference.apply("b1 w1(x,1) c1 b2 w2(y,1) c2");
        reference.verdicts.clear();
        reference.apply("b3 r3(x1) w3(z,1) c3");
        assert_eq!(rig.verdicts, reference.verdicts);
        // …until a snapshot rotates it; it stays while seg-0 does (a
        // recovery that refused the snapshot would replay from record
        // 0)…
        rig.snapshot();
        assert_eq!(
            files(&dir),
            vec!["names-3.log", "names.log", "seg-0.log", "snap-10.snap"]
        );
        // …and goes with the snapshot whose compaction takes seg-0, one
        // that interned nothing new included.
        rig.apply("b4 w4(x,2) c4"); // records 10..13, rotation at 12
        rig.snapshot();
        assert_eq!(
            files(&dir),
            vec!["names-3.log", "seg-12.log", "snap-13.snap"]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_without_any_snapshot_replays_from_zero() {
        let dir = tmp("nosnap");
        let cfg = LogConfig {
            rotate_events: 4,
            snapshot_every: u64::MAX,
            ..LogConfig::default()
        };
        let mut rig = Rig::create(&dir, cfg);
        rig.apply(NINE);
        let before = rig.verdicts.clone();
        drop(rig);
        let r = SessionLog::recover(&dir, cfg, GcConfig::default(), false, None).unwrap();
        let reply = r.verdict_log.reply(0, r.feed.checker(), |_| String::new());
        assert_eq!(reply.unwrap(), before);
        assert_eq!(r.tail_events, 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn closed_marker_survives_recovery() {
        let dir = tmp("closed");
        let cfg = LogConfig::default();
        let mut rig = Rig::create(&dir, cfg);
        rig.apply("b1 w1(x,1) c1");
        let fin = rig.feed.finish().to_json();
        rig.log.mark_closed(&fin).unwrap();
        drop(rig);
        let r = SessionLog::recover(&dir, cfg, GcConfig::default(), false, None).unwrap();
        assert_eq!(r.closed.as_deref(), Some(fin.as_str()));
        fs::remove_dir_all(&dir).unwrap();
    }
}
