//! The session directory: the one owner of a session's on-disk layout.
//!
//! ```text
//! <data>/<session>/
//!   seg-0.log        events 0..      (encode_record format)
//!   seg-4096.log     events 4096..   (rotated every rotate_events)
//!   snap-6000.snap   checker+parser state after event 6000
//!   names-17.log     interned object names from id 17, one per line
//!   names.log        the same from id 0, in pre-rotation layouts
//!   closed           final verdict line, present once closed
//! ```
//!
//! A snapshot starts a new name log at the next id; the older name logs
//! stay while `seg-0.log` does, since a recovery that refuses every
//! snapshot replays from record 0 and needs every name, and go with the
//! first snapshot after it (`SessionLog`'s cadence).
//!
//! [`FileName`] is that grammar — nothing else in the workspace spells
//! or parses a session file name — and [`SessionDir`] is the only code
//! that touches the files. It changes them in exactly three ways:
//! [`append`](SessionDir::append) at the end of a file,
//! [`put`](SessionDir::put) of a whole file (tmp + rename, so a reader
//! sees the old bytes or the new, never a mix; a [`cut`](SessionDir::cut)
//! to an intact prefix is one) and [`remove`](SessionDir::remove). Each
//! mutation applies the node's [`FsyncPolicy`] itself and, when a
//! [`LogPublisher`] is attached, tells the replication hub the session
//! changed; the hub's senders then ship what changed from the files
//! themselves, through a [`Pinned`] handle that reads a file's suffix.
//! [`SessionLog`](crate::log::SessionLog) decides *when* to mutate
//! (rotation, snapshot horizon, compaction) and what a leader's
//! recovery may cut; [`ReplicaSink`](crate::replica::ReplicaSink)
//! decides *whether* a peer's mutation may be applied (CRC, offsets),
//! and [`heal`](SessionDir::heal)s its mirror.
//!
//! Durability model: appends go straight to the OS (no userspace
//! buffering), so a killed *process* loses at most the record being
//! written — the torn tail recovery cuts at the exact intact byte.
//! Surviving an *OS* crash is what the policy tunes: `always` fsyncs
//! every append (window: the in-flight record); the default `interval`
//! fsyncs appended files at each [`sync`](SessionDir::sync) barrier — a
//! leader's snapshot, a follower's `repl_flush` — (window: everything
//! since the last barrier); `never` syncs nothing. Whole-file puts
//! (snapshots, which license deleting log segments, and the `closed`
//! marker) are synced before the rename that makes them current unless
//! the policy is `never`.
//!
//! [`LogPublisher`]: crate::replica::LogPublisher

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use adya_online::{EventLogReader, LOG_MAGIC};

use crate::log;
use crate::replica::LogPublisher;

/// Name of the scratch file every [`put`](SessionDir::put) writes
/// before renaming it into place.
const TMP: &str = ".put.tmp";

/// When a [`SessionDir`] explicitly syncs its writes to stable
/// storage. The durability window each setting leaves open (on a
/// leader or a follower applying replicated bytes) is documented in
/// the module header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every append: survives OS crash at per-record cost.
    Always,
    /// fsync appended files at each barrier (and every put): a process
    /// kill loses nothing, an OS crash loses at most one interval.
    #[default]
    Interval,
    /// No explicit syncs at all, snapshots included.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync` CLI value.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "interval" => Ok(FsyncPolicy::Interval),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "--fsync must be always|interval|never, got {other}"
            )),
        }
    }
}

/// A file a session directory may hold. Variants are declared — and
/// therefore ordered — in *ship order*: name side-logs, segments
/// ascending, snapshots, then the `closed` marker, so a peer killed at
/// any prefix of a listing-ordered transfer still holds a recoverable
/// directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FileName {
    /// `names.log`: the un-rotated name side-log of pre-compaction-
    /// folding layouts. Reads as base 0 and migrates to
    /// [`Names`](FileName::Names) at the first snapshot.
    LegacyNames,
    /// `names-<base>.log`: interned object names from id `base`.
    Names(u64),
    /// `seg-<start>.log`: event records from index `start`.
    Segment(u64),
    /// `snap-<records>.snap`: state after `records` event records.
    Snapshot(u64),
    /// `closed`: the final verdict line.
    Closed,
}

impl FileName {
    /// Reads a file name. Numbers are canonical `u64` decimals only —
    /// no sign, no leading zeros, no overflow — so `parse` and
    /// [`Display`](fmt::Display) are exact inverses and two spellings
    /// never name one file.
    pub fn parse(name: &str) -> Option<FileName> {
        let numbered = |prefix: &str, suffix: &str| {
            let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
            // `str::parse` alone would take a leading `+` or zeros.
            let canonical = digits == "0"
                || (!digits.starts_with('0') && digits.bytes().all(|b| b.is_ascii_digit()));
            canonical.then(|| digits.parse().ok())?
        };
        match name {
            "closed" => Some(FileName::Closed),
            "names.log" => Some(FileName::LegacyNames),
            _ => numbered("names-", ".log")
                .map(FileName::Names)
                .or_else(|| numbered("seg-", ".log").map(FileName::Segment))
                .or_else(|| numbered("snap-", ".snap").map(FileName::Snapshot)),
        }
    }

    /// `true` for a name side-log of either spelling.
    pub fn is_names(self) -> bool {
        matches!(self, FileName::LegacyNames | FileName::Names(_))
    }

    /// `true` for the append-only files (name side-logs and segments);
    /// snapshots and `closed` are whole-file replacements.
    pub fn is_append(self) -> bool {
        self.is_names() || matches!(self, FileName::Segment(_))
    }
}

impl fmt::Display for FileName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileName::LegacyNames => f.write_str("names.log"),
            FileName::Names(base) => write!(f, "names-{base}.log"),
            FileName::Segment(start) => write!(f, "seg-{start}.log"),
            FileName::Snapshot(records) => write!(f, "snap-{records}.snap"),
            FileName::Closed => f.write_str("closed"),
        }
    }
}

/// Every session file present in the directory at `path` with its byte
/// length, in ship order. Entries outside the [`FileName`] grammar are
/// not session files and are not listed.
pub fn list(path: &Path) -> io::Result<Vec<(FileName, u64)>> {
    scan(path, false)
}

/// [`list`], deleting on the way (`sweep`) every stray `*.tmp` file: a
/// put's scratch that a kill left before its rename.
fn scan(path: &Path, sweep: bool) -> io::Result<Vec<(FileName, u64)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(path)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        match FileName::parse(name) {
            Some(file) => out.push((file, entry.metadata()?.len())),
            None if sweep && name.ends_with(".tmp") => {
                let _ = fs::remove_file(entry.path());
            }
            None => {}
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Length of a name log's intact prefix: its bytes through the last
/// newline. A writer killed mid-append leaves a partial final line.
pub(crate) fn whole_lines(names: &[u8]) -> usize {
    names.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

/// A session file opened for shipping: its length when opened, and a
/// handle that keeps those bytes readable after the file is replaced
/// or removed.
#[derive(Debug)]
pub struct Pinned {
    /// The file.
    pub file: FileName,
    /// Its length when it was opened.
    pub len: u64,
    handle: File,
}

impl Pinned {
    /// Opens `file` in the directory at `path`.
    pub fn open(path: &Path, file: FileName) -> io::Result<Pinned> {
        let handle = File::open(path.join(file.to_string()))?;
        let len = handle.metadata()?.len();
        Ok(Pinned { file, len, handle })
    }

    /// The file's length now: an append-only file may have grown.
    pub fn len_now(&self) -> io::Result<u64> {
        Ok(self.handle.metadata()?.len())
    }

    /// Bytes `from..to` of the file.
    pub fn read(&self, from: u64, to: u64) -> io::Result<Vec<u8>> {
        let mut buf = vec![0; (to - from) as usize];
        let mut h = &self.handle;
        h.seek(SeekFrom::Start(from))?;
        h.read_exact(&mut buf)?;
        Ok(buf)
    }
}

/// An append-only file held open between appends.
#[derive(Debug)]
struct OpenFile {
    name: FileName,
    file: File,
    len: u64,
}

/// One session's directory on this node. See the module header.
#[derive(Debug)]
pub struct SessionDir {
    path: PathBuf,
    fsync: FsyncPolicy,
    publisher: Option<LogPublisher>,
    /// Append handles: at most one name side-log and one segment, the
    /// newest of each that was appended to.
    open: Vec<OpenFile>,
    /// Files appended to since the last [`sync`](SessionDir::sync)
    /// (tracked under [`FsyncPolicy::Interval`] only).
    dirty: Vec<FileName>,
}

impl SessionDir {
    /// A handle on the directory at `path`, touching nothing yet.
    pub fn at(path: &Path, fsync: FsyncPolicy, publisher: Option<LogPublisher>) -> SessionDir {
        SessionDir {
            path: path.to_path_buf(),
            fsync,
            publisher,
            open: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Creates a brand-new session directory; fails if it exists.
    pub fn create(
        path: &Path,
        fsync: FsyncPolicy,
        publisher: Option<LogPublisher>,
    ) -> io::Result<SessionDir> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::create_dir(path)?;
        Ok(SessionDir::at(path, fsync, publisher))
    }

    /// A follower's handle: the directory is created when absent,
    /// nothing is published onwards, and the leader it mirrors re-ships
    /// whatever [`heal`](SessionDir::heal) cuts away.
    pub fn mirror(path: &Path, fsync: FsyncPolicy) -> io::Result<SessionDir> {
        fs::create_dir_all(path)?;
        Ok(SessionDir::at(path, fsync, None))
    }

    /// [`list`] of this directory.
    pub fn list(&self) -> io::Result<Vec<(FileName, u64)>> {
        list(&self.path)
    }

    /// [`list`] of this directory, in the same pass deleting every
    /// stray `*.tmp` file a killed [`put`](SessionDir::put) left: what a
    /// recovery or a [`heal`](SessionDir::heal) starts from.
    pub(crate) fn sweep(&mut self) -> io::Result<Vec<(FileName, u64)>> {
        scan(&self.path, true)
    }

    /// The whole content of `file`.
    pub fn read(&self, file: FileName) -> io::Result<Vec<u8>> {
        fs::read(self.path.join(file.to_string()))
    }

    /// A segment's header ([`LOG_MAGIC`]'s length of bytes) followed by
    /// its bytes from `from` on, and the file's length: what a reader
    /// resuming at `from` needs, without the records between. (Past the
    /// end, the tail is empty.)
    pub fn read_tail(&self, file: FileName, from: u64) -> io::Result<(Vec<u8>, u64)> {
        let head = LOG_MAGIC.len() as u64;
        let mut f = File::open(self.path.join(file.to_string()))?;
        let len = f.metadata()?.len();
        let from = from.max(head);
        let mut buf = Vec::with_capacity((head + len.saturating_sub(from)) as usize);
        (&f).take(head).read_to_end(&mut buf)?;
        if from <= len {
            f.seek(SeekFrom::Start(from))?;
            f.read_to_end(&mut buf)?;
        }
        Ok((buf, len))
    }

    /// Byte length of an append-only file: the offset the next
    /// [`append`](SessionDir::append) to it lands at. An absent file
    /// is created empty.
    pub fn len(&mut self, file: FileName) -> io::Result<u64> {
        Ok(self.handle(file)?.len)
    }

    fn handle(&mut self, file: FileName) -> io::Result<&mut OpenFile> {
        if !file.is_append() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{file} is not appendable"),
            ));
        }
        // Newest last: the hot file is found first.
        let at = match self.open.iter().rposition(|o| o.name == file) {
            Some(at) => at,
            None => {
                let f = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.path.join(file.to_string()))?;
                let len = f.metadata()?.len();
                // A newer file of the same kind retires the older one.
                self.open.retain(|o| o.name.is_names() != file.is_names());
                self.open.push(OpenFile {
                    name: file,
                    file: f,
                    len,
                });
                self.open.len() - 1
            }
        };
        Ok(&mut self.open[at])
    }

    /// Appends `bytes` at the end of an append-only file. `records`
    /// (how many event records the bytes carry) and `trace` (the id of
    /// a sampled record) go to the publisher for lag accounting and
    /// provenance.
    pub fn append(
        &mut self,
        file: FileName,
        bytes: &[u8],
        records: u64,
        trace: Option<u64>,
    ) -> io::Result<()> {
        let fsync = self.fsync;
        let f = self.handle(file)?;
        f.file.write_all(bytes)?;
        f.len += bytes.len() as u64;
        let end = f.len;
        match fsync {
            FsyncPolicy::Always => f.file.sync_data()?,
            FsyncPolicy::Interval if !self.dirty.contains(&file) => self.dirty.push(file),
            _ => {}
        }
        if let Some(p) = &self.publisher {
            p.append(file, end, bytes.len(), records, trace);
        }
        Ok(())
    }

    /// Atomically replaces (or creates) `file` with `bytes`.
    pub fn put(&mut self, file: FileName, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path.join(TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            // An empty file has no bytes to lose.
            if self.fsync != FsyncPolicy::Never && !bytes.is_empty() {
                f.sync_all()?;
            }
        }
        fs::rename(&tmp, self.path.join(file.to_string()))?;
        // An open handle would keep appending to the replaced inode.
        self.open.retain(|o| o.name != file);
        if let Some(p) = &self.publisher {
            p.put(file, bytes.len());
        }
        Ok(())
    }

    /// Deletes `file`; a missing file is fine (never written here, or
    /// already removed by a replayed mutation). An append-only file is
    /// opened first and handed to the publisher, so a sender that has
    /// not shipped all of it can still read it.
    pub fn remove(&mut self, file: FileName) -> io::Result<()> {
        let last = match &self.publisher {
            Some(_) if file.is_append() => Pinned::open(&self.path, file).ok(),
            _ => None,
        };
        match fs::remove_file(self.path.join(file.to_string())) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        self.open.retain(|o| o.name != file);
        if let Some(p) = &self.publisher {
            p.remove(file, last);
        }
        Ok(())
    }

    /// Durability barrier: every file appended to since the last
    /// barrier reaches stable storage (under
    /// [`FsyncPolicy::Interval`]; `always` already synced each append
    /// and `never` promises nothing).
    pub fn sync(&mut self) -> io::Result<()> {
        for file in std::mem::take(&mut self.dirty) {
            let synced = match self.open.iter().find(|o| o.name == file) {
                Some(o) => o.file.sync_data(),
                None => File::open(self.path.join(file.to_string())).and_then(|f| f.sync_data()),
            };
            match synced {
                Ok(()) => {}
                // Compacted away since it was written.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Cuts `file` to its first `len` bytes: a [`put`](SessionDir::put)
    /// of that prefix, read back from the file, so a [`Pinned`] reader
    /// sees the old bytes or the new, never a mix, and a peer holding
    /// the cut bytes drops them too, or later appends would land after
    /// them.
    pub fn cut(&mut self, file: FileName, len: u64) -> io::Result<()> {
        let mut prefix = vec![0; len as usize];
        File::open(self.path.join(file.to_string()))?.read_exact(&mut prefix)?;
        self.put(file, &prefix)
    }

    /// Repairs a follower's [`mirror`](SessionDir::mirror): every
    /// append-only file is cut at its first undecodable byte (a bad or
    /// partial header cuts to nothing), a snapshot whose container does
    /// not validate is deleted and stray tmp files are swept — after
    /// which every listed length is a safe append offset. Its leader
    /// re-ships whatever was cut, so a mirror need not tell a torn write
    /// from damage over acknowledged records. A leader must, and its
    /// repair is [`SessionLog::recover`](crate::log::SessionLog::recover)'s.
    ///
    /// Idempotent; returns each file cut, with its length now.
    pub fn heal(&mut self) -> io::Result<Vec<(FileName, u64)>> {
        let mut healed = Vec::new();
        for (file, _) in self.sweep()? {
            if matches!(file, FileName::Snapshot(_)) {
                // Magic (either layout), declared length, CRC: cheap,
                // no decoding of the checker state inside.
                if log::open_snapshot(&self.read(file)?).is_none() {
                    self.remove(file)?;
                }
                continue;
            }
            if !file.is_append() {
                continue;
            }
            let bytes = self.read(file)?;
            let good = if file.is_names() {
                whole_lines(&bytes)
            } else {
                decodable(&bytes)
            } as u64;
            if good < bytes.len() as u64 {
                self.cut(file, good)?;
                healed.push((file, good));
            }
        }
        Ok(healed)
    }
}

/// Length of a segment's prefix that decodes: 0 without a whole header.
fn decodable(segment: &[u8]) -> usize {
    let Ok(mut reader) = EventLogReader::open(segment) else {
        return 0;
    };
    while let Some(Ok(_)) = reader.next() {}
    reader.offset()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::{Event, TxnId};
    use adya_online::wire;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adya-dir-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut v: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn grammar_is_canonical_decimal_only() {
        for (text, file) in [
            ("closed", FileName::Closed),
            ("names.log", FileName::LegacyNames),
            ("names-0.log", FileName::Names(0)),
            ("seg-4096.log", FileName::Segment(4096)),
            (
                "snap-18446744073709551615.snap",
                FileName::Snapshot(u64::MAX),
            ),
        ] {
            assert_eq!(FileName::parse(text), Some(file), "{text}");
            assert_eq!(file.to_string(), text);
        }
        for bad in [
            "",
            "seg-.log",
            "seg-+5.log",
            "seg--5.log",
            "seg-05.log",
            "seg-00.log",
            "seg-5.snap",
            "seg-5.log ",
            "seg-٥.log",
            "snap-18446744073709551616.snap",
            "seg-99999999999999999999999.log",
            "names-.log",
            "names-1.log.tmp",
            ".put.tmp",
            "../seg-0.log",
            "Closed",
        ] {
            assert_eq!(FileName::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn listing_is_in_ship_order() {
        let path = tmp("ship-order");
        let mut dir = SessionDir::create(&path, FsyncPolicy::Never, None).unwrap();
        for file in [
            FileName::Closed,
            FileName::Snapshot(7),
            FileName::Segment(10),
            FileName::Segment(9),
            FileName::Names(3),
            FileName::LegacyNames,
        ] {
            dir.put(file, b"x").unwrap();
        }
        fs::write(path.join("seg-+5.log"), b"not ours").unwrap();
        fs::write(path.join("notes.txt"), b"not ours").unwrap();
        let listed: Vec<FileName> = dir.list().unwrap().into_iter().map(|(f, _)| f).collect();
        assert_eq!(
            listed,
            vec![
                FileName::LegacyNames,
                FileName::Names(3),
                FileName::Segment(9),
                FileName::Segment(10),
                FileName::Snapshot(7),
                FileName::Closed,
            ]
        );
        fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn append_lands_at_the_end_of_an_appendable_file() {
        let path = tmp("append");
        let mut dir = SessionDir::create(&path, FsyncPolicy::Interval, None).unwrap();
        let seg = FileName::Segment(0);
        assert_eq!(dir.len(seg).unwrap(), 0);
        dir.append(seg, b"abc", 0, None).unwrap();
        dir.append(seg, b"def", 0, None).unwrap();
        assert_eq!(dir.len(seg).unwrap(), 6);
        let e = dir.append(FileName::Closed, b"x", 0, None).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        // A put replaces the inode; the next append sees the new file.
        dir.put(seg, b"ab").unwrap();
        assert_eq!(dir.len(seg).unwrap(), 2);
        dir.append(seg, b"c", 0, None).unwrap();
        dir.sync().unwrap();
        assert_eq!(dir.read(seg).unwrap(), b"abc");
        // A cut keeps a prefix the file holds, and appends resume at it.
        dir.cut(seg, 2).unwrap();
        let e = dir.cut(seg, 3).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        dir.append(seg, b"d", 0, None).unwrap();
        assert_eq!(dir.read(seg).unwrap(), b"abd");
        // Removal is idempotent and forgets the handle too.
        dir.remove(seg).unwrap();
        dir.remove(seg).unwrap();
        dir.sync().unwrap(); // a dirty file compacted away is fine
        assert_eq!(dir.len(seg).unwrap(), 0);
        assert!(!path.join(TMP).exists());
        fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn a_tail_read_skips_what_lies_between_the_head_and_the_offset() {
        let path = tmp("tail");
        let mut dir = SessionDir::create(&path, FsyncPolicy::Never, None).unwrap();
        let seg = FileName::Segment(0);
        dir.append(seg, b"HEADER--record-1|record-2|", 0, None)
            .unwrap();
        let tail = |from| dir.read_tail(seg, from).unwrap();
        assert_eq!(tail(17), (b"HEADER--record-2|".to_vec(), 26));
        assert_eq!(tail(8), (b"HEADER--record-1|record-2|".to_vec(), 26));
        assert_eq!(tail(26), (b"HEADER--".to_vec(), 26));
        assert_eq!(tail(40), (b"HEADER--".to_vec(), 26), "past the end");
        assert_eq!(tail(u64::MAX), (b"HEADER--".to_vec(), 26), "no seek");
        fs::remove_dir_all(&path).unwrap();
    }

    /// One directory holding every kind of damage: mid-file corruption
    /// and a torn tail in closed segments, a partial header in the
    /// open one, a torn line in both an older and the open name log, an
    /// undecodable snapshot and a stray tmp file.
    fn damaged(path: &Path) -> (Vec<u8>, Vec<u8>) {
        fs::create_dir_all(path).unwrap();
        let log = adya_online::encode_log(&[Event::Begin(TxnId(1)), Event::Commit(TxnId(1))]);
        let mut torn = log.clone();
        torn.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        // Flip a payload byte of the first of the two records.
        let mut corrupt = log.clone();
        corrupt[LOG_MAGIC.len() + wire::FRAME_HEADER] ^= 0xff;
        fs::write(path.join("seg-0.log"), &corrupt).unwrap();
        fs::write(path.join("seg-2.log"), &torn).unwrap();
        fs::write(path.join("seg-4.log"), &LOG_MAGIC[..3]).unwrap();
        fs::write(path.join("names-0.log"), b"x\npartial-nam").unwrap();
        fs::write(path.join("names-2.log"), b"y\nz\nhalf").unwrap();
        fs::write(path.join("snap-1.snap"), b"not a sealed container").unwrap();
        fs::write(path.join("snap.tmp"), b"stray").unwrap();
        fs::write(path.join("closed"), b"no newline").unwrap();
        (log, corrupt)
    }

    #[test]
    fn a_mirror_heals_down_to_what_its_leader_can_append_to() {
        let path = tmp("heal-mirror");
        let (log, corrupt) = damaged(&path);
        fs::write(path.join("seg-6.log"), b"BADMAGIC and more").unwrap();
        let mut dir = SessionDir::mirror(&path, FsyncPolicy::Never).unwrap();

        assert_eq!(
            dir.heal().unwrap(),
            vec![
                (FileName::Names(0), 2),
                (FileName::Names(2), 4),
                (FileName::Segment(0), LOG_MAGIC.len() as u64),
                (FileName::Segment(2), log.len() as u64),
                (FileName::Segment(4), 0),
                (FileName::Segment(6), 0),
            ]
        );
        assert_eq!(
            dir.read(FileName::Segment(0)).unwrap(),
            corrupt[..LOG_MAGIC.len()]
        );
        assert_eq!(dir.read(FileName::Segment(2)).unwrap(), log);
        assert!(!path.join("snap-1.snap").exists());
        assert!(!path.join("snap.tmp").exists());

        let after = snapshot(&path);
        assert_eq!(dir.heal().unwrap(), Vec::new());
        assert_eq!(snapshot(&path), after);
        fs::remove_dir_all(&path).unwrap();
    }
}
