//! The session directory: the one owner of a session's on-disk layout.
//!
//! ```text
//! <data>/<session>/
//!   seg-0.log        events 0..      (EventLogWriter format)
//!   seg-4096.log     events 4096..   (rotated every rotate_events)
//!   snap-6000.snap   checker+parser state after event 6000
//!   names-17.log     interned object names from id 17, one per line
//!   names.log        the same from id 0, in pre-rotation layouts
//!   closed           final verdict line, present once closed
//! ```
//!
//! [`FileName`] is that grammar — nothing else in the workspace spells
//! or parses a session file name — and [`SessionDir`] is the only code
//! that touches the files. It changes them in exactly three ways
//! (healing included): [`append`](SessionDir::append) at a known offset,
//! [`put`](SessionDir::put) of a whole file (tmp + rename, so a reader
//! sees the old bytes or the new, never a mix) and
//! [`remove`](SessionDir::remove). Each mutation applies the node's
//! [`FsyncPolicy`] itself and, when a [`LogPublisher`] is attached,
//! publishes itself to the replication hub, so a follower that applies
//! the published stream through its own `SessionDir` holds the same
//! bytes by construction. [`SessionLog`](crate::log::SessionLog)
//! decides *when* to mutate (rotation, snapshot horizon, compaction);
//! [`ReplicaSink`](crate::replica::ReplicaSink) decides *whether* a
//! peer's mutation may be applied (CRC, offsets).
//!
//! Durability model: appends go straight to the OS (no userspace
//! buffering), so a killed *process* loses at most the record being
//! written — the torn tail [`heal`](SessionDir::heal) truncates at the
//! exact intact byte. Surviving an *OS* crash is what the policy
//! tunes: `always` fsyncs every append (window: the in-flight record);
//! the default `interval` fsyncs appended files at each
//! [`sync`](SessionDir::sync) barrier — a leader's snapshot, a
//! follower's `repl_flush` — (window: everything since the last
//! barrier); `never` syncs nothing. Whole-file puts (snapshots, which
//! license deleting log segments, and the `closed` marker) are synced
//! before the rename that makes them current unless the policy is
//! `never`.
//!
//! [`LogPublisher`]: crate::replica::LogPublisher

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use adya_online::{EventLogReader, LogError, LOG_MAGIC};

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

/// One truncation [`SessionDir::heal`] made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Healed {
    /// The file that had a torn tail.
    pub file: FileName,
    /// Its length now: the intact prefix.
    pub good_len: u64,
    /// What was wrong with the bytes after it.
    pub detail: String,
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

    /// A follower's handle: the directory is created when absent, and
    /// nothing is published onwards.
    pub fn mirror(path: &Path, fsync: FsyncPolicy) -> io::Result<SessionDir> {
        fs::create_dir_all(path)?;
        Ok(SessionDir::at(path, fsync, None))
    }

    /// Every session file present with its byte length, in ship order.
    /// Entries outside the [`FileName`] grammar are not session files
    /// and are not listed.
    pub fn list(&self) -> io::Result<Vec<(FileName, u64)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.path)? {
            let entry = entry?;
            if let Some(file) = entry.file_name().to_str().and_then(FileName::parse) {
                out.push((file, entry.metadata()?.len()));
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// The whole content of `file`.
    pub fn read(&self, file: FileName) -> io::Result<Vec<u8>> {
        fs::read(self.path.join(file.to_string()))
    }

    /// Byte length of an append-only file — the only offset the next
    /// [`append`](SessionDir::append) to it may name. An absent file
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

    /// Appends `bytes` at byte `off` of an append-only file, which must
    /// be its current length — an append never leaves a gap or lands
    /// over existing bytes. `records` (how many event records the
    /// bytes carry) and `trace` (the id of a sampled record) ride
    /// along to the publisher for lag accounting and provenance.
    pub fn append(
        &mut self,
        file: FileName,
        off: u64,
        bytes: &[u8],
        records: u64,
        trace: Option<u64>,
    ) -> io::Result<()> {
        let fsync = self.fsync;
        let f = self.handle(file)?;
        if off != f.len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("append at {off} but {file} holds {} bytes", f.len),
            ));
        }
        f.file.write_all(bytes)?;
        f.len += bytes.len() as u64;
        match fsync {
            FsyncPolicy::Always => f.file.sync_data()?,
            FsyncPolicy::Interval if !self.dirty.contains(&file) => self.dirty.push(file),
            _ => {}
        }
        if let Some(p) = &self.publisher {
            p.append(file, off, bytes, records, trace);
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
            p.put(file, bytes);
        }
        Ok(())
    }

    /// Deletes `file`; a missing file is fine (never written here, or
    /// already removed by a replayed mutation).
    pub fn remove(&mut self, file: FileName) -> io::Result<()> {
        match fs::remove_file(self.path.join(file.to_string())) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        self.open.retain(|o| o.name != file);
        if let Some(p) = &self.publisher {
            p.remove(file);
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

    /// Repairs what a kill -9 of the writing process leaves behind, so
    /// that every listed length is a safe append offset: a torn
    /// segment is truncated at its last intact record, a torn name
    /// line at its last newline, stray tmp files are deleted. (A put
    /// is atomic, so whole-file puts are never torn.) Mid-file damage
    /// is *not* a torn write and is left for recovery to refuse. Each
    /// truncation is a [`put`](SessionDir::put) of the intact prefix,
    /// so it is published like any other mutation — a peer holding the
    /// torn bytes must drop them too, or later appends would land
    /// after garbage. Idempotent; returns the truncations made.
    pub fn heal(&mut self) -> io::Result<Vec<Healed>> {
        self.open.clear(); // lengths are about to change under them
        for entry in fs::read_dir(&self.path)? {
            let entry = entry?;
            if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".tmp"))
            {
                let _ = fs::remove_file(entry.path());
            }
        }
        let mut healed = Vec::new();
        for (file, _) in self.list()? {
            if !file.is_append() {
                continue;
            }
            let bytes = self.read(file)?;
            let torn = if file.is_names() {
                bytes.last().is_some_and(|&b| b != b'\n').then(|| {
                    let good = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                    (good, "partial final name line".to_string())
                })
            } else {
                torn_segment(&bytes)
            };
            if let Some((good, detail)) = torn {
                self.put(file, &bytes[..good])?;
                healed.push(Healed {
                    file,
                    good_len: good as u64,
                    detail,
                });
            }
        }
        Ok(healed)
    }
}

/// Where a segment's torn tail starts and what is wrong with it;
/// `None` when the segment is intact — or damaged in a way a torn
/// write cannot explain.
fn torn_segment(buf: &[u8]) -> Option<(usize, String)> {
    let Ok(mut reader) = EventLogReader::open(buf) else {
        // Killed inside the 8-byte header write.
        let torn_header = !buf.is_empty() && LOG_MAGIC.starts_with(buf);
        return torn_header.then(|| (0, "partial log header".to_string()));
    };
    loop {
        match reader.next()? {
            Ok(_) => {}
            Err(LogError::TornTail { good_len, detail }) => return Some((good_len, detail)),
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::{Event, TxnId};

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
    fn append_demands_the_current_length_and_an_appendable_file() {
        let path = tmp("append");
        let mut dir = SessionDir::create(&path, FsyncPolicy::Interval, None).unwrap();
        let seg = FileName::Segment(0);
        dir.append(seg, 0, b"abc", 0, None).unwrap();
        dir.append(seg, 3, b"def", 0, None).unwrap();
        for off in [0, 5, 7] {
            let e = dir.append(seg, off, b"x", 0, None).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "off {off}");
        }
        assert!(dir.append(FileName::Closed, 0, b"x", 0, None).is_err());
        // A put replaces the inode; the next append sees the new file.
        dir.put(seg, b"ab").unwrap();
        assert_eq!(dir.len(seg).unwrap(), 2);
        dir.append(seg, 2, b"c", 0, None).unwrap();
        dir.sync().unwrap();
        assert_eq!(dir.read(seg).unwrap(), b"abc");
        // Removal is idempotent and forgets the handle too.
        dir.remove(seg).unwrap();
        dir.remove(seg).unwrap();
        dir.sync().unwrap(); // a dirty file compacted away is fine
        assert_eq!(dir.len(seg).unwrap(), 0);
        assert!(!path.join(TMP).exists());
        fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn heal_repairs_torn_tails_only_and_is_idempotent() {
        let path = tmp("heal");
        let mut dir = SessionDir::create(&path, FsyncPolicy::Never, None).unwrap();
        let log = adya_online::encode_log(&[Event::Begin(TxnId(1)), Event::Commit(TxnId(1))]);
        let mut torn = log.clone();
        torn.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        // Mid-file damage: flip a payload byte of the first record.
        let mut corrupt = log.clone();
        corrupt[LOG_MAGIC.len() + adya_online::wire::FRAME_HEADER] ^= 0xff;
        fs::write(path.join("seg-0.log"), &corrupt).unwrap();
        fs::write(path.join("seg-2.log"), &torn).unwrap();
        fs::write(path.join("seg-4.log"), &LOG_MAGIC[..3]).unwrap();
        fs::write(path.join("names-0.log"), b"x\npartial-nam").unwrap();
        fs::write(path.join("names-2.log"), b"").unwrap();
        fs::write(path.join("snap-1.snap"), b"put whole, never torn").unwrap();
        fs::write(path.join("snap.tmp"), b"stray").unwrap();
        fs::write(path.join("closed"), b"no newline").unwrap();

        let healed = dir.heal().unwrap();
        assert_eq!(
            healed
                .iter()
                .map(|h| (h.file, h.good_len))
                .collect::<Vec<_>>(),
            vec![
                (FileName::Names(0), 2),
                (FileName::Segment(2), log.len() as u64),
                (FileName::Segment(4), 0),
            ]
        );
        let after = snapshot(&path);
        let names: Vec<&str> = after.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "closed",
                "names-0.log",
                "names-2.log",
                "seg-0.log",
                "seg-2.log",
                "seg-4.log",
                "snap-1.snap"
            ]
        );
        assert_eq!(fs::read(path.join("seg-0.log")).unwrap(), corrupt);
        assert_eq!(fs::read(path.join("seg-2.log")).unwrap(), log);
        assert_eq!(fs::read(path.join("names-0.log")).unwrap(), b"x\n");

        assert_eq!(dir.heal().unwrap(), Vec::new());
        assert_eq!(snapshot(&path), after);
        fs::remove_dir_all(&path).unwrap();
    }
}
