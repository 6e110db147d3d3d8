//! Helpers shared by the spawn-based integration tests, on top of
//! `adya::workloads::harness`: the two servers' spawn recipes for this
//! build's binaries, the deterministic session workload, and a
//! resuming send — plus the seeded sliding-window event stream the
//! streaming checker's GC tests share.

// Every test binary compiles this module and uses its own subset.
#![allow(dead_code, unused_imports)]

use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use adya::history::{Event, ObjectId, ReadEvent, TxnId, VersionId, VersionKind, WriteEvent};
use adya::workloads::harness;
pub use adya::workloads::harness::{http_get, reference, Server};
use adya::workloads::{ClientError, RetryPolicy, ServeClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fresh scratch directory path under the test target dir.
pub fn data_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns this build's `adya-serve` on `listen` over `data` (see
/// [`harness::spawn_server`]) with a log cadence short enough that a
/// few dozen transactions cross several snapshots and rotations.
pub fn spawn_server(data: &Path, listen: &str, extra: &[&str]) -> (Server, String) {
    let cadence = ["--snapshot-every", "8", "--rotate-events", "16"];
    harness::spawn_server(
        Path::new(env!("CARGO_BIN_EXE_adya-serve")),
        data,
        listen,
        &[&cadence[..], extra].concat(),
    )
}

/// Starts `adya-check --stream --obs-listen 127.0.0.1:0 <extra>`,
/// writes `events` to its stdin (left open, so the obs endpoint stays
/// up), and returns the process plus the bound endpoint address
/// parsed from stderr.
pub fn spawn_streaming(extra: &[&str], events: &str) -> (Server, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_adya-check"))
        .args(["--stream", "--obs-listen", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn adya-check --stream");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(events.as_bytes())
        .expect("write events");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut line = String::new();
    BufReader::new(stderr)
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .rsplit_once("listening on ")
        .unwrap_or_else(|| panic!("unexpected stderr line: {line:?}"))
        .1
        .trim()
        .to_string();
    (Server(child), addr)
}

/// A deterministic token stream for one session: interleaved begins,
/// version-correct reads, writes and commits over eight objects.
pub fn session_tokens(session: usize, txns: u64) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut last_writer = [None::<u64>; 8];
    let obj = |i: usize| (b'a' + i as u8) as char;
    for t in 1..=txns {
        let wobj = ((t as usize) * 7 + session) % 8;
        let robj = ((t as usize) * 3 + session) % 8;
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

/// Streams one token, transparently resuming — against a restarted
/// server or a failover endpoint — and counting the resume when the
/// current endpoint is down.
pub fn send_resilient(client: &mut ServeClient, tok: &str, hint: &str, resumes: &mut u32) {
    match client.send_token(tok) {
        Ok(()) => {}
        Err(ClientError::Io(_)) => {
            let policy = RetryPolicy {
                deadline_ops: Some(2_000),
                ..RetryPolicy::default()
            };
            client
                .resume(&policy, 0xAD7A)
                .unwrap_or_else(|e| panic!("resume against {hint} failed: {e}"));
            *resumes += 1;
        }
        Err(e) => panic!("protocol error streaming {tok:?}: {e}"),
    }
}

/// Shape of a [`sliding_window_events`] stream.
#[derive(Debug, Clone, Copy)]
pub struct SlidingWindow {
    /// Keys in the window.
    pub keys: u32,
    /// The window moves onto `keys` fresh keys every this-many events.
    pub slide: u64,
    /// Concurrently open transactions.
    pub open: usize,
    /// `false`: no-wait strict 2PL, nothing aborts, every prefix PL-3.
    /// `true`: no locks, 10 % dirty reads, 10 % aborts, a quarter of
    /// the writes overwriting the writer's own newest version.
    pub dirty: bool,
}

/// A seeded event stream over a key window that slides onto fresh keys
/// — an insert-mostly table: old keys are never written again, so
/// their last writers stay live in the streaming checker for good.
/// Each transaction is a begin, up to four operations (half of them
/// writes) and a terminal event.
pub fn sliding_window_events(cfg: SlidingWindow, seed: u64, events: usize) -> Vec<Event> {
    #[derive(Clone, Copy, PartialEq)]
    enum Lock {
        Free,
        Shared(u32),
        Exclusive(TxnId),
    }
    #[derive(Default)]
    struct Slot {
        txn: Option<TxnId>,
        ops_left: u8,
        /// Keys written, with the newest seq of each.
        wrote: Vec<(u32, u32)>,
        locked: Vec<u32>,
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slots: Vec<Slot> = (0..cfg.open).map(|_| Slot::default()).collect();
    let mut committed: HashMap<u32, VersionId> = HashMap::new();
    let mut locks: HashMap<u32, Lock> = HashMap::new();
    let mut next_txn = 1u32;
    let mut out = Vec::with_capacity(events);
    while out.len() < events {
        let base = (out.len() as u64 / cfg.slide) as u32 * cfg.keys;
        let s = rng.gen_range(0..cfg.open);
        let Some(t) = slots[s].txn else {
            let t = TxnId(next_txn);
            next_txn += 1;
            slots[s].txn = Some(t);
            slots[s].ops_left = 4;
            out.push(Event::Begin(t));
            continue;
        };
        let mut op = None;
        if slots[s].ops_left > 0 {
            slots[s].ops_left -= 1;
            let write = rng.gen_bool(0.5);
            if cfg.dirty {
                let own_again = slots[s]
                    .wrote
                    .last()
                    .filter(|_| write && rng.gen_bool(0.25));
                let other = rng.gen_range(0..cfg.open);
                let theirs = slots[other].wrote.last().zip(slots[other].txn);
                op = Some(match (own_again, theirs) {
                    (Some(&(k, _)), _) => (k, true, None),
                    (None, Some((&(k, seq), o))) if !write && other != s && rng.gen_bool(0.1) => {
                        (k, false, Some(VersionId::new(o, seq)))
                    }
                    _ => (base + rng.gen_range(0..cfg.keys), write, None),
                });
            } else {
                // No-wait: an unavailable lock re-draws the key; eight
                // misses and the transaction ends one operation short.
                for _ in 0..8 {
                    let k = base + rng.gen_range(0..cfg.keys);
                    let mine = slots[s].locked.contains(&k);
                    let lock = locks.entry(k).or_insert(Lock::Free);
                    let granted = match (*lock, write) {
                        (Lock::Free, true) => Lock::Exclusive(t),
                        (Lock::Free, false) => Lock::Shared(1),
                        (Lock::Exclusive(o), _) if o == t => Lock::Exclusive(t),
                        (Lock::Shared(1), true) if mine => Lock::Exclusive(t),
                        (Lock::Shared(n), false) if mine => Lock::Shared(n),
                        (Lock::Shared(n), false) => Lock::Shared(n + 1),
                        _ => continue,
                    };
                    *lock = granted;
                    if !mine {
                        slots[s].locked.push(k);
                    }
                    op = Some((k, write, None));
                    break;
                }
            }
        }
        let slot = &mut slots[s];
        match op {
            Some((k, true, _)) => {
                let seq = match slot.wrote.iter_mut().find(|(wk, _)| *wk == k) {
                    Some((_, seq)) => {
                        *seq += 1;
                        *seq
                    }
                    None => {
                        slot.wrote.push((k, 1));
                        1
                    }
                };
                out.push(Event::Write(WriteEvent {
                    txn: t,
                    object: ObjectId(k),
                    seq,
                    kind: VersionKind::Visible,
                    value: None,
                }));
            }
            Some((k, false, dirty_version)) => {
                let own = slot.wrote.iter().find(|(wk, _)| *wk == k);
                let version = match (own, dirty_version) {
                    (Some(&(_, seq)), _) => VersionId::new(t, seq),
                    (None, Some(v)) => v,
                    (None, None) => committed.get(&k).copied().unwrap_or(VersionId::INIT),
                };
                out.push(Event::Read(ReadEvent {
                    txn: t,
                    object: ObjectId(k),
                    version,
                    through_cursor: false,
                }));
            }
            None => {
                let abort = cfg.dirty && rng.gen_bool(0.1);
                for (k, seq) in slot.wrote.drain(..) {
                    if !abort {
                        committed.insert(k, VersionId::new(t, seq));
                    }
                }
                for k in slot.locked.drain(..) {
                    let l = locks.get_mut(&k).expect("held lock");
                    *l = match *l {
                        Lock::Shared(n) if n > 1 => Lock::Shared(n - 1),
                        _ => Lock::Free,
                    };
                }
                slot.txn = None;
                out.push(if abort {
                    Event::Abort(t)
                } else {
                    Event::Commit(t)
                });
            }
        }
    }
    out
}

/// `events` in the stream notation `adya-check --stream` and
/// `StreamParser` read, one transaction-ending token per line. Object
/// `n` is named `k` plus `n` in letters (names carry no digits);
/// reads name the exact version, and writes rely on the parser
/// counting a transaction's writes of an object the way the
/// generators do, from 1.
pub fn stream_notation(events: &[Event]) -> String {
    let name = |o: ObjectId| {
        let mut n = o.0;
        let mut s = String::from("k");
        loop {
            s.push((b'a' + (n % 26) as u8) as char);
            n /= 26;
            if n == 0 {
                return s;
            }
        }
    };
    let mut out = String::new();
    for e in events {
        let end = match e {
            Event::Begin(t) => format!("b{} ", t.0),
            Event::Write(w) => format!("w{}({}) ", w.txn.0, name(w.object)),
            Event::Read(r) if r.version.is_init() => {
                format!("r{}({}init) ", r.txn.0, name(r.object))
            }
            Event::Read(r) => {
                let v = r.version;
                format!("r{}({}{}:{}) ", r.txn.0, name(r.object), v.txn.0, v.seq)
            }
            Event::Commit(t) => format!("c{}\n", t.0),
            Event::Abort(t) => format!("a{}\n", t.0),
            Event::PredicateRead(_) => panic!("no stream notation for predicate reads"),
        };
        out.push_str(&end);
    }
    out
}

/// How many reads of `events` a collecting streaming checker retires,
/// worked out from the events alone: item reads by a transaction that
/// commits, each of a version whose successor had committed before the
/// reader began. A version's successor is the next one installed, and
/// the checker installs at commit, its committer's writes first, so the
/// successor of `x`'s version by W is the next committed writer of `x`
/// after W, and of `x`'s initial version its first.
pub fn retired_reads(events: &[Event]) -> u64 {
    use std::collections::HashSet;
    let mut begin: HashMap<TxnId, usize> = HashMap::new();
    let mut committed_at: HashMap<TxnId, usize> = HashMap::new();
    let mut ended: HashSet<TxnId> = HashSet::new();
    let mut wrote: HashMap<TxnId, Vec<ObjectId>> = HashMap::new();
    let mut read: HashMap<TxnId, Vec<(ObjectId, VersionId)>> = HashMap::new();
    let mut installers: HashMap<ObjectId, Vec<TxnId>> = HashMap::new();
    let mut retired = 0;
    for (i, e) in events.iter().enumerate() {
        let t = e.txn();
        // The checker skips Tinit's events, and a predicate read of no
        // version begins nothing.
        if t.is_init() || matches!(e, Event::PredicateRead(p) if p.vset.is_empty()) {
            continue;
        }
        let began = *begin.entry(t).or_insert(i);
        if ended.contains(&t) {
            continue;
        }
        match e {
            Event::Write(w) => wrote.entry(t).or_default().push(w.object),
            Event::Read(r) => read.entry(t).or_default().push((r.object, r.version)),
            Event::Commit(_) => {
                ended.insert(t);
                committed_at.insert(t, i);
                let mut objects = wrote.remove(&t).unwrap_or_default();
                objects.sort_unstable();
                objects.dedup();
                for o in objects {
                    installers.entry(o).or_default().push(t);
                }
                for (o, v) in read.remove(&t).unwrap_or_default() {
                    let list = installers.get(&o).map_or(&[][..], Vec::as_slice);
                    let successor = if v.is_init() {
                        list.first()
                    } else if v.txn == t {
                        None // its own version, the newest
                    } else {
                        let at = list.iter().position(|&w| w == v.txn);
                        at.and_then(|at| list.get(at + 1))
                    };
                    if successor.is_some_and(|s| committed_at[s] < began) {
                        retired += 1;
                    }
                }
            }
            Event::Abort(_) => {
                ended.insert(t);
                wrote.remove(&t);
                read.remove(&t);
            }
            _ => {}
        }
    }
    retired
}

/// The streams under `tests/data/stream/` whose verdict lines and
/// checker images are pinned by goldens.
pub const STREAM_FIXTURES: [&str; 4] = ["write_skew", "dirty_hot", "clean_window", "reused_ids"];

/// Path of `tests/data/stream/<file>`.
pub fn stream_data(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/stream")
        .join(file)
}

/// `events` with every transaction id folded into `1..=ids`: a stream
/// whose ids come round again, most of them after their last holder
/// was pruned.
fn fold_ids(events: &mut [Event], ids: u32) {
    let fold = |t: &mut TxnId| *t = TxnId((t.0 - 1) % ids + 1);
    for e in events {
        match e {
            Event::Begin(t) | Event::Commit(t) | Event::Abort(t) => fold(t),
            Event::Write(w) => fold(&mut w.txn),
            Event::Read(r) => {
                fold(&mut r.txn);
                if !r.version.is_init() {
                    fold(&mut r.version.txn);
                }
            }
            Event::PredicateRead(_) => panic!("the generators emit no predicate reads"),
        }
    }
}

/// The text of `tests/data/stream/<name>.events`. `dirty_hot` (six hot
/// keys, dirty reads and aborts: every graph latches), `clean_window`
/// (a 12-key window sliding every 100 events under 2PL: the graphs
/// stay live and the GC contracts them) and `reused_ids` (six keys
/// under 2PL, so every version is superseded and its writer pruned —
/// and sixteen transaction ids for the whole stream, so a `b1 … c1` is
/// followed, once T1 is gone, by another: a transaction the checker
/// must begin from nothing) come from [`sliding_window_events`] and are
/// rewritten from it under `REGEN_GOLDEN=1`; `write_skew` is
/// hand-written.
pub fn stream_fixture(name: &str) -> String {
    let path = stream_data(&format!("{name}.events"));
    // (keys, slide, dirty, seed, transaction ids to fold into)
    let generated = match name {
        "dirty_hot" => Some((6, 100_000, true, 31, None)),
        "clean_window" => Some((12, 100, false, 23, None)),
        "reused_ids" => Some((6, 100_000, false, 47, Some(16))),
        _ => None,
    };
    if let (Some((keys, slide, dirty, seed, ids)), true) =
        (generated, std::env::var_os("REGEN_GOLDEN").is_some())
    {
        let cfg = SlidingWindow {
            keys,
            slide,
            open: 4,
            dirty,
        };
        let mut events = sliding_window_events(cfg, seed, 400);
        if let Some(ids) = ids {
            fold_ids(&mut events, ids);
        }
        std::fs::write(&path, stream_notation(&events)).expect("write stream fixture");
    }
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// True for a verdict line that reports PL-3 with nothing fired.
pub fn is_clean_verdict(line: &str) -> bool {
    line.contains("\"strongest_ansi\": \"PL-3\"") && line.contains("\"fired\": []")
}

/// Compares `got` with the golden file `tests/data/stream/<file>`, or
/// writes it under `REGEN_GOLDEN=1`.
pub fn check_stream_golden(file: &str, got: &str) {
    let path = stream_data(file);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(got, want, "{} drifted", path.display());
}

/// A verdict line without the two fields that say what the collector
/// holds rather than what the history is — `pruned` (rows released)
/// and `live_txns` (rows held) —, which a collection rule may move.
pub fn finding_of_line(line: &str) -> String {
    without_fields(line, &["pruned", "live_txns"])
}

/// `line` with the numbers of the fields `keys` turned into `_`.
pub fn without_fields(line: &str, keys: &[&str]) -> String {
    let mut out = line.to_string();
    for key in keys {
        let key = format!("\"{key}\": ");
        let Some(at) = out.find(&key) else {
            continue;
        };
        let digits = out[at + key.len()..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        out.replace_range(at + key.len()..at + key.len() + digits, "_");
    }
    out
}
