//! Event input for the online checker: the incremental text-notation
//! parser (`adya-check --stream` tokens), the [`StreamFeed`] that keeps
//! it in step with the checker its events go to, and the durable binary
//! event log with torn-tail detection.
//!
//! The text parser supports the item-operation subset of the batch
//! parser: `b1`, `c1`, `a1`, `w1(x[,v])`, `r1(x2[,v])`, `rc1(x2)`,
//! with version targets `x2` (latest seen write of T2 on x), `x2:3`
//! (explicit modification counter) and `xinit`. Predicate reads
//! (`#pred`, `rp…`) and trailing explicit version orders (`[x1 <<
//! x2]`) are batch-only concepts — the online checker assumes install
//! order = commit order — and are rejected with a clear error.
//!
//! The binary log ([`EventLogWriter`] / [`EventLogReader`]) is the
//! crash-safe on-disk form: a magic header followed by
//! length-prefixed, CRC-32-checksummed records ([`wire::frame`]), one
//! [`Event`] each. A
//! process killed mid-append leaves a *torn tail* — a final record
//! whose bytes ran out or whose checksum fails — which the reader
//! reports as [`LogError::TornTail`] with the exact byte offset of
//! the last good record, so the caller can truncate and resume
//! appending instead of refusing the whole file.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;

use adya_history::{
    lex, Event, LexError, ObjectId, ReadEvent, Token, TxnId, Value, VersionId, VersionKind,
    VersionRef, WriteEvent,
};

use crate::checker::OnlineChecker;
use crate::snapshot::SnapshotError;
use crate::verdict::Verdict;
use crate::wire::{self, FrameError, WireError};

/// Streaming token parser. Stateful: it interns object names and
/// tracks each transaction's per-object write counters so that `r2(x1)`
/// resolves to the latest modification T1 has made to `x` *so far*.
///
/// Because that state determines how future tokens parse, a durable
/// session must persist it alongside the checker: [`snapshot`] /
/// [`restore`] freeze it to deterministic bytes (binary log events
/// alone cannot rebuild the name table).
///
/// On its own the parser never forgets a counter; a [`StreamFeed`]
/// drops a transaction's counters when its checker prunes it.
///
/// [`snapshot`]: StreamParser::snapshot
/// [`restore`]: StreamParser::restore
#[derive(Debug, Default, Clone)]
pub struct StreamParser {
    /// Name → id. Each name is stored once, shared with `names`.
    objects: HashMap<Arc<str>, ObjectId>,
    /// Id → name.
    names: Vec<Arc<str>>,
    last_seq: HashMap<(TxnId, ObjectId), u32>,
}

impl StreamParser {
    /// An empty parser.
    pub fn new() -> StreamParser {
        StreamParser::default()
    }

    /// Serializes the parser state (interned names and per-(txn,
    /// object) write counters) to deterministic bytes: equal states
    /// produce equal bytes, so snapshots can prove state equality.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut e = wire::Enc::new();
        e.len(self.names.len());
        for name in &self.names {
            e.str(name);
        }
        let mut seqs: Vec<_> = self.last_seq.iter().collect();
        seqs.sort_by_key(|((t, o), _)| (t.0, o.0));
        e.len(seqs.len());
        for ((txn, object), seq) in seqs {
            e.u32(txn.0);
            e.u32(object.0);
            e.u32(*seq);
        }
        e.into_bytes()
    }

    /// Revives a parser from [`snapshot`](StreamParser::snapshot)
    /// bytes. Only what `snapshot` can write is accepted — counters in
    /// ascending (transaction, object) order, each at least 1 and
    /// naming an interned object — so the revived parser snapshots to
    /// the same bytes.
    pub fn restore(bytes: &[u8]) -> Result<StreamParser, WireError> {
        let mut d = wire::Dec::new(bytes);
        let n = d.len()?;
        let mut p = StreamParser {
            names: Vec::with_capacity(n),
            objects: HashMap::with_capacity(n),
            ..StreamParser::default()
        };
        for i in 0..n {
            let name: Arc<str> = d.str()?.into();
            p.objects.insert(Arc::clone(&name), ObjectId(i as u32));
            p.names.push(name);
        }
        let n = d.len()?;
        p.last_seq.reserve(n);
        let mut prev = None;
        for _ in 0..n {
            let key = (d.u32()?, d.u32()?);
            let seq = d.u32()?;
            let malformed = |what: &str| {
                Err(WireError::Malformed(format!(
                    "write counter of T{} on object {}: {what}",
                    key.0, key.1
                )))
            };
            if key.1 as usize >= p.names.len() {
                return malformed("unknown object");
            }
            if seq == 0 {
                return malformed("seq 0 (versions count from 1)");
            }
            if prev >= Some(key) {
                return malformed("duplicate or out of order");
            }
            prev = Some(key);
            p.last_seq.insert((TxnId(key.0), ObjectId(key.1)), seq);
        }
        if d.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after parser state",
                d.remaining()
            )));
        }
        Ok(p)
    }

    /// Write counters held: one per (transaction, object) written.
    pub fn counters(&self) -> usize {
        self.last_seq.len()
    }

    /// The interned name of `o` (for rendering verdicts).
    pub fn object_name(&self, o: ObjectId) -> &str {
        &self.names[o.0 as usize]
    }

    /// Number of interned object names (ids are `0..count`).
    pub fn interned(&self) -> usize {
        self.names.len()
    }

    /// Interns `name` (idempotent), returning its id. Durable sessions
    /// use this to rebuild the name table from a persisted side log —
    /// the binary event log stores resolved ids only.
    pub fn intern(&mut self, name: &str) -> ObjectId {
        self.object(name)
    }

    /// Records that `txn` has installed modification `seq` of
    /// `object`, as if a `w` token had been parsed. Replaying decoded
    /// log events through this keeps latest-version read resolution
    /// (`r2(x1)`) identical to the uninterrupted run.
    pub(crate) fn note_write(&mut self, txn: TxnId, object: ObjectId, seq: u32) {
        self.last_seq.insert((txn, object), seq);
    }

    /// Drops `txn`'s counter for `object`, if it has one.
    fn forget_counter(&mut self, txn: TxnId, object: ObjectId) {
        self.last_seq.remove(&(txn, object));
    }

    fn object(&mut self, name: &str) -> ObjectId {
        if let Some(&o) = self.objects.get(name) {
            return o;
        }
        let o = ObjectId(self.names.len() as u32);
        let name: Arc<str> = Arc::from(name);
        self.objects.insert(Arc::clone(&name), o);
        self.names.push(name);
        o
    }

    /// Parses one whitespace-delimited token into an [`Event`]. Fails
    /// exactly when [`check_token`] does, and then leaves the parser as
    /// it was.
    pub fn parse_token(&mut self, tok: &str) -> Result<Event, String> {
        Ok(match check_token(tok)? {
            Token::Begin(t) => Event::Begin(t),
            Token::Commit(t) => Event::Commit(t),
            Token::Abort(t) => Event::Abort(t),
            Token::Write { txn, target, value } => {
                let object = self.object(target);
                let seq = self.last_seq.entry((txn, object)).or_insert(0);
                *seq += 1;
                let seq = *seq;
                let (kind, value) = match value {
                    Some("dead") => (VersionKind::Dead, None),
                    Some(v) => (
                        VersionKind::Visible,
                        Some(
                            v.parse::<i64>()
                                .map(Value::Int)
                                .unwrap_or_else(|_| Value::str(v)),
                        ),
                    ),
                    None => (VersionKind::Visible, None),
                };
                Event::Write(WriteEvent {
                    txn,
                    object,
                    seq,
                    kind,
                    value,
                })
            }
            Token::Read {
                txn,
                cursor,
                object,
                version,
                value: _,
            } => {
                let object = self.object(object);
                let version = match version {
                    VersionRef::Init => VersionId::INIT,
                    VersionRef::Latest(w) => {
                        let seq = self.last_seq.get(&(w, object)).copied().unwrap_or(1);
                        VersionId::new(w, seq)
                    }
                    VersionRef::Exact(w, seq) => VersionId::new(w, seq),
                };
                Event::Read(ReadEvent {
                    txn,
                    object,
                    version,
                    through_cursor: cursor,
                })
            }
        })
    }
}

/// Reads `tok` as one token of the streaming notation, or says why a
/// streaming session refuses it. The answer depends on the token alone
/// — no parser state — so a caller that must apply a whole line or none
/// of it can check every token before its parser sees the first.
pub fn check_token(tok: &str) -> Result<Token<'_>, String> {
    if tok.starts_with("#pred") || tok.starts_with("rp") {
        return Err(format!(
            "{tok:?}: predicate reads are not supported in streaming mode"
        ));
    }
    if tok.starts_with('[') {
        return Err(format!(
            "{tok:?}: explicit version orders are not supported in streaming mode \
             (install order is commit order)"
        ));
    }
    // The token itself is read by the lexer the batch parser uses;
    // only what a token *means* to a streaming session lives here.
    let op = lex(tok).map_err(|e| match e {
        LexError::Unrecognized => format!("unrecognized token {tok:?}"),
        LexError::BadTxn => format!("{tok:?}: bad transaction number"),
        LexError::Unclosed => format!("{tok:?}: missing closing paren"),
        LexError::NoTarget => format!("{tok:?}: missing target"),
        LexError::BadVersionTarget(target) => {
            format!("{tok:?}: bad read target {target:?}")
        }
    })?;
    if let Token::Write { target, .. } = &op {
        if target.chars().any(|c| c.is_ascii_digit()) {
            return Err(format!(
                "{tok:?}: write targets are object names without version suffixes"
            ));
        }
    }
    Ok(op)
}

/// A [`StreamParser`] and the [`OnlineChecker`] its events go to, kept
/// in step: the parser holds a write counter only while the checker
/// holds its transaction. When the collector prunes T, the parser drops
/// every counter it has for T — those of writes the checker ignored,
/// having come after T's terminal event, included — so a later
/// transaction under T's id numbers its changes from 1, as the paper
/// names versions (`x_{i:m}`, Tᵢ's m-th change to x, §4.1), and parser
/// state is bounded by the live set, not by the stream.
///
/// Every caller that turns text into events keeps one order: [`parse`]
/// a token, make the event durable if it logs, [`ingest`] it (which
/// forgets what that ingest pruned), then the next token. Recovery
/// rebuilds the same state by [`replay`]ing logged events.
///
/// [`parse`]: StreamFeed::parse
/// [`ingest`]: StreamFeed::ingest
/// [`replay`]: StreamFeed::replay
#[derive(Debug)]
pub struct StreamFeed {
    parser: StreamParser,
    /// Boxed: a checker is 1.5 kB, and a feed travels by value through
    /// session recovery's frames — on every connection thread of a
    /// server.
    checker: Box<OnlineChecker>,
}

impl StreamFeed {
    /// A fresh parser in front of `checker`.
    pub fn new(mut checker: OnlineChecker) -> StreamFeed {
        checker.gc.track_writes();
        StreamFeed {
            parser: StreamParser::new(),
            checker: Box::new(checker),
        }
    }

    /// Revives a feed from the images [`StreamParser::snapshot`] and
    /// [`OnlineChecker::snapshot`] wrote at the same point of a stream.
    /// What a parser that never forgot left in its image — counters of
    /// transactions the checker no longer holds, or holds again under a
    /// reused id — is dropped.
    pub fn restore(parser: &[u8], checker: &[u8]) -> Result<StreamFeed, SnapshotError> {
        let mut feed = StreamFeed::new(OnlineChecker::restore(checker)?);
        feed.parser = StreamParser::restore(parser)?;
        let checker = &mut feed.checker;
        feed.parser
            .last_seq
            .retain(|&(t, o), _| checker.adopt_counter(t, o));
        Ok(feed)
    }

    /// Parses one token ([`StreamParser::parse_token`]).
    #[inline]
    pub fn parse(&mut self, tok: &str) -> Result<Event, String> {
        self.parser.parse_token(tok)
    }

    /// Feeds one event to the checker ([`OnlineChecker::ingest`]), then
    /// forgets the counters of every transaction it pruned.
    #[inline]
    pub fn ingest(&mut self, event: &Event) -> Option<Verdict> {
        let verdict = self.checker.ingest(event);
        self.forget_pruned();
        verdict
    }

    /// [`ingest`](Self::ingest) for an event read back from a log: the
    /// parser counts its write as if it had parsed the token.
    #[inline]
    pub fn replay(&mut self, event: &Event) -> Option<Verdict> {
        if let Event::Write(w) = event {
            self.parser.note_write(w.txn, w.object, w.seq);
        }
        self.ingest(event)
    }

    /// Completes the stream ([`OnlineChecker::finish`]).
    pub fn finish(&mut self) -> Verdict {
        let verdict = self.checker.finish();
        self.forget_pruned();
        verdict
    }

    /// Interns `name` ([`StreamParser::intern`]).
    pub fn intern(&mut self, name: &str) -> ObjectId {
        self.parser.intern(name)
    }

    /// The parser.
    #[inline]
    pub fn parser(&self) -> &StreamParser {
        &self.parser
    }

    /// The checker.
    #[inline]
    pub fn checker(&self) -> &OnlineChecker {
        &self.checker
    }

    #[inline]
    fn forget_pruned(&mut self) {
        for (t, o) in self.checker.gc.drain_released() {
            self.parser.forget_counter(t, o);
        }
    }
}

// ----------------------------------------------------------------------
// Durable binary event log
// ----------------------------------------------------------------------

/// First 8 bytes of every binary event log.
pub const LOG_MAGIC: [u8; 8] = *b"ADYALOG\x01";

/// Failure while reading a binary event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The file does not start with [`LOG_MAGIC`].
    BadMagic,
    /// The final record is incomplete or fails its checksum: the
    /// writer was killed mid-append. `good_len` is the byte length of
    /// the intact prefix — truncate there and the log is valid again.
    TornTail {
        /// Bytes of intact log before the torn record.
        good_len: usize,
        /// What exactly was wrong with the tail.
        detail: String,
    },
    /// A record *before* the final one is damaged: this is corruption,
    /// not a torn write, and truncation would silently drop good data.
    Corrupt {
        /// Byte offset of the bad record.
        offset: usize,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::BadMagic => write!(f, "not an adya event log (bad magic)"),
            LogError::TornTail { good_len, detail } => {
                write!(f, "torn tail after byte {good_len}: {detail}")
            }
            LogError::Corrupt { offset, detail } => {
                write!(f, "corrupt record at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for LogError {}

/// Appends framed events to any [`Write`] sink.
///
/// Each record is one [`wire::frame`] around a [`wire::encode_event`]
/// payload. The writer does not buffer: every record reaches the sink
/// in a single `write_all`, and call sites that need durability decide
/// when to flush/sync.
#[derive(Debug)]
pub struct EventLogWriter<W: Write> {
    sink: W,
    /// The record most recently appended (reused across appends).
    rec: Vec<u8>,
}

impl<W: Write> EventLogWriter<W> {
    /// Starts a fresh log on `sink`, writing the magic header.
    pub fn create(mut sink: W) -> std::io::Result<EventLogWriter<W>> {
        sink.write_all(&LOG_MAGIC)?;
        Ok(EventLogWriter::append_to(sink))
    }

    /// Resumes appending to a sink already positioned at the end of an
    /// intact log (no header is written).
    pub fn append_to(sink: W) -> EventLogWriter<W> {
        EventLogWriter {
            sink,
            rec: Vec::new(),
        }
    }

    /// Appends one event record and hands back the exact bytes it
    /// wrote, so a caller mirroring the log elsewhere (replication)
    /// never has to re-derive the framing.
    pub fn append(&mut self, ev: &Event) -> std::io::Result<&[u8]> {
        self.rec.clear();
        wire::frame(&mut self.rec, &wire::encode_event(ev));
        self.sink.write_all(&self.rec)?;
        Ok(&self.rec)
    }

    /// Flushes and returns the underlying sink.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Iterates the records of an in-memory binary event log.
///
/// A damaged *final* record yields [`LogError::TornTail`]; damage
/// anywhere else yields [`LogError::Corrupt`]. After any error the
/// reader is exhausted.
#[derive(Debug)]
pub struct EventLogReader<'a> {
    buf: &'a [u8],
    pos: usize,
    failed: bool,
}

impl<'a> EventLogReader<'a> {
    /// Opens `buf` as a binary log, validating the magic header.
    pub fn open(buf: &'a [u8]) -> Result<EventLogReader<'a>, LogError> {
        if buf.len() < LOG_MAGIC.len() || buf[..LOG_MAGIC.len()] != LOG_MAGIC {
            return Err(LogError::BadMagic);
        }
        Ok(EventLogReader {
            buf,
            pos: LOG_MAGIC.len(),
            failed: false,
        })
    }

    /// Opens `buf` positioned at `offset` — a byte offset previously
    /// reported by [`offset`](EventLogReader::offset) or by
    /// [`LogError::TornTail::good_len`] — so recovery resumes exactly
    /// where a prior scan stopped instead of re-reading the segment
    /// from the top. `offset` must land on a record boundary inside
    /// the log (at minimum the magic header, at most the buffer end).
    ///
    /// [`LogError::TornTail::good_len`]: LogError::TornTail
    pub fn open_at(buf: &'a [u8], offset: usize) -> Result<EventLogReader<'a>, LogError> {
        let reader = EventLogReader::open(buf)?;
        if offset < LOG_MAGIC.len() || offset > buf.len() {
            return Err(LogError::Corrupt {
                offset,
                detail: format!(
                    "resume offset outside the log (header {}, len {})",
                    LOG_MAGIC.len(),
                    buf.len()
                ),
            });
        }
        Ok(EventLogReader {
            pos: offset,
            ..reader
        })
    }

    /// True when `buf` starts with the binary-log magic (used by
    /// `adya-check` to auto-detect binary vs. text input).
    pub fn sniff(buf: &[u8]) -> bool {
        buf.len() >= LOG_MAGIC.len() && buf[..LOG_MAGIC.len()] == LOG_MAGIC
    }

    /// Byte offset of the next unread record (= length of the intact
    /// prefix once iteration finishes cleanly).
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn torn(&mut self, detail: String) -> LogError {
        self.failed = true;
        LogError::TornTail {
            good_len: self.pos,
            detail,
        }
    }

    /// Reads the next event; `None` at a clean end of log.
    #[allow(clippy::should_implement_trait)] // fallible, lending-style next
    pub fn next(&mut self) -> Option<Result<Event, LogError>> {
        if self.failed || self.pos == self.buf.len() {
            return None;
        }
        let start = self.pos;
        let rest = &self.buf[start..];
        let payload = match wire::unframe(rest) {
            Ok(payload) => payload,
            Err(FrameError::ShortHeader) => {
                return Some(Err(self.torn(format!(
                    "{} header bytes of a record frame (need {})",
                    rest.len(),
                    wire::FRAME_HEADER
                ))));
            }
            Err(FrameError::ShortPayload { len }) => {
                return Some(Err(self.torn(format!(
                    "record declares {len} payload bytes, {} present",
                    rest.len() - wire::FRAME_HEADER
                ))));
            }
            Err(FrameError::Checksum { len }) => {
                // A checksum failure on the very last record is a torn
                // (partially overwritten) append; earlier it is
                // corruption.
                self.failed = true;
                return Some(Err(if rest.len() == wire::FRAME_HEADER + len {
                    LogError::TornTail {
                        good_len: start,
                        detail: "final record failed its checksum".into(),
                    }
                } else {
                    LogError::Corrupt {
                        offset: start,
                        detail: "record failed its checksum".into(),
                    }
                }));
            }
        };
        let end = start + wire::FRAME_HEADER + payload.len();
        match wire::decode_event(payload) {
            Ok(ev) => {
                self.pos = end;
                Some(Ok(ev))
            }
            Err(WireError::Truncated) => Some(Err(self.torn("event payload truncated".into()))),
            Err(WireError::Malformed(m)) => {
                self.failed = true;
                Some(Err(LogError::Corrupt {
                    offset: start,
                    detail: m,
                }))
            }
        }
    }
}

/// Encodes `events` as a complete binary log in memory.
pub fn encode_log(events: &[Event]) -> Vec<u8> {
    let mut w = EventLogWriter::create(Vec::new()).expect("Vec<u8> writes are infallible");
    for ev in events {
        w.append(ev).expect("Vec<u8> writes are infallible");
    }
    w.into_inner().expect("Vec<u8> flush is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_basic_forms() {
        let mut p = StreamParser::new();
        assert_eq!(p.parse_token("b1").unwrap(), Event::Begin(TxnId(1)));
        let w = p.parse_token("w1(x,5)").unwrap();
        match &w {
            Event::Write(we) => {
                assert_eq!(we.txn, TxnId(1));
                assert_eq!(we.seq, 1);
                assert_eq!(we.value, Some(Value::Int(5)));
            }
            other => panic!("{other:?}"),
        }
        // Second write of the same txn bumps the seq.
        match p.parse_token("w1(x,6)").unwrap() {
            Event::Write(we) => assert_eq!(we.seq, 2),
            other => panic!("{other:?}"),
        }
        // Latest-version read resolves to seq 2.
        match p.parse_token("r2(x1)").unwrap() {
            Event::Read(re) => {
                assert_eq!(re.version, VersionId::new(TxnId(1), 2));
                assert!(!re.through_cursor);
            }
            other => panic!("{other:?}"),
        }
        match p.parse_token("rc2(x1:1)").unwrap() {
            Event::Read(re) => {
                assert_eq!(re.version, VersionId::new(TxnId(1), 1));
                assert!(re.through_cursor);
            }
            other => panic!("{other:?}"),
        }
        match p.parse_token("r2(yinit)").unwrap() {
            Event::Read(re) => assert!(re.version.is_init()),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.parse_token("c2").unwrap(), Event::Commit(TxnId(2)));
        assert_eq!(p.parse_token("a1").unwrap(), Event::Abort(TxnId(1)));
    }

    #[test]
    fn rejects_batch_only_notation() {
        let mut p = StreamParser::new();
        assert!(p.parse_token("#pred(P,1,9)").is_err());
        assert!(p.parse_token("rp1(P: x0)").is_err());
        assert!(p.parse_token("[x1 << x2]").is_err());
        assert!(p.parse_token("zzz").is_err());
    }

    #[test]
    fn dead_writes_and_string_values() {
        let mut p = StreamParser::new();
        match p.parse_token("w3(x,dead)").unwrap() {
            Event::Write(we) => {
                assert_eq!(we.kind, VersionKind::Dead);
                assert_eq!(we.value, None);
            }
            other => panic!("{other:?}"),
        }
        match p.parse_token("w3(y,hello)").unwrap() {
            Event::Write(we) => assert_eq!(we.value, Some(Value::str("hello"))),
            other => panic!("{other:?}"),
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Begin(TxnId(1)),
            Event::Write(WriteEvent {
                txn: TxnId(1),
                object: ObjectId(0),
                seq: 1,
                kind: VersionKind::Visible,
                value: Some(Value::Int(5)),
            }),
            Event::Commit(TxnId(1)),
            Event::Begin(TxnId(2)),
            Event::Read(ReadEvent {
                txn: TxnId(2),
                object: ObjectId(0),
                version: VersionId::new(TxnId(1), 1),
                through_cursor: false,
            }),
            Event::Abort(TxnId(2)),
        ]
    }

    fn drain(buf: &[u8]) -> (Vec<Event>, Option<LogError>) {
        let mut r = EventLogReader::open(buf).unwrap();
        let mut evs = Vec::new();
        while let Some(item) = r.next() {
            match item {
                Ok(ev) => evs.push(ev),
                Err(e) => return (evs, Some(e)),
            }
        }
        (evs, None)
    }

    #[test]
    fn log_round_trips() {
        let evs = sample_events();
        let buf = encode_log(&evs);
        assert!(EventLogReader::sniff(&buf));
        assert!(!EventLogReader::sniff(b"b1 w1(x) c1"));
        let (got, err) = drain(&buf);
        assert_eq!(err, None);
        assert_eq!(got, evs);
    }

    #[test]
    fn torn_tail_reports_the_intact_prefix() {
        let evs = sample_events();
        let buf = encode_log(&evs);
        // Chop bytes off the final record: every cut length must read
        // back all but the last event and report a torn tail whose
        // good_len lets the caller resume exactly there.
        let full_len = buf.len();
        let last_start = {
            let (_, err) = drain(&buf[..full_len - 1]);
            match err.unwrap() {
                LogError::TornTail { good_len, .. } => good_len,
                other => panic!("{other:?}"),
            }
        };
        for cut in last_start + 1..full_len {
            let (got, err) = drain(&buf[..cut]);
            assert_eq!(got.len(), evs.len() - 1, "cut at {cut}");
            match err.unwrap() {
                LogError::TornTail { good_len, .. } => assert_eq!(good_len, last_start),
                other => panic!("expected torn tail at {cut}, got {other:?}"),
            }
        }
        // Truncating at good_len and appending again yields a clean log.
        let mut healed = buf[..last_start].to_vec();
        let mut w = EventLogWriter::append_to(&mut healed);
        w.append(&Event::Commit(TxnId(9))).unwrap();
        let (got, err) = drain(&healed);
        assert_eq!(err, None);
        assert_eq!(got.last(), Some(&Event::Commit(TxnId(9))));
    }

    #[test]
    fn mid_file_damage_is_corruption_not_torn_tail() {
        let evs = sample_events();
        let mut buf = encode_log(&evs);
        // Flip a payload byte of the FIRST record (header is 8 bytes
        // of magic, then 8 bytes of frame, then the payload).
        buf[17] ^= 0xFF;
        let (got, err) = drain(&buf);
        assert!(got.is_empty());
        assert!(
            matches!(err, Some(LogError::Corrupt { offset: 8, .. })),
            "{err:?}"
        );
        // A checksum failure on the *last* record is a torn tail.
        let mut buf2 = encode_log(&evs);
        let n = buf2.len();
        buf2[n - 1] ^= 0xFF;
        let (got2, err2) = drain(&buf2);
        assert_eq!(got2.len(), evs.len() - 1);
        assert!(matches!(err2, Some(LogError::TornTail { .. })), "{err2:?}");
    }

    #[test]
    fn parser_snapshot_round_trips_and_is_deterministic() {
        let mut p = StreamParser::new();
        p.parse_token("w1(x,5)").unwrap();
        p.parse_token("w1(x,6)").unwrap();
        p.parse_token("w2(y,1)").unwrap();
        let bytes = p.snapshot();
        let q = StreamParser::restore(&bytes).unwrap();
        assert_eq!(q.snapshot(), bytes, "restore is byte-stable");
        // The revived parser resolves latest-version reads with the
        // original counters and interning.
        let mut p2 = p.clone();
        let mut q2 = q;
        assert_eq!(
            q2.parse_token("r3(x1)").unwrap(),
            p2.parse_token("r3(x1)").unwrap()
        );
        assert_eq!(
            q2.parse_token("w1(x)").unwrap(),
            p2.parse_token("w1(x)").unwrap(),
            "seq counters survive"
        );
        assert_eq!(q2.object_name(ObjectId(1)), "y");
        // Truncated and trailing-garbage snapshots are rejected.
        assert!(StreamParser::restore(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(StreamParser::restore(&long).is_err());
    }

    /// Parser-image bytes: `names`, then `(txn, object, seq)` triples
    /// in the order given.
    fn parser_image(names: &[&str], counters: &[(u32, u32, u32)]) -> Vec<u8> {
        let mut e = wire::Enc::new();
        e.len(names.len());
        for name in names {
            e.str(name);
        }
        e.len(counters.len());
        for &(t, o, seq) in counters {
            e.u32(t);
            e.u32(o);
            e.u32(seq);
        }
        e.into_bytes()
    }

    #[test]
    fn restore_accepts_only_what_snapshot_writes() {
        let good = parser_image(&["x", "y"], &[(1, 0, 2), (1, 1, 1), (2, 0, 1)]);
        let p = StreamParser::restore(&good).unwrap();
        assert_eq!((p.counters(), p.snapshot()), (3, good));
        for (counters, why) in [
            (&[(1, 0, 0)][..], "seq 0"),
            (&[(1, 0, 1), (1, 0, 2)][..], "duplicate"),
            (&[(2, 0, 1), (1, 0, 1)][..], "out of order"),
            (&[(1, 1, 1), (1, 0, 1)][..], "out of order"),
            (&[(1, 2, 1)][..], "unknown object"),
        ] {
            let err = StreamParser::restore(&parser_image(&["x", "y"], counters)).unwrap_err();
            assert!(
                matches!(&err, WireError::Malformed(m) if m.contains(why)),
                "{counters:?}: {err:?}"
            );
        }
    }

    /// Feeds `text` through `feed`, one token at a time.
    fn run(feed: &mut StreamFeed, text: &str) -> Vec<Event> {
        let mut events = Vec::new();
        for tok in text.split_whitespace() {
            let ev = feed.parse(tok).unwrap();
            feed.ingest(&ev);
            events.push(ev);
        }
        events
    }

    fn seq_of(ev: &Event) -> u32 {
        match ev {
            Event::Write(w) => w.seq,
            Event::Read(r) => r.version.seq,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_pruned_transaction_leaves_no_counter_behind() {
        // T1 writes x twice, commits, then writes y after its commit (a
        // write the checker ignores, which T3 reads); T2 overwrites x
        // and writes y.
        // With a pass per event T1 goes once T3's abort unpins it, and
        // the next T1 numbers its writes from 1 — no counter survived,
        // the ignored write's included.
        let mut feed = StreamFeed::new(OnlineChecker::with_gc(crate::GcConfig {
            enabled: true,
            interval: 1,
        }));
        let events = run(
            &mut feed,
            "b1 w1(x) w1(x) c1 w1(y) r3(y1) b2 w2(x) w2(y) c2 a3",
        );
        assert_eq!(seq_of(&events[5]), 1, "r3(y1): T1's one write of y");
        assert!(feed.checker().txns.lookup(TxnId(1)).is_none());
        assert!(feed.checker().txns.lookup(TxnId(2)).is_some());
        assert_eq!(feed.parser().counters(), 2, "T2's x and y only");
        let events = run(&mut feed, "b1 r4(x1) w1(x) w1(y) r4(x1)");
        let seqs: Vec<u32> = events[1..].iter().map(seq_of).collect();
        assert_eq!(seqs, [1, 1, 1, 1], "T1 again: from nothing");

        // A parser with no feed around it keeps counting.
        let mut p = StreamParser::new();
        for tok in "b1 w1(x) w1(x) c1 w1(y) b2 w2(x) w2(y) c2 b1".split_whitespace() {
            p.parse_token(tok).unwrap();
        }
        assert_eq!(seq_of(&p.parse_token("w1(x)").unwrap()), 3);
    }

    #[test]
    fn restore_drops_the_counters_of_transactions_the_checker_let_go() {
        // What a parser that never forgot leaves in an image: a counter
        // of the T1 the checker pruned long ago, held against the T1
        // running now, beside T2's and T3's — x, and z, written after
        // T3 committed.
        let gc = crate::GcConfig {
            enabled: true,
            interval: 1,
        };
        let mut old = StreamParser::new();
        let mut checker = OnlineChecker::with_gc(gc);
        for tok in "b1 w1(x) c1 b2 w2(x) w2(y) c2 b3 w3(x) c3 w3(z)".split_whitespace() {
            checker.ingest(&old.parse_token(tok).unwrap());
        }
        assert!(checker.txns.lookup(TxnId(1)).is_none());
        // A new T1 begins, under which the old one's x still counts.
        checker.ingest(&old.parse_token("b1").unwrap());
        assert_eq!(old.counters(), 5);
        let mut feed = StreamFeed::restore(&old.snapshot(), &checker.snapshot()).unwrap();
        assert_eq!(feed.parser().counters(), 4, "T2's x and y, T3's x and z");
        let events = run(&mut feed, "b1 w1(x) w1(y) w3(z)");
        assert_eq!(seq_of(&events[1]), 1, "T1 again: from nothing");
        assert_eq!(seq_of(&events[3]), 2, "T3 kept its count");
        // T1 commits over T2's y and T3's x, and both go: T3's
        // written-after-commit z with it, though the image never said
        // it was one.
        run(&mut feed, "c1");
        assert!(feed.checker().txns.lookup(TxnId(3)).is_none());
        assert_eq!(feed.parser().counters(), 2, "T1's x and y");
    }

    #[test]
    fn open_at_resumes_a_scan_without_rescanning() {
        let evs = sample_events();
        let buf = encode_log(&evs);
        // First pass: read two records, note the offset.
        let mut r = EventLogReader::open(&buf).unwrap();
        r.next().unwrap().unwrap();
        r.next().unwrap().unwrap();
        let mid = r.offset();
        // Second pass resumes exactly there.
        let mut r2 = EventLogReader::open_at(&buf, mid).unwrap();
        let mut rest = Vec::new();
        while let Some(item) = r2.next() {
            rest.push(item.unwrap());
        }
        assert_eq!(rest, evs[2..]);
        // A torn tail's good_len is a valid resume point: the resumed
        // reader immediately reports the same torn tail.
        let torn = &buf[..buf.len() - 3];
        let (prefix, err) = drain(torn);
        let good_len = match err.unwrap() {
            LogError::TornTail { good_len, .. } => good_len,
            other => panic!("{other:?}"),
        };
        assert_eq!(prefix.len(), evs.len() - 1);
        let mut r3 = EventLogReader::open_at(torn, good_len).unwrap();
        match r3.next().unwrap() {
            Err(LogError::TornTail { good_len: g, .. }) => assert_eq!(g, good_len),
            other => panic!("{other:?}"),
        }
        // Out-of-range offsets are refused.
        assert!(EventLogReader::open_at(&buf, 2).is_err());
        assert!(EventLogReader::open_at(&buf, buf.len() + 1).is_err());
        // At exactly the end the reader is cleanly exhausted.
        assert!(EventLogReader::open_at(&buf, buf.len())
            .unwrap()
            .next()
            .is_none());
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(
            EventLogReader::open(b"not a log at all").err(),
            Some(LogError::BadMagic)
        );
        assert_eq!(EventLogReader::open(b"").err(), Some(LogError::BadMagic));
    }
}
