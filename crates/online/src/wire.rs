//! Low-level byte codec shared by the durable event log
//! ([`encode_record`](crate::encode_record)), the checker's
//! crash/restore snapshots and the session store of `adya-serve`:
//! field encoders, event payloads, and the one definition of the
//! checksummed [`frame`] / [`seal`]ed-container layouts.
//!
//! Everything is little-endian, length-prefixed, and checksummed with
//! CRC-32 (IEEE) so torn writes and bit rot are detected rather than
//! misparsed. No external dependencies: the formats here must be
//! readable by `adya-check` in any build of this workspace.

use std::fmt;

use adya_history::{
    Event, ObjectId, PredicateId, PredicateReadEvent, ReadEvent, Row, TxnId, Value, VersionId,
    VersionKind, WriteEvent,
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ----------------------------------------------------------------------
// Checksummed framing
// ----------------------------------------------------------------------

/// Bytes of frame header before the payload: `[len: u32 LE]
/// [crc32(payload): u32 LE]`.
pub const FRAME_HEADER: usize = 8;

/// Appends `[len][crc32(payload)][payload]` to `out`: one record of
/// the durable event log, and the body of a [`seal`]ed container.
pub fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payloads stay far below 4 GiB");
    out.reserve(FRAME_HEADER + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why the bytes at the head of a buffer are not an intact frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than [`FRAME_HEADER`] bytes are left.
    ShortHeader,
    /// The header declares `len` payload bytes; fewer are present.
    ShortPayload {
        /// Declared payload length.
        len: usize,
    },
    /// All `len` payload bytes are present but fail the checksum.
    Checksum {
        /// Declared payload length.
        len: usize,
    },
}

/// Verifies the frame at the head of `buf` and returns its payload;
/// the frame occupies `FRAME_HEADER + payload.len()` bytes.
pub fn unframe(buf: &[u8]) -> Result<&[u8], FrameError> {
    let Some((header, rest)) = buf.split_first_chunk::<FRAME_HEADER>() else {
        return Err(FrameError::ShortHeader);
    };
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    let payload = rest.get(..len).ok_or(FrameError::ShortPayload { len })?;
    if crc32(payload) != crc {
        return Err(FrameError::Checksum { len });
    }
    Ok(payload)
}

/// Seals `payload` into a self-validating container:
/// `[magic][len][crc32(payload)][payload]` — the on-disk form of a
/// session snapshot.
pub fn seal(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + FRAME_HEADER + payload.len());
    out.extend_from_slice(magic);
    frame(&mut out, payload);
    out
}

/// Opens a [`seal`]ed container, returning the payload only when the
/// magic matches, the checksum holds and the container is exactly as
/// long as it declares — anything else cannot be trusted.
pub fn open<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Option<&'a [u8]> {
    let payload = unframe(bytes.strip_prefix(magic)?).ok()?;
    (bytes.len() == magic.len() + FRAME_HEADER + payload.len()).then_some(payload)
}

/// Decode failure: the input ended early or held an impossible value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the declared structure did.
    Truncated,
    /// A tag, count or checksum made no sense.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated mid-structure"),
            WireError::Malformed(m) => write!(f, "malformed input: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Where an [`Enc`] puts its bytes: a buffer (`Vec<u8>`), or a
/// [`ByteCount`] that only counts them — the sizing pass that lets an
/// image be encoded once, into a buffer of exactly its size.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
    /// Bytes put so far.
    fn written(&self) -> usize;
    /// Overwrites bytes put earlier, from `at` on.
    fn patch(&mut self, at: usize, bytes: &[u8]);
    /// CRC-32 of the bytes put from `at` on.
    fn crc_from(&self, at: usize) -> u32;
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn written(&self) -> usize {
        self.len()
    }

    fn patch(&mut self, at: usize, bytes: &[u8]) {
        self[at..at + bytes.len()].copy_from_slice(bytes);
    }

    fn crc_from(&self, at: usize) -> u32 {
        crc32(&self[at..])
    }
}

/// A [`Sink`] that keeps nothing: how many bytes an encoding takes.
/// Its patches are lost and its checksums are 0, which changes no
/// length. As a [`fmt::Write`] it counts text the same way: how long a
/// rendering is, before it is written into a buffer of that size.
#[derive(Debug, Default)]
pub struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl Sink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn written(&self) -> usize {
        self.0
    }

    fn patch(&mut self, _: usize, _: &[u8]) {}

    fn crc_from(&self, _: usize) -> u32 {
        0
    }
}

/// Byte-string encoder (append-only) over a [`Sink`]: a `Vec<u8>`
/// unless said otherwise.
#[derive(Debug, Default)]
pub struct Enc<S = Vec<u8>> {
    buf: S,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// An empty encoder whose buffer has room for `bytes`.
    pub fn with_capacity(bytes: usize) -> Enc {
        Enc {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl<S: Sink> Enc<S> {
    /// Bytes written so far.
    pub fn written(&self) -> usize {
        self.buf.written()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.put(&[v]);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.put(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.put(&v.to_le_bytes());
    }

    /// Appends a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.put(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a `usize` as u64 (collection sizes, slot indices).
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.put(s.as_bytes());
    }

    /// Appends raw bytes (write a length first — e.g. [`Enc::len`] —
    /// if the decoder needs to find the end).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.put(b);
    }

    /// Appends what `body` writes behind its length as a u64
    /// ([`Enc::len`]), patched in once `body` is done: what
    /// `e.len(b.len()); e.bytes(&b)` writes, without the bytes `b`.
    pub fn len_prefixed(&mut self, body: impl FnOnce(&mut Self)) {
        let at = self.written();
        self.u64(0);
        body(self);
        let len = (self.written() - at - 8) as u64;
        self.buf.patch(at, &len.to_le_bytes());
    }

    /// Appends what `body` writes behind its CRC-32, patched in once
    /// `body` is done.
    pub fn crc_prefixed(&mut self, body: impl FnOnce(&mut Self)) {
        let at = self.written();
        self.u32(0);
        body(self);
        let crc = self.buf.crc_from(at + 4);
        self.buf.patch(at, &crc.to_le_bytes());
    }

    /// Appends `[magic]` and a [`frame`] around what `body` writes, its
    /// length and CRC-32 patched in once `body` is done: the bytes
    /// [`seal`] makes of the same payload, without the payload's copy.
    pub fn sealed(&mut self, magic: &[u8; 8], body: impl FnOnce(&mut Self)) {
        self.bytes(magic);
        let at = self.written();
        self.bytes(&[0; FRAME_HEADER]);
        body(self);
        let len = self.written() - at - FRAME_HEADER;
        let len = u32::try_from(len).expect("frame payloads stay far below 4 GiB");
        let crc = self.buf.crc_from(at + FRAME_HEADER);
        self.buf.patch(at, &len.to_le_bytes());
        self.buf.patch(at + 4, &crc.to_le_bytes());
    }
}

/// Byte-string decoder (a cursor over a slice).
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a bool; anything but 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed(format!("bool byte {b}"))),
        }
    }

    /// Reads a u64 size, refusing values the buffer cannot possibly
    /// hold (each element needs ≥1 byte) so a corrupt count fails fast
    /// instead of allocating gigabytes.
    // A decoder for a length prefix, not a container length.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, WireError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(WireError::Malformed(format!(
                "count {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("non-UTF-8 string".into()))
    }

    /// Reads `n` raw bytes (the counterpart of [`Enc::bytes`]).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }
}

// ----------------------------------------------------------------------
// Event payloads (the durable log's record bodies)
// ----------------------------------------------------------------------

const TAG_BEGIN: u8 = 0;
const TAG_COMMIT: u8 = 1;
const TAG_ABORT: u8 = 2;
const TAG_WRITE: u8 = 3;
const TAG_READ: u8 = 4;
const TAG_PRED_READ: u8 = 5;

const VAL_NONE: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_STR: u8 = 2;
const VAL_BOOL: u8 = 3;
const VAL_TUPLE: u8 = 4;

fn enc_opt_value(e: &mut Enc, v: &Option<Value>) {
    match v {
        None => e.u8(VAL_NONE),
        Some(v) => enc_value(e, v),
    }
}

fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Int(i) => {
            e.u8(VAL_INT);
            e.i64(*i);
        }
        Value::Str(s) => {
            e.u8(VAL_STR);
            e.str(s);
        }
        Value::Bool(b) => {
            e.u8(VAL_BOOL);
            e.bool(*b);
        }
        Value::Tuple(row) => {
            e.u8(VAL_TUPLE);
            e.len(row.len());
            for (k, v) in row.fields() {
                e.str(k);
                enc_value(e, v);
            }
        }
    }
}

fn dec_opt_value(d: &mut Dec<'_>) -> Result<Option<Value>, WireError> {
    match d.u8()? {
        VAL_NONE => Ok(None),
        tag => dec_value_tagged(d, tag).map(Some),
    }
}

fn dec_value_tagged(d: &mut Dec<'_>, tag: u8) -> Result<Value, WireError> {
    match tag {
        VAL_INT => Ok(Value::Int(d.i64()?)),
        VAL_STR => Ok(Value::Str(d.str()?)),
        VAL_BOOL => Ok(Value::Bool(d.bool()?)),
        VAL_TUPLE => {
            let n = d.len()?;
            let mut row = Row::new();
            for _ in 0..n {
                let k = d.str()?;
                let tag = d.u8()?;
                row.set(k, dec_value_tagged(d, tag)?);
            }
            Ok(Value::Tuple(row))
        }
        t => Err(WireError::Malformed(format!("value tag {t}"))),
    }
}

fn enc_version(e: &mut Enc, v: VersionId) {
    e.u32(v.txn.0);
    e.u32(v.seq);
}

fn dec_version(d: &mut Dec<'_>) -> Result<VersionId, WireError> {
    let txn = TxnId(d.u32()?);
    let seq = d.u32()?;
    Ok(VersionId { txn, seq })
}

/// Encodes one [`Event`] as a self-contained payload (no framing).
pub fn encode_event(ev: &Event) -> Vec<u8> {
    let mut e = Enc::new();
    match ev {
        Event::Begin(t) => {
            e.u8(TAG_BEGIN);
            e.u32(t.0);
        }
        Event::Commit(t) => {
            e.u8(TAG_COMMIT);
            e.u32(t.0);
        }
        Event::Abort(t) => {
            e.u8(TAG_ABORT);
            e.u32(t.0);
        }
        Event::Write(w) => {
            e.u8(TAG_WRITE);
            e.u32(w.txn.0);
            e.u32(w.object.0);
            e.u32(w.seq);
            e.u8(match w.kind {
                VersionKind::Unborn => 0,
                VersionKind::Visible => 1,
                VersionKind::Dead => 2,
            });
            enc_opt_value(&mut e, &w.value);
        }
        Event::Read(r) => {
            e.u8(TAG_READ);
            e.u32(r.txn.0);
            e.u32(r.object.0);
            enc_version(&mut e, r.version);
            e.bool(r.through_cursor);
        }
        Event::PredicateRead(p) => {
            e.u8(TAG_PRED_READ);
            e.u32(p.txn.0);
            e.u32(p.predicate.0);
            e.len(p.vset.len());
            for &(o, v) in &p.vset {
                e.u32(o.0);
                enc_version(&mut e, v);
            }
        }
    }
    e.into_bytes()
}

/// Decodes one [`encode_event`] payload. The whole buffer must be
/// consumed — trailing garbage means a framing bug upstream.
pub fn decode_event(bytes: &[u8]) -> Result<Event, WireError> {
    let mut d = Dec::new(bytes);
    let ev = match d.u8()? {
        TAG_BEGIN => Event::Begin(TxnId(d.u32()?)),
        TAG_COMMIT => Event::Commit(TxnId(d.u32()?)),
        TAG_ABORT => Event::Abort(TxnId(d.u32()?)),
        TAG_WRITE => {
            let txn = TxnId(d.u32()?);
            let object = ObjectId(d.u32()?);
            let seq = d.u32()?;
            let kind = match d.u8()? {
                0 => VersionKind::Unborn,
                1 => VersionKind::Visible,
                2 => VersionKind::Dead,
                k => return Err(WireError::Malformed(format!("version kind {k}"))),
            };
            let value = dec_opt_value(&mut d)?;
            Event::Write(WriteEvent {
                txn,
                object,
                seq,
                kind,
                value,
            })
        }
        TAG_READ => {
            let txn = TxnId(d.u32()?);
            let object = ObjectId(d.u32()?);
            let version = dec_version(&mut d)?;
            let through_cursor = d.bool()?;
            Event::Read(ReadEvent {
                txn,
                object,
                version,
                through_cursor,
            })
        }
        TAG_PRED_READ => {
            let txn = TxnId(d.u32()?);
            let predicate = PredicateId(d.u32()?);
            let n = d.len()?;
            let mut vset = Vec::with_capacity(n);
            for _ in 0..n {
                let o = ObjectId(d.u32()?);
                let v = dec_version(&mut d)?;
                vset.push((o, v));
            }
            Event::PredicateRead(PredicateReadEvent {
                txn,
                predicate,
                vset,
            })
        }
        t => return Err(WireError::Malformed(format!("event tag {t}"))),
    };
    if d.remaining() != 0 {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after event",
            d.remaining()
        )));
    }
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The on-disk formats, byte for byte. A session directory written
    /// by any earlier build must keep recovering, so a change that
    /// moves one of these bytes is a format break, not a refactor.
    #[test]
    fn sealed_bytes_are_pinned() {
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        // One event-log record: `w1(x,5)` as T1's first write of
        // object 0.
        let ev = Event::Write(WriteEvent {
            txn: TxnId(1),
            object: ObjectId(0),
            seq: 1,
            kind: VersionKind::Visible,
            value: Some(Value::Int(5)),
        });
        let mut rec = Vec::new();
        frame(&mut rec, &encode_event(&ev));
        assert_eq!(
            hex(&rec),
            "17000000d6e93b3e03010000000000000001000000010105000000\
             00000000"
        );
        assert_eq!(unframe(&rec), Ok(&encode_event(&ev)[..]));
        // One container, under the session-snapshot magic.
        let sealed = seal(b"ADYASRV\x01", b"adya");
        assert_eq!(hex(&sealed), "414459415352560104000000f7bf482961647961");
        assert_eq!(open(b"ADYASRV\x01", &sealed), Some(&b"adya"[..]));
    }

    /// What the in-place writers lay out is what the nested copies do,
    /// and a [`ByteCount`] running the same encoder counts its length.
    #[test]
    fn in_place_layouts_are_the_nested_ones() {
        fn image<S: Sink>(e: &mut Enc<S>) {
            e.sealed(b"ADYASRV\x02", |e| {
                e.u64(7);
                e.len_prefixed(|e| e.str("parser"));
                e.len_prefixed(|e| {
                    e.bytes(b"MAGIC!!!");
                    e.crc_prefixed(|e| e.u32(0xfeed));
                });
                e.len_prefixed(|_| {});
                e.u8(1);
            });
        }
        let mut e = Enc::new();
        image(&mut e);
        let mut count = Enc::<ByteCount>::default();
        image(&mut count);
        assert_eq!(count.written(), e.written());

        let mut parser = Enc::new();
        parser.str("parser");
        let parser = parser.into_bytes();
        let body = 0xfeed_u32.to_le_bytes();
        let checker = [&b"MAGIC!!!"[..], &crc32(&body).to_le_bytes(), &body].concat();
        let mut payload = Enc::new();
        payload.u64(7);
        for part in [&parser[..], &checker, &[]] {
            payload.len(part.len());
            payload.bytes(part);
        }
        payload.u8(1);
        assert_eq!(e.into_bytes(), seal(b"ADYASRV\x02", &payload.into_bytes()));
    }

    #[test]
    fn damaged_frames_and_containers_are_refused() {
        let mut rec = Vec::new();
        frame(&mut rec, b"payload");
        assert_eq!(unframe(&rec[..7]), Err(FrameError::ShortHeader));
        assert_eq!(
            unframe(&rec[..rec.len() - 1]),
            Err(FrameError::ShortPayload { len: 7 })
        );
        let mut flipped = rec.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(unframe(&flipped), Err(FrameError::Checksum { len: 7 }));
        // Trailing bytes belong to the next frame, not this one.
        rec.extend_from_slice(b"next");
        assert_eq!(unframe(&rec), Ok(&b"payload"[..]));

        let sealed = seal(b"ADYASRV\x01", b"adya");
        assert_eq!(open(b"ADYALOG\x01", &sealed), None, "wrong magic");
        assert_eq!(open(b"ADYASRV\x01", &sealed[..sealed.len() - 1]), None);
        assert_eq!(open(b"ADYASRV\x01", &sealed[..5]), None);
        let mut long = sealed.clone();
        long.push(0);
        assert_eq!(open(b"ADYASRV\x01", &long), None, "trailing byte");
        let mut flipped = sealed;
        flipped[17] ^= 1;
        assert_eq!(open(b"ADYASRV\x01", &flipped), None, "payload damage");
    }

    #[test]
    fn events_round_trip() {
        let evs = [
            Event::Begin(TxnId(7)),
            Event::Commit(TxnId(7)),
            Event::Abort(TxnId(0)),
            Event::Write(WriteEvent {
                txn: TxnId(1),
                object: ObjectId(3),
                seq: 2,
                kind: VersionKind::Dead,
                value: None,
            }),
            Event::Write(WriteEvent {
                txn: TxnId(1),
                object: ObjectId(3),
                seq: 3,
                kind: VersionKind::Visible,
                value: Some(Value::Tuple(
                    Row::new().with("dept", "Sales").with("sal", 9i64),
                )),
            }),
            Event::Read(ReadEvent {
                txn: TxnId(2),
                object: ObjectId(0),
                version: VersionId::INIT,
                through_cursor: true,
            }),
            Event::PredicateRead(PredicateReadEvent {
                txn: TxnId(4),
                predicate: PredicateId(1),
                vset: vec![(ObjectId(0), VersionId::new(TxnId(1), 2))],
            }),
        ];
        for ev in &evs {
            let bytes = encode_event(ev);
            assert_eq!(&decode_event(&bytes).unwrap(), ev, "{ev:?}");
        }
    }

    #[test]
    fn truncation_and_garbage_are_detected() {
        let bytes = encode_event(&Event::Read(ReadEvent {
            txn: TxnId(2),
            object: ObjectId(0),
            version: VersionId::new(TxnId(1), 1),
            through_cursor: false,
        }));
        assert_eq!(
            decode_event(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_event(&trailing),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_event(&[99, 0, 0, 0, 0]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn absurd_count_fails_without_allocating() {
        // A PredicateRead whose vset count claims more elements than
        // the buffer has bytes must error out immediately.
        let mut e = Enc::new();
        e.u8(5); // TAG_PRED_READ
        e.u32(1);
        e.u32(1);
        e.u64(u64::MAX);
        assert!(matches!(
            decode_event(&e.into_bytes()),
            Err(WireError::Malformed(_))
        ));
    }
}
