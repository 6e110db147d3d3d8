//! The session-control vocabulary layered over the NDJSON
//! event/verdict framing.
//!
//! One line = one frame. Lines beginning with `{` are control frames;
//! every other non-empty line is whitespace-separated event tokens in
//! the `adya-check --stream` text notation. The server answers with
//! NDJSON only: `ok` acks, verdict lines ([`Verdict::to_json`]),
//! structured `error` frames (the `truncated_input` vocabulary of
//! `adya-check` exit code 3), and a `closing` frame as the last line
//! of every orderly connection end.
//!
//! Client frames:
//!
//! ```text
//! {"op": "hello", "session": "tenant-1"}
//! {"op": "resume", "session": "tenant-1", "verdicts": 12}
//! {"op": "close"}
//! {"op": "promote"}
//! ```
//!
//! `hello` and `resume` accept an optional `"trace": "on"` field: a
//! tracing-enabled server (`--trace-propagate`) then prefixes each
//! *live* verdict line it sends on that connection with the verdict's
//! trace id — `{"trace": "t0123…", <canonical verdict fields>}` — so a
//! client can measure per-verdict round trips. The durable verdict
//! stream and all replayed lines stay canonical (byte-identical with
//! tracing on or off); the annotation is a wire-only prefix the client
//! strips before ledgering.
//!
//! Replication frames (leader → follower, same NDJSON transport; the
//! binary log payloads ride as hex with a CRC-32 the follower verifies
//! before anything touches disk):
//!
//! ```text
//! {"op": "repl_hello", "node": "…", "advertise": "host:port"}
//! {"op": "replicate", "session": "tenant-1"}
//! {"op": "append", "session": "…", "file": "seg-0.log", "off": N, "crc": C, "hex": "…"}
//! {"op": "put", "session": "…", "file": "snap-8.snap", "crc": C, "hex": "…"}
//! {"op": "remove", "session": "…", "file": "seg-0.log"}
//! {"op": "repl_flush", "seq": S}        → {"ack": S} once durable
//! ```
//!
//! An `append` carrying a sampled event record may add
//! `"trace": "t<16 hex>"` — the event's trace id — which the follower
//! stamps into its own trace plane (`replicate` at receipt, `ack` at
//! the next durability barrier) so a merged trace shows both lanes.
//! Nodes without tracing ignore the field (unknown fields always
//! parse), keeping mixed-version replica sets compatible.
//!
//! Frames are read by the workspace's one JSON reader
//! ([`adya_obs::json::parse`]), so any stock encoder's output —
//! `\uXXXX` escapes, `\/`, surrogate pairs — is accepted; what a frame
//! may *say* is exactly the vocabulary above, rejected loudly
//! otherwise.
//!
//! [`Verdict::to_json`]: adya_online::Verdict::to_json

use adya_obs::json::{self, esc, Value};
use adya_online::wire;

use crate::dir::FileName;

/// A parsed client control frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFrame {
    /// Open a brand-new session.
    Hello {
        /// Session name (also the on-disk directory name).
        session: String,
        /// Client opted into per-verdict trace-id annotation.
        trace: bool,
    },
    /// Re-attach to a durable session. `verdicts` is how many commit
    /// verdict lines the client has already received; the server
    /// re-sends everything after that.
    Resume {
        /// Session name.
        session: String,
        /// Commit-verdict lines already delivered to this client.
        verdicts: u64,
        /// Client opted into per-verdict trace-id annotation.
        trace: bool,
    },
    /// Finish the session: final verdict, then a `closing` frame.
    Close,
    /// Turn this follower into the leader (operator frame, or a
    /// client failing over after leader death). Idempotent.
    Promote,
    /// A leader introducing itself on a replication connection.
    ReplHello {
        /// Leader's self-chosen node name (diagnostics only).
        node: String,
        /// Leader's client-facing address, handed back to clients in
        /// `not_leader` redirects.
        advertise: Option<String>,
    },
    /// Open (or re-open) the replication stream for one session; the
    /// follower answers with its durable file inventory.
    Replicate {
        /// Session name.
        session: String,
    },
    /// Append `data` at byte offset `off` of a session file. The
    /// follower verifies `crc` and that `off` matches its durable
    /// length (smaller offsets are idempotent replays, skipped).
    ReplAppend {
        /// Session name.
        session: String,
        /// Target file (validated: `seg-*.log`, `names*.log` only).
        file: String,
        /// Byte offset the payload starts at.
        off: u64,
        /// CRC-32 of the payload.
        crc: u32,
        /// The payload.
        data: Vec<u8>,
        /// Trace id of the sampled event record this append carries,
        /// for cross-node provenance stamping.
        trace: Option<u64>,
    },
    /// Atomically replace a whole session file (snapshots, `closed`).
    ReplPut {
        /// Session name.
        session: String,
        /// Target file (validated: `snap-*.snap`, `names*.log`,
        /// `closed`).
        file: String,
        /// CRC-32 of the payload.
        crc: u32,
        /// The payload.
        data: Vec<u8>,
    },
    /// Delete a session file the leader compacted away.
    ReplRemove {
        /// Session name.
        session: String,
        /// Target file.
        file: String,
    },
    /// Durability barrier: the follower answers `{"ack": seq}` once
    /// everything before it is durable under its fsync policy.
    ReplFlush {
        /// The leader's mutation sequence number.
        seq: u64,
    },
}

/// Parses one `{`-prefixed control line.
pub fn parse_frame(line: &str) -> Result<ClientFrame, String> {
    let doc = json::parse(line)?;
    if !matches!(doc, Value::Object(_)) {
        return Err("control frames are JSON objects".into());
    }
    let op = doc
        .str_at("op")
        .ok_or("control frame is missing a string \"op\"")?;
    let session = || -> Result<String, String> {
        match doc.str_at("session") {
            Some(s) => validate_session_name(s).map(|()| s.to_string()),
            None => Err(format!("{op:?} frame is missing a string \"session\"")),
        }
    };
    let str_of = |key: &str| -> Result<&str, String> {
        doc.str_at(key)
            .ok_or_else(|| format!("{op:?} frame is missing a string \"{key}\""))
    };
    let num_of = |key: &str| -> Result<u64, String> {
        doc.u64_at(key)
            .ok_or_else(|| format!("{op:?} frame is missing an unsigned \"{key}\""))
    };
    let file = || replica_file(str_of("file")?);
    let payload = || -> Result<(u32, Vec<u8>), String> {
        let crc = num_of("crc")?;
        let crc = u32::try_from(crc).map_err(|_| "\"crc\" exceeds 32 bits".to_string())?;
        Ok((crc, decode_hex(str_of("hex")?)?))
    };
    // Optional `"trace": "on"` opt-in (hello/resume).
    let trace_opt_in = || -> Result<bool, String> {
        match doc.get("trace").map(Value::as_str) {
            None | Some(Some("off")) => Ok(false),
            Some(Some("on")) => Ok(true),
            _ => Err("\"trace\" must be \"on\" or \"off\"".into()),
        }
    };
    // Optional `"trace": "t<hex>"` id (replication appends).
    let trace_id = || -> Result<Option<u64>, String> {
        match doc.get("trace").map(Value::as_str) {
            None => Ok(None),
            Some(Some(s)) => adya_obs::parse_trace_id(s)
                .map(Some)
                .ok_or_else(|| format!("bad trace id {s:?}")),
            Some(None) => Err("\"trace\" must be a t-prefixed hex string".into()),
        }
    };
    match op {
        "hello" => Ok(ClientFrame::Hello {
            session: session()?,
            trace: trace_opt_in()?,
        }),
        "resume" => {
            let verdicts = match doc.get("verdicts") {
                Some(n) => n
                    .as_u64()
                    .ok_or("\"verdicts\" must be an unsigned integer")?,
                None => 0,
            };
            Ok(ClientFrame::Resume {
                session: session()?,
                verdicts,
                trace: trace_opt_in()?,
            })
        }
        "close" => Ok(ClientFrame::Close),
        "promote" => Ok(ClientFrame::Promote),
        "repl_hello" => Ok(ClientFrame::ReplHello {
            node: doc.str_at("node").unwrap_or("leader").to_string(),
            advertise: doc.str_at("advertise").map(str::to_string),
        }),
        "replicate" => Ok(ClientFrame::Replicate {
            session: session()?,
        }),
        "append" => {
            let (crc, data) = payload()?;
            let file = file()?;
            if !file.is_append() {
                return Err(format!("\"{file}\" is not appendable"));
            }
            Ok(ClientFrame::ReplAppend {
                session: session()?,
                file: file.to_string(),
                off: num_of("off")?,
                crc,
                data,
                trace: trace_id()?,
            })
        }
        "put" => {
            let (crc, data) = payload()?;
            Ok(ClientFrame::ReplPut {
                session: session()?,
                file: file()?.to_string(),
                crc,
                data,
            })
        }
        "remove" => Ok(ClientFrame::ReplRemove {
            session: session()?,
            file: file()?.to_string(),
        }),
        "repl_flush" => Ok(ClientFrame::ReplFlush {
            seq: num_of("seq")?,
        }),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Session names become directory names, so they are restricted to a
/// conservative portable set and may not start with a dot.
pub fn validate_session_name(name: &str) -> Result<(), String> {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.');
    if name.is_empty() || name.len() > 64 {
        return Err("session names are 1..=64 characters".into());
    }
    if name.starts_with('.') || !name.chars().all(ok_char) {
        return Err(format!(
            "bad session name {name:?}: use [A-Za-z0-9._-], no leading dot"
        ));
    }
    Ok(())
}

/// Replication may only touch the files of the session-directory
/// grammar ([`FileName`]); anything else from a peer — however
/// well-formed its JSON — is rejected before it can name a path.
pub fn replica_file(name: &str) -> Result<FileName, String> {
    FileName::parse(name).ok_or_else(|| format!("{name:?} is not a session log file"))
}

/// Lowercase hex of `bytes`, for replication payloads.
pub fn encode_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

/// Decodes a replication hex payload; malformed input is an error,
/// never a panic — it arrives off the network.
pub fn decode_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("hex payload has odd length".into());
    }
    let nib = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("bad hex byte {:?}", c as char)),
        }
    };
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len() / 2);
    for pair in b.chunks_exact(2) {
        out.push((nib(pair[0])? << 4) | nib(pair[1])?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Leader → follower frames
// ---------------------------------------------------------------------

/// `append`: `bytes` at byte offset `off` of a session file, with the
/// CRC-32 the follower verifies and, for a sampled event record, its
/// trace id.
pub fn append_frame(
    session: &str,
    file: FileName,
    off: u64,
    bytes: &[u8],
    trace: Option<u64>,
) -> String {
    let trace = match trace {
        Some(id) => format!(", \"trace\": \"{}\"", adya_obs::fmt_trace_id(id)),
        None => String::new(),
    };
    format!(
        "{{\"op\": \"append\", \"session\": \"{}\", \"file\": \"{file}\", \"off\": {off}, \
         \"crc\": {}, \"hex\": \"{}\"{trace}}}",
        esc(session),
        wire::crc32(bytes),
        encode_hex(bytes)
    )
}

/// `put`: whole-file replacement.
pub fn put_frame(session: &str, file: FileName, bytes: &[u8]) -> String {
    format!(
        "{{\"op\": \"put\", \"session\": \"{}\", \"file\": \"{file}\", \"crc\": {}, \
         \"hex\": \"{}\"}}",
        esc(session),
        wire::crc32(bytes),
        encode_hex(bytes)
    )
}

/// `remove`: a file the leader compacted away.
pub fn remove_frame(session: &str, file: FileName) -> String {
    format!(
        "{{\"op\": \"remove\", \"session\": \"{}\", \"file\": \"{file}\"}}",
        esc(session)
    )
}

// ---------------------------------------------------------------------
// Server → client frames
// ---------------------------------------------------------------------

/// Ack for a successful `hello`/`resume`. `events` is the number of
/// durable event records (the client resends its token stream from
/// that index); `verdicts` is the number of durable commit verdicts;
/// `replay` is how many verdict lines follow this ack immediately.
pub fn ok_frame(op: &str, session: &str, events: u64, verdicts: u64, replay: u64) -> String {
    format!(
        "{{\"ok\": \"{}\", \"session\": \"{}\", \"events\": {events}, \
         \"verdicts\": {verdicts}, \"replay\": {replay}}}",
        esc(op),
        esc(session),
    )
}

/// A structured error frame. `code` is machine-readable (the
/// `truncated_input` vocabulary plus the session-control codes);
/// `detail` is for humans.
pub fn error_frame(code: &str, detail: &str) -> String {
    format!(
        "{{\"error\": \"{}\", \"detail\": \"{}\"}}",
        esc(code),
        esc(detail)
    )
}

/// Durability ack for a `repl_flush` barrier.
pub fn ack_frame(seq: u64) -> String {
    format!("{{\"ack\": {seq}}}")
}

/// Follower's answer to `replicate`: its durable file inventory for
/// the session, encoded as one `name:len,name:len` string so it stays
/// inside the flat string/uint frame vocabulary. Absent files are
/// simply not listed — the leader ships anything missing in full.
pub fn inventory_frame(session: &str, files: &[(FileName, u64)]) -> String {
    let listing = files
        .iter()
        .map(|(name, len)| format!("{name}:{len}"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"ok\": \"replicate\", \"session\": \"{}\", \"files\": \"{}\"}}",
        esc(session),
        esc(&listing),
    )
}

/// Parses the `files` listing of an [`inventory_frame`] back into
/// `(name, len)` pairs; file names are re-read through the grammar —
/// the follower is a network peer too — and a listing that names one
/// file twice is refused: it has no one length to ship from.
pub fn parse_inventory(listing: &str) -> Result<Vec<(FileName, u64)>, String> {
    let mut out: Vec<(FileName, u64)> = Vec::new();
    for part in listing.split(',').filter(|p| !p.is_empty()) {
        let (name, len) = part
            .rsplit_once(':')
            .ok_or_else(|| format!("inventory entry {part:?} has no ':'"))?;
        let name = replica_file(name)?;
        let len = (len.bytes().all(|b| b.is_ascii_digit()))
            .then(|| len.parse::<u64>().ok())
            .flatten()
            .ok_or_else(|| format!("inventory entry {part:?} has a bad length"))?;
        if out.iter().any(|&(f, _)| f == name) {
            return Err(format!("inventory names {name} twice"));
        }
        out.push((name, len));
    }
    Ok(out)
}

/// Refusal sent by a follower to ordinary client frames. `leader` is
/// the advertised address of the node this follower last replicated
/// from, when known — clients redirect there first.
pub fn not_leader_frame(leader: Option<&str>) -> String {
    match leader {
        Some(addr) => format!(
            "{{\"error\": \"not_leader\", \"detail\": \"this node is a follower\", \
             \"leader\": \"{}\"}}",
            esc(addr)
        ),
        None => error_frame("not_leader", "this node is a follower"),
    }
}

/// Refusal for a resume whose verdict ledger is ahead of this node's
/// durable history (a freshly promoted follower that was lagging).
/// `durable` tells the client how many commit verdicts this node can
/// stand behind; the client truncates its ledger to that count and
/// re-sends the suffix of its token stream.
pub fn verdicts_ahead_frame(have: u64, durable: u64) -> String {
    format!(
        "{{\"error\": \"verdicts_ahead\", \"detail\": \"client holds {have} verdicts, \
         server has {durable} durable\", \"durable\": {durable}}}"
    )
}

/// The last frame of an orderly connection end. `why` is `close`
/// (client asked), `detach` (client went away; session stays durable),
/// `idle` (no read progress past the idle deadline; session parked) or
/// `shutdown` (server is draining).
pub fn closing_frame(why: &str, session: Option<&str>, events: u64, verdicts: u64) -> String {
    let session = match session {
        Some(s) => format!("\"{}\"", esc(s)),
        None => "null".into(),
    };
    format!(
        "{{\"closing\": \"{}\", \"session\": {session}, \"events\": {events}, \
         \"verdicts\": {verdicts}}}",
        esc(why),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_frames() {
        assert_eq!(
            parse_frame("{\"op\": \"hello\", \"session\": \"t1\"}").unwrap(),
            ClientFrame::Hello {
                session: "t1".into(),
                trace: false,
            }
        );
        assert_eq!(
            parse_frame("{\"op\":\"resume\",\"session\":\"t1\",\"verdicts\":12}").unwrap(),
            ClientFrame::Resume {
                session: "t1".into(),
                verdicts: 12,
                trace: false,
            }
        );
        // verdicts defaults to 0.
        assert_eq!(
            parse_frame("{\"op\":\"resume\",\"session\":\"x\"}").unwrap(),
            ClientFrame::Resume {
                session: "x".into(),
                verdicts: 0,
                trace: false,
            }
        );
        assert_eq!(
            parse_frame("{\"op\":\"close\"}").unwrap(),
            ClientFrame::Close
        );
    }

    #[test]
    fn rejects_malformed_frames() {
        for bad in [
            "{",
            "{}",
            "{\"op\": \"hello\"}",                        // no session
            "{\"op\": \"nope\", \"session\": \"x\"}",     // unknown op
            "{\"op\": \"hello\", \"session\": \"../x\"}", // path escape
            "{\"op\": \"hello\", \"session\": \".x\"}",   // leading dot
            "{\"op\": \"hello\", \"session\": \"\"}",     // empty
            "{\"op\": \"close\"} trailing",
            "{\"op\": 3}",
            "not json",
        ] {
            assert!(parse_frame(bad).is_err(), "{bad}");
        }
        let long = format!("{{\"op\":\"hello\",\"session\":\"{}\"}}", "a".repeat(65));
        assert!(parse_frame(&long).is_err());
    }

    #[test]
    fn frames_render_as_single_lines() {
        for s in [
            ok_frame("resume", "t1", 7, 3, 1),
            error_frame("truncated_input", "torn tail after byte 91"),
            closing_frame("shutdown", Some("t1"), 7, 3),
            closing_frame("detach", None, 0, 0),
        ] {
            assert!(!s.contains('\n'), "{s}");
            assert!(s.starts_with('{') && s.ends_with('}'), "{s}");
        }
        assert!(ok_frame("hello", "t", 0, 0, 0).contains("\"ok\": \"hello\""));
        assert!(closing_frame("close", Some("t"), 1, 2).contains("\"closing\": \"close\""));
    }

    #[test]
    fn parses_replication_frames() {
        assert_eq!(
            parse_frame("{\"op\": \"promote\"}").unwrap(),
            ClientFrame::Promote
        );
        assert_eq!(
            parse_frame("{\"op\": \"repl_hello\", \"node\": \"n1\", \"advertise\": \"h:1\"}")
                .unwrap(),
            ClientFrame::ReplHello {
                node: "n1".into(),
                advertise: Some("h:1".into()),
            }
        );
        assert_eq!(
            parse_frame("{\"op\": \"replicate\", \"session\": \"t1\"}").unwrap(),
            ClientFrame::Replicate {
                session: "t1".into()
            }
        );
        let hex = encode_hex(b"\x00\xff magic");
        let append = format!(
            "{{\"op\": \"append\", \"session\": \"t1\", \"file\": \"seg-0.log\", \
             \"off\": 32, \"crc\": 7, \"hex\": \"{hex}\"}}"
        );
        assert_eq!(
            parse_frame(&append).unwrap(),
            ClientFrame::ReplAppend {
                session: "t1".into(),
                file: "seg-0.log".into(),
                off: 32,
                crc: 7,
                data: b"\x00\xff magic".to_vec(),
                trace: None,
            }
        );
        assert_eq!(
            parse_frame(
                "{\"op\": \"put\", \"session\": \"t1\", \"file\": \"snap-8.snap\", \
                 \"crc\": 0, \"hex\": \"\"}"
            )
            .unwrap(),
            ClientFrame::ReplPut {
                session: "t1".into(),
                file: "snap-8.snap".into(),
                crc: 0,
                data: Vec::new(),
            }
        );
        assert_eq!(
            parse_frame("{\"op\": \"remove\", \"session\": \"t1\", \"file\": \"seg-0.log\"}")
                .unwrap(),
            ClientFrame::ReplRemove {
                session: "t1".into(),
                file: "seg-0.log".into(),
            }
        );
        assert_eq!(
            parse_frame("{\"op\": \"repl_flush\", \"seq\": 41}").unwrap(),
            ClientFrame::ReplFlush { seq: 41 }
        );
    }

    #[test]
    fn trace_fields_parse_and_reject_garbage() {
        assert_eq!(
            parse_frame("{\"op\": \"hello\", \"session\": \"t1\", \"trace\": \"on\"}").unwrap(),
            ClientFrame::Hello {
                session: "t1".into(),
                trace: true,
            }
        );
        assert_eq!(
            parse_frame("{\"op\": \"resume\", \"session\": \"t1\", \"trace\": \"off\"}").unwrap(),
            ClientFrame::Resume {
                session: "t1".into(),
                verdicts: 0,
                trace: false,
            }
        );
        let id = adya_obs::trace_id("t1", 32);
        let append = format!(
            "{{\"op\": \"append\", \"session\": \"t1\", \"file\": \"seg-0.log\", \
             \"off\": 8, \"crc\": {}, \"hex\": \"00\", \"trace\": \"{}\"}}",
            adya_online::wire::crc32(&[0]),
            adya_obs::fmt_trace_id(id)
        );
        match parse_frame(&append).unwrap() {
            ClientFrame::ReplAppend { trace, .. } => assert_eq!(trace, Some(id)),
            other => panic!("parsed as {other:?}"),
        }
        for bad in [
            "{\"op\": \"hello\", \"session\": \"t1\", \"trace\": \"loud\"}",
            "{\"op\": \"hello\", \"session\": \"t1\", \"trace\": 1}",
            "{\"op\": \"append\", \"session\": \"t1\", \"file\": \"seg-0.log\", \
             \"off\": 0, \"crc\": 0, \"hex\": \"\", \"trace\": \"zebra\"}",
        ] {
            assert!(parse_frame(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn stock_encoder_escapes_are_accepted() {
        // What Python's json.dumps emits for non-ASCII text, plus the
        // optional `\/`: refused as "unsupported escape" before the
        // shared reader, although the server itself emits `\u00XX`.
        assert_eq!(
            parse_frame(
                r#"{"op": "repl_hello", "node": "caf\u00e9 \ud83d\ude00", "advertise": "h\/1:9\r"}"#
            )
            .unwrap(),
            ClientFrame::ReplHello {
                node: "café 😀".into(),
                advertise: Some("h/1:9\r".into()),
            }
        );
        // Escapes in a session name decode *before* validation: an
        // escaped spelling opens the same session as the plain one,
        // and an escaped path separator is still a bad name.
        for op in ["hello", "resume"] {
            let frame =
                format!(r#"{{"op": "{op}", "session": "t\u0065nant-1", "x": "caf\u00e9"}}"#);
            match parse_frame(&frame).unwrap() {
                ClientFrame::Hello { session, .. } | ClientFrame::Resume { session, .. } => {
                    assert_eq!(session, "tenant-1")
                }
                other => panic!("parsed as {other:?}"),
            }
        }
        for bad in [
            r#"{"op": "hello", "session": "a\/b"}"#,
            r#"{"op": "hello", "session": "caf\u00e9"}"#,
            r#"{"op": "hello", "session": "t\ud800"}"#, // lone surrogate
            r#"{"op": "hello", "session": ["t1"]}"#,
            r#"["op", "hello"]"#,
        ] {
            assert!(parse_frame(bad).is_err(), "{bad}");
        }
        // Values outside the flat vocabulary no longer poison a frame
        // that does not use them (unknown fields always parse).
        assert_eq!(
            parse_frame(r#"{"op": "close", "meta": {"tags": [1, true, null]}}"#).unwrap(),
            ClientFrame::Close
        );
    }

    #[test]
    fn rejects_malicious_replication_frames() {
        for bad in [
            // Path escapes and non-log files must die in the parser.
            "{\"op\": \"remove\", \"session\": \"t\", \"file\": \"../seg-0.log\"}",
            "{\"op\": \"remove\", \"session\": \"t\", \"file\": \"/etc/passwd\"}",
            "{\"op\": \"remove\", \"session\": \"t\", \"file\": \"seg-x.log\"}",
            // Non-canonical numbers would alias or escape the layout.
            "{\"op\": \"remove\", \"session\": \"t\", \"file\": \"seg-+5.log\"}",
            "{\"op\": \"remove\", \"session\": \"t\", \"file\": \"seg-05.log\"}",
            "{\"op\": \"put\", \"session\": \"t\", \"crc\": 0, \"hex\": \"\", \
             \"file\": \"seg-99999999999999999999999.log\"}",
            "{\"op\": \"put\", \"session\": \"t\", \"file\": \"evil\", \"crc\": 0, \"hex\": \"\"}",
            // Snapshots are put-only, never appended.
            "{\"op\": \"append\", \"session\": \"t\", \"file\": \"snap-1.snap\", \
             \"off\": 0, \"crc\": 0, \"hex\": \"\"}",
            // Bad hex, odd hex, oversized crc.
            "{\"op\": \"put\", \"session\": \"t\", \"file\": \"closed\", \"crc\": 0, \
             \"hex\": \"zz\"}",
            "{\"op\": \"put\", \"session\": \"t\", \"file\": \"closed\", \"crc\": 0, \
             \"hex\": \"abc\"}",
            "{\"op\": \"put\", \"session\": \"t\", \"file\": \"closed\", \
             \"crc\": 4294967296, \"hex\": \"\"}",
            "{\"op\": \"repl_flush\"}",
        ] {
            assert!(parse_frame(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn replica_file_vocabulary() {
        for good in [
            "seg-0.log",
            "seg-1024.log",
            "names.log",
            "names-0.log",
            "names-77.log",
            "snap-8.snap",
            "closed",
        ] {
            assert!(replica_file(good).is_ok(), "{good}");
        }
        // The grammar itself is `dir::FileName`'s (tested there).
        for bad in [
            "seg-.log",
            "snap-.snap",
            "names-.log",
            "seg-0.snap",
            "seg-+5.log",
            "",
        ] {
            assert!(replica_file(bad).is_err(), "{bad}");
        }
    }

    // decode∘encode = id for both codecs is a seeded property in
    // `tests/file_names.rs`; these are the hostile inputs.
    #[test]
    fn hostile_inventories_and_hex_are_refused() {
        for hostile in [
            // Truncated entries.
            "seg-0.log",
            "seg-0.log:",
            ":5",
            "seg-0.log:12,names",
            // Bad lengths.
            "seg-0.log:-1",
            "seg-0.log:+5",
            "seg-0.log: 5",
            "seg-0.log:18446744073709551616",
            // Names outside the grammar.
            "../x:3",
            "closed:1,evil:1",
            // One file twice.
            "seg-0.log:3,seg-0.log:5",
        ] {
            assert!(parse_inventory(hostile).is_err(), "{hostile}");
        }
        assert_eq!(parse_inventory(""), Ok(Vec::new()));
        for hostile in ["a", "abc", "zz", "0g", "é", "\0", " 0"] {
            assert!(decode_hex(hostile).is_err(), "{hostile:?}");
        }
        assert_eq!(decode_hex("DEADbeef"), Ok(vec![0xde, 0xad, 0xbe, 0xef]));
    }
}
