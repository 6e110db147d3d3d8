//! A std-only TCP client for the `adya-serve` session protocol, with
//! crash-resumable streaming.
//!
//! The client keeps the two ledgers the resume contract is built on:
//! every event token it has ever sent (in order) and every verdict
//! line it has ever received. After the server dies — mid-stream,
//! mid-verdict, whenever — [`ServeClient::resume`] reconnects under
//! the [`RetryPolicy`] backoff schedule, tells the server how many
//! verdicts it holds, appends the replayed tail, and re-sends exactly
//! the suffix of tokens the server never made durable. The resulting
//! verdict ledger is byte-identical to an uninterrupted run, which is
//! the property `tests/serve.rs`, `tests/replica.rs` and the ledger's
//! `serve-recover` oracle assert.
//!
//! Tokens go one per line, so the server's durable record count maps
//! 1:1 onto an index into the token ledger — the resume ack's
//! `events` field says precisely where re-sending starts.
//!
//! Failover: the address may be a comma-separated endpoint list
//! (leader first, then followers). A `not_leader` refusal adopts the
//! frame's `leader` hint; a transport error rotates to the next
//! endpoint. When every endpoint has refused with `not_leader` twice —
//! the leader is dead and no follower has been promoted — the client
//! promotes the follower it is connected to and resumes there. A
//! promoted follower that lost acknowledged-but-unreplicated verdicts
//! answers `verdicts_ahead` with its durable count; the client
//! truncates its verdict ledger to that count and re-sends the token
//! suffix, and checker determinism regenerates the lost verdicts
//! byte-identically.

use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use adya_obs::json::{self, Value};
use adya_obs::write_line;

use crate::retry::RetryPolicy;

/// A connected (or resumable) session against an `adya-serve` replica
/// set (one or more endpoints).
#[derive(Debug)]
pub struct ServeClient {
    /// Known endpoints; grows when a `not_leader` hint names a new one.
    endpoints: Vec<String>,
    /// Index of the endpoint currently (or last) connected.
    current: usize,
    session: String,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    /// Every event token ever sent, in order (one server record each).
    tokens: Vec<String>,
    /// Every verdict line ever received, in order.
    verdicts: Vec<String>,
    /// Consecutive `not_leader` refusals since the last success; at
    /// two full laps of the endpoint list the client promotes.
    promote_streak: usize,
    /// `truncated_input` notices surfaced by resumes, oldest first.
    pub truncated_notices: Vec<String>,
    /// Ask the server for trace-annotated verdict lines (`"trace":
    /// "on"` in hello/resume). The annotation is stripped before
    /// ledgering — the ledger stays byte-identical either way — and
    /// each annotated verdict contributes a `(trace id, rtt)` sample.
    trace: bool,
    /// Client-observed round trips for trace-annotated commits:
    /// `(trace id, nanoseconds from token send to verdict receipt)`.
    rtts: Vec<(u64, u64)>,
}

/// A client-side protocol failure (transport errors come as
/// [`ClientError::Io`], server `error` frames as
/// [`ClientError::Server`]).
#[derive(Debug)]
pub enum ClientError {
    /// Socket/transport trouble.
    Io(io::Error),
    /// The server answered with a structured error frame: `(code,
    /// full line)`.
    Server(String, String),
    /// The server's reply was missing a required field.
    Protocol(String),
    /// Reconnect attempts exhausted under the retry policy.
    GaveUp,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "serve client i/o: {e}"),
            ClientError::Server(code, line) => write!(f, "server error {code}: {line}"),
            ClientError::Protocol(detail) => write!(f, "malformed server reply: {detail}"),
            ClientError::GaveUp => write!(f, "reconnect attempts exhausted"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// `true` for the tokens that make the server emit one verdict line.
/// Only commits (`c<N>`) do: aborts feed the checker but produce no
/// verdict, so waiting for a line after `a<N>` would stall the stream.
fn is_commit_token(tok: &str) -> bool {
    tok.strip_prefix('c')
        .is_some_and(|rest| !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit()))
}

/// Parses one server control frame with the workspace's JSON reader.
/// A line that is not JSON reads as `null`, so every field lookup on
/// it misses and the caller reports a protocol error with the line.
fn frame(line: &str) -> Value {
    json::parse(line).unwrap_or(Value::Null)
}

impl ServeClient {
    /// Connects and opens a brand-new session. `addr` may be a comma-
    /// separated endpoint list; a `not_leader` refusal follows the
    /// redirect (or rotates) until an endpoint accepts.
    pub fn hello(addr: &str, session: &str) -> Result<ServeClient, ClientError> {
        ServeClient::hello_traced(addr, session, false)
    }

    /// Like [`hello`](ServeClient::hello), optionally opting into
    /// trace-annotated verdict lines for latency provenance. Requires
    /// a server running with `--trace-propagate` to have any effect;
    /// the verdict ledger is byte-identical either way.
    pub fn hello_traced(
        addr: &str,
        session: &str,
        trace: bool,
    ) -> Result<ServeClient, ClientError> {
        let endpoints: Vec<String> = addr
            .split(',')
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect();
        if endpoints.is_empty() {
            return Err(ClientError::Protocol("empty endpoint list".into()));
        }
        let mut client = ServeClient {
            endpoints,
            current: 0,
            session: session.to_string(),
            conn: None,
            tokens: Vec::new(),
            verdicts: Vec::new(),
            promote_streak: 0,
            truncated_notices: Vec::new(),
            trace,
            rtts: Vec::new(),
        };
        let opt_in = if trace { ", \"trace\": \"on\"" } else { "" };
        let mut redirects = 0;
        loop {
            client.connect()?;
            client.send_frame(format!(
                "{{\"op\": \"hello\", \"session\": \"{session}\"{opt_in}}}"
            ))?;
            let ack = client.read_line()?;
            let reply = frame(&ack);
            if reply.str_at("ok") == Some("hello") {
                return Ok(client);
            }
            if reply.str_at("error") == Some("not_leader") && redirects <= client.endpoints.len() {
                redirects += 1;
                client.adopt_leader_hint(&ack);
                continue;
            }
            return Err(server_error(ack));
        }
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(&self.endpoints[self.current])?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        self.conn = Some((stream, reader));
        Ok(())
    }

    /// Moves `current` to the frame's `leader` hint (learning new
    /// endpoints on the fly), or to the next endpoint when the refusing
    /// node does not know where the leader is.
    fn adopt_leader_hint(&mut self, line: &str) {
        match frame(line).str_at("leader") {
            Some(hint) => match self.endpoints.iter().position(|e| e == hint) {
                Some(i) => self.current = i,
                None => {
                    self.endpoints.push(hint.to_string());
                    self.current = self.endpoints.len() - 1;
                }
            },
            None => self.rotate(),
        }
    }

    fn rotate(&mut self) {
        self.current = (self.current + 1) % self.endpoints.len();
    }

    fn conn_mut(&mut self) -> io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        self.conn.as_mut().ok_or_else(not_connected)
    }

    /// Sends one frame, its newline in the same write (`write_line`):
    /// a frame and its newline written apart are two segments and two
    /// wake-ups of the server's connection thread.
    fn send_frame(&mut self, mut frame: String) -> io::Result<()> {
        let (stream, _) = self.conn_mut()?;
        write_line(stream, &mut frame)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let (_, reader) = self.conn_mut()?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// The verdict ledger so far (commit verdict lines, in order;
    /// aborts emit none).
    pub fn verdicts(&self) -> &[String] {
        &self.verdicts
    }

    /// Event tokens sent so far.
    pub fn tokens_sent(&self) -> usize {
        self.tokens.len()
    }

    /// Client-observed `(trace id, rtt ns)` samples for annotated
    /// commit verdicts — the outermost bracket around the server's
    /// per-stage provenance. Empty unless the client opted in *and*
    /// the server propagates traces.
    pub fn trace_rtts(&self) -> &[(u64, u64)] {
        &self.rtts
    }

    /// Streams one event token; when it is a commit the verdict line
    /// is read and appended to the ledger (aborts produce no server
    /// response). An [`Err`] leaves the ledgers consistent for a later
    /// [`resume`].
    ///
    /// [`resume`]: ServeClient::resume
    pub fn send_token(&mut self, tok: &str) -> Result<(), ClientError> {
        // The ledger's copy is the one the wire push writes from; the
        // byte to spare is the newline it goes out with.
        let mut owned = String::with_capacity(tok.len() + 1);
        owned.push_str(tok);
        self.tokens.push(owned);
        self.push_token_to_wire(self.tokens.len() - 1)
    }

    /// Sends ledger token `i` and, for a commit, reads its verdict.
    fn push_token_to_wire(&mut self, i: usize) -> Result<(), ClientError> {
        let is_commit = is_commit_token(&self.tokens[i]);
        let sent_at = (self.trace && is_commit).then(Instant::now);
        // Borrowed field by field: the ledger's token is written in place.
        let (stream, _) = self.conn.as_mut().ok_or_else(not_connected)?;
        write_line(stream, &mut self.tokens[i])?;
        if is_commit {
            let mut line = self.read_line()?;
            if line.starts_with("{\"error\"") {
                return Err(server_error(line));
            }
            if self.trace {
                // Mechanically strip the wire-only annotation so the
                // ledger keeps the canonical verdict bytes.
                let (tid, canonical) = strip_trace(&line);
                if let (Some(id), Some(t0)) = (tid, sent_at) {
                    self.rtts.push((id, t0.elapsed().as_nanos() as u64));
                }
                line = canonical;
            }
            self.verdicts.push(line);
        }
        Ok(())
    }

    /// Reconnects and resumes after a server death or dropped
    /// connection, retrying under `policy` (seeded jitter, exponential
    /// backoff). `session_busy` is retried too: the previous owner of
    /// the session may still be detaching (or the server may be
    /// recovering it for another connection), and the server's idle
    /// deadline guarantees a vanished owner eventually releases it.
    ///
    /// Failover rides the same loop: transport errors rotate the
    /// endpoint, `not_leader` refusals follow the redirect hint, and
    /// two full laps of refusals promote the follower this client is
    /// connected to. On success the verdict ledger has absorbed the
    /// server's replay and every token the server lost has been
    /// re-sent.
    pub fn resume(&mut self, policy: &RetryPolicy, seed: u64) -> Result<(), ClientError> {
        let mut retry = policy.session(seed);
        loop {
            match self.try_resume() {
                Ok(()) => {
                    self.promote_streak = 0;
                    return Ok(());
                }
                Err(ClientError::Io(_)) => {
                    adya_obs::counter!("serve_client.reconnect_failures").inc();
                    self.rotate();
                }
                Err(ClientError::Server(code, _)) if code == "session_busy" => {
                    adya_obs::counter!("serve_client.busy_retries").inc();
                }
                Err(ClientError::Server(code, line)) if code == "not_leader" => {
                    adya_obs::counter!("serve_client.not_leader").inc();
                    self.promote_streak += 1;
                    if self.promote_streak >= 2 * self.endpoints.len() {
                        // Every endpoint refused twice with no leader
                        // among them: the leader is dead and nobody
                        // was promoted. Promote the follower on the
                        // other end of this still-open connection.
                        if self.promote().is_ok() {
                            self.promote_streak = 0;
                            continue;
                        }
                    } else {
                        self.adopt_leader_hint(&line);
                    }
                }
                Err(ClientError::Server(code, line)) if code == "verdicts_ahead" => {
                    // A promoted follower that lost our acknowledged
                    // tail: roll the ledger back to what it holds and
                    // regenerate the rest by re-sending tokens —
                    // checker determinism makes the regenerated lines
                    // byte-identical.
                    let durable = frame(&line).u64_at("durable").ok_or_else(|| {
                        ClientError::Protocol(format!("verdicts_ahead missing durable: {line}"))
                    })? as usize;
                    adya_obs::counter!("serve_client.verdict_rollbacks").inc();
                    self.verdicts.truncate(durable);
                }
                Err(e) => return Err(e),
            }
            if !retry.admit_op() {
                return Err(ClientError::GaveUp);
            }
            for _ in 0..retry.backoff_spins() {
                std::thread::yield_now();
            }
            // A spin of yields is too fast for a process restart or an
            // idle-deadline release; stretch the tail with a real
            // sleep.
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Promotes the node on the other end of the open connection.
    fn promote(&mut self) -> Result<(), ClientError> {
        self.send_frame("{\"op\": \"promote\"}".to_string())?;
        let ack = self.read_line()?;
        if frame(&ack).str_at("ok") != Some("promote") {
            return Err(server_error(ack));
        }
        adya_obs::counter!("serve_client.promotions").inc();
        Ok(())
    }

    fn try_resume(&mut self) -> Result<(), ClientError> {
        self.connect()?;
        adya_obs::counter!("serve_client.resumes").inc();
        let opt_in = if self.trace {
            ", \"trace\": \"on\""
        } else {
            ""
        };
        self.send_frame(format!(
            "{{\"op\": \"resume\", \"session\": \"{}\", \"verdicts\": {}{opt_in}}}",
            self.session,
            self.verdicts.len()
        ))?;
        let mut ack = self.read_line()?;
        // A torn-tail healing notice precedes the ack.
        if frame(&ack).str_at("error") == Some("truncated_input") {
            self.truncated_notices.push(ack);
            ack = self.read_line()?;
        }
        let reply = frame(&ack);
        if reply.str_at("ok") != Some("resume") {
            return Err(server_error(ack));
        }
        let field = |key: &str| {
            reply
                .u64_at(key)
                .ok_or_else(|| ClientError::Protocol(format!("resume ack missing {key}: {ack}")))
        };
        let durable = field("events")? as usize;
        let replay = field("replay")?;
        for _ in 0..replay {
            let line = self.read_line()?;
            self.verdicts.push(line);
        }
        // Re-send everything the server never logged.
        for i in durable..self.tokens.len() {
            self.push_token_to_wire(i)?;
        }
        Ok(())
    }

    /// Closes the session; returns the final (`"final": true`) verdict
    /// line. The `closing` frame is consumed and verified.
    pub fn close(mut self) -> Result<String, ClientError> {
        self.send_frame("{\"op\": \"close\"}".to_string())?;
        let fin = self.read_line()?;
        if fin.starts_with("{\"error\"") {
            return Err(server_error(fin));
        }
        let closing = self.read_line()?;
        if frame(&closing).str_at("closing") != Some("close") {
            return Err(server_error(closing));
        }
        Ok(fin)
    }
}

fn not_connected() -> io::Error {
    io::Error::new(io::ErrorKind::NotConnected, "not connected")
}

fn server_error(line: String) -> ClientError {
    let code = frame(&line)
        .str_at("error")
        .unwrap_or("protocol")
        .to_string();
    ClientError::Server(code, line)
}

/// Splits a live verdict line into its optional wire-only trace
/// annotation and the canonical verdict bytes. Lines without the
/// annotation (server not propagating, or replayed/durable lines,
/// which are always canonical) pass through untouched.
fn strip_trace(line: &str) -> (Option<u64>, String) {
    let Some(rest) = line.strip_prefix("{\"trace\": \"") else {
        return (None, line.to_string());
    };
    let parsed = rest.find('"').and_then(|q| {
        let id = adya_obs::parse_trace_id(&rest[..q])?;
        let tail = rest[q + 1..].strip_prefix(", ")?;
        Some((id, format!("{{{tail}")))
    });
    match parsed {
        Some((id, canonical)) => (Some(id), canonical),
        None => (None, line.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_token_classification() {
        for t in ["c1", "c42", "c107"] {
            assert!(is_commit_token(t), "{t}");
        }
        // Aborts produce no verdict line, so they must not be treated
        // as verdict-producing — a client waiting after `a1` would
        // stall until the read timeout.
        for t in [
            "a1", "a107", "b1", "w1(x,1)", "r1(x1)", "c", "a", "cx", "c1x", "xinit",
        ] {
            assert!(!is_commit_token(t), "{t}");
        }
    }

    #[test]
    fn trace_annotation_stripping() {
        let canonical = "{\"txn\": 7, \"decision\": \"commit\"}";
        let id = adya_obs::trace_id("s", 32);
        let annotated = format!(
            "{{\"trace\": \"{}\", {}",
            adya_obs::fmt_trace_id(id),
            &canonical[1..]
        );
        assert_eq!(strip_trace(&annotated), (Some(id), canonical.to_string()));
        // Unannotated lines — and near-misses — pass through verbatim.
        for line in [canonical, "{\"trace\": \"zebra\", \"x\": 1}", "plain"] {
            assert_eq!(strip_trace(line), (None, line.to_string()), "{line}");
        }
    }

    #[test]
    fn frame_field_extraction() {
        let ack = frame(
            "{\"ok\": \"resume\", \"session\": \"t\", \"events\": 41, \
             \"verdicts\": 12, \"replay\": 3}",
        );
        assert_eq!(ack.u64_at("events"), Some(41));
        assert_eq!(ack.u64_at("replay"), Some(3));
        assert_eq!(ack.str_at("ok"), Some("resume"));
        assert_eq!(ack.u64_at("missing"), None);
        // Not JSON at all: every lookup misses.
        assert_eq!(frame("HTTP/1.1 400 Bad Request").str_at("ok"), None);
    }

    #[test]
    fn error_details_with_quotes_and_backslashes_survive() {
        // The server escapes `detail`; a scanner that stops at the
        // first `"` used to cut it at the escaped quote, and one that
        // searches for `"error": "` could be steered by the detail
        // text itself.
        let detail = r#"unrecognized token "w1(\"x\\y\", \"error\": \"not_leader\")""#;
        let line = format!(
            "{{\"error\": \"parse\", \"detail\": \"{}\", \"leader\": \"h:1\"}}",
            json::esc(detail)
        );
        match server_error(line.clone()) {
            ClientError::Server(code, kept) => {
                assert_eq!(code, "parse");
                assert_eq!(kept, line);
            }
            other => panic!("{other:?}"),
        }
        let reply = frame(&line);
        assert_eq!(reply.str_at("detail"), Some(detail));
        assert_eq!(reply.str_at("leader"), Some("h:1"));
    }
}
