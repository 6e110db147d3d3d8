//! The multi-tenant server: the accept loop, the per-connection NDJSON
//! protocol, and the obs plane mounted on the same port.
//!
//! Transport is [`adya_obs::Listener`], the accept loop `ObsServer`
//! runs on too: one thread per connection, std only, each connection
//! taken the moment it arrives (the loop blocks in `accept`; shutdown
//! wakes it with a connection of its own). A connection speaks either
//! the session protocol (NDJSON control frames + event tokens) or plain
//! HTTP — the server peeks at the first line and treats `GET …` as a
//! scrape, so `/metrics` and `/health` work on the same address a
//! client streams events to.
//!
//! Sessions are shared state: a registry of [`SessionSlot`]s by name.
//! A session is *attached* while one connection owns it — the
//! connection thread checks the `Session` out of its slot and works on
//! it with no lock held, so per-session ingest never serializes on a
//! registry-visible mutex during checker work, and `/metrics` and
//! `/health` (which read each slot's cached health entry) never stall
//! behind a long apply. A second `hello`/`resume` for the same name is
//! refused with `session_busy` rather than interleaving two clients'
//! streams. Detach (EOF, error, idle deadline, shutdown) parks the
//! session — snapshot to disk, replay window kept, checked back into
//! its slot — ready for the next resume or a restart. The idle
//! deadline is what guarantees a half-open peer cannot pin its session
//! attached forever.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use adya_faults::{TapCrashConfig, TapCrashPlane};
use adya_obs::{write_line, Listener, TracePlane};

use crate::proto::{self, ClientFrame};
use crate::replica::{LogPublisher, ReplConfig, ReplicaSink, ReplicationHub};
use crate::session::{ApplyError, ResumeError, Session, SessionConfig};

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root directory holding one subdirectory per session.
    pub data_dir: PathBuf,
    /// Per-session checker/durability settings.
    pub session: SessionConfig,
    /// Tap-side crash schedule (tests/soak only; default never).
    pub tap: TapCrashConfig,
    /// Connections that make no read progress for this long are
    /// detached (their session parked): a half-open peer — one that
    /// vanished without a FIN — must not pin its session forever.
    pub idle_timeout: Duration,
    /// Replication role and topology.
    pub repl: ReplConfig,
    /// This node's name in trace lanes and `/metrics` labels.
    pub node: String,
    /// Per-verdict latency provenance: stamp sampled events through
    /// every ingest stage, carry their trace ids on replication
    /// frames, and offer trace-annotated verdict lines to clients
    /// that opt in. Off by default — zero stamping work.
    pub trace_propagate: bool,
    /// Provenance sampling cadence (1-in-N events by durable record
    /// number).
    pub trace_sample: u64,
}

impl ServeConfig {
    /// A server storing sessions under `data_dir`, defaults elsewhere.
    pub fn new(data_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            data_dir: data_dir.into(),
            session: SessionConfig::default(),
            tap: TapCrashConfig::default(),
            idle_timeout: Duration::from_secs(60),
            repl: ReplConfig::default(),
            node: "node0".to_string(),
            trace_propagate: false,
            trace_sample: adya_obs::trace::DEFAULT_TRACE_SAMPLE,
        }
    }
}

/// One registry entry. The `Session` itself is *checked out* of the
/// slot by the owning connection thread while attached (`parked` is
/// `None`), so ingest holds no registry-visible lock during checker
/// work; scrapes read the cached `health` entry instead of touching
/// the session.
struct SessionSlot {
    /// The session, present while no connection owns it.
    parked: Mutex<Option<Box<Session>>>,
    /// Cached fleet-health entry, refreshed by the owning connection
    /// thread after every applied line and at check-in. Its
    /// `attached` is this slot's checkout state, not the session's.
    health: Mutex<String>,
}

impl SessionSlot {
    /// A slot whose session is immediately checked out by the creator.
    fn new_attached(session: &Session) -> SessionSlot {
        SessionSlot {
            parked: Mutex::new(None),
            health: Mutex::new(session.health_entry(true)),
        }
    }

    /// A slot holding a parked session.
    fn new_parked(session: Box<Session>) -> SessionSlot {
        let health = Mutex::new(session.health_entry(false));
        SessionSlot {
            parked: Mutex::new(Some(session)),
            health,
        }
    }

    /// Checks the session out for exclusive use; `None` means another
    /// connection owns it.
    fn checkout(&self) -> Option<Box<Session>> {
        self.parked.lock().unwrap().take()
    }

    /// Returns the session to the slot, refreshing the health cache.
    fn checkin(&self, session: Box<Session>) {
        *self.health.lock().unwrap() = session.health_entry(false);
        *self.parked.lock().unwrap() = Some(session);
    }

    /// Refreshes the cached health entry for a checked-out session.
    fn refresh_health(&self, session: &Session) {
        *self.health.lock().unwrap() = session.health_entry(true);
    }
}

/// A connection's checked-out session plus the slot to return it to.
struct Attached {
    slot: Arc<SessionSlot>,
    session: Box<Session>,
}

/// Mutable per-connection state threaded through dispatch.
#[derive(Default)]
struct ConnState {
    /// The checked-out session, once this connection sent a
    /// successful `hello`/`resume`.
    attached: Option<Attached>,
    /// The follower-side replication sink, present once this
    /// connection sent `repl_hello` (it is then a leader's sender,
    /// not a client).
    sink: Option<ReplicaSink>,
    /// The client asked for trace-annotated verdict lines
    /// (`"trace": "on"` in its hello/resume). Honored only when the
    /// server itself runs with `--trace-propagate`.
    client_trace: bool,
}

struct Inner {
    cfg: ServeConfig,
    sessions: Mutex<HashMap<String, Arc<SessionSlot>>>,
    /// Session names whose disk recovery is in flight. Claiming a name
    /// here lets [`Session::recover`] run without the `sessions` lock,
    /// so one slow recovery cannot stall `/metrics`, `/health` or
    /// other connections' hellos and resumes.
    recovering: Mutex<HashSet<String>>,
    tap: TapCrashPlane,
    /// Connections being served, counted by the listener.
    conns: Arc<AtomicUsize>,
    stop: AtomicBool,
    /// `true` while this node refuses client frames with `not_leader`.
    /// Cleared by a `promote` frame, never set again: promotion is a
    /// one-way door for a process lifetime.
    follower: AtomicBool,
    /// Where the leader said it lives (its advertise address), for
    /// `not_leader` redirects. Set by each `repl_hello`.
    leader_hint: Mutex<Option<String>>,
    /// Leader-side replication fan-out; `None` on followers and on
    /// leaders with no followers configured.
    hub: Option<Arc<ReplicationHub>>,
    /// Latency-provenance stamping plane, present only under
    /// `--trace-propagate`. Shared with every session (tap → verdict
    /// stages), the hub senders (replicate/ack stages) and — on a
    /// follower — the replica sink path.
    trace: Option<Arc<TracePlane>>,
}

impl Inner {
    /// A replication publishing handle for session `name`, when this
    /// node leads a replica set.
    fn publisher(&self, name: &str) -> Option<LogPublisher> {
        self.hub.as_ref().map(|h| h.publisher(name))
    }
}

/// The running server: the accept loop plus shared session registry.
pub struct Server {
    inner: Arc<Inner>,
    listener: Listener,
}

impl Server {
    /// Binds `tcp` (e.g. `127.0.0.1:0`) and starts accepting.
    pub fn bind(tcp: &str, cfg: ServeConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&cfg.data_dir)?;
        let tap = TapCrashPlane::new(cfg.tap);
        // Bind before building the hub: the advertise address handed to
        // followers defaults to the real bound address (`:0` resolved).
        let listener = TcpListener::bind(tcp)?;
        let tcp_addr = listener.local_addr()?;
        let trace = cfg.trace_propagate.then(|| {
            let role = if cfg.repl.follower {
                "follower"
            } else {
                "leader"
            };
            let plane = Arc::new(TracePlane::new(&cfg.node, role));
            plane.set_sample_every(cfg.trace_sample);
            plane
        });
        let hub = if !cfg.repl.follower && !cfg.repl.followers.is_empty() {
            let advertise = cfg
                .repl
                .advertise
                .clone()
                .unwrap_or_else(|| tcp_addr.to_string());
            Some(ReplicationHub::start(
                cfg.data_dir.clone(),
                cfg.repl.followers.clone(),
                advertise.clone(),
                advertise,
                cfg.repl.lag_max,
                trace.clone(),
            ))
        } else {
            None
        };
        let follower = AtomicBool::new(cfg.repl.follower);
        let inner = Arc::new(Inner {
            cfg,
            sessions: Mutex::new(HashMap::new()),
            recovering: Mutex::new(HashSet::new()),
            tap,
            conns: Arc::default(),
            stop: AtomicBool::new(false),
            follower,
            leader_hint: Mutex::new(None),
            hub,
            trace,
        });
        let listener = {
            let inner = Arc::clone(&inner);
            Listener::spawn(listener, "serve", Arc::clone(&inner.conns), move |stream| {
                adya_obs::gauge!("serve.connections").add(1);
                handle_conn(stream, &inner);
                adya_obs::gauge!("serve.connections").add(-1);
            })?
        };
        Ok(Server { inner, listener })
    }

    /// The bound TCP address (real port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Graceful shutdown: stop accepting, let every connection send
    /// its `closing` frame and park its session, then write a final
    /// snapshot for every session still open. Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.listener.shutdown();
        // Connections poll the stop flag at their read timeout; give
        // them a bounded window to drain.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.inner.conns.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        let slots: Vec<_> = self
            .inner
            .sessions
            .lock()
            .unwrap()
            .values()
            .cloned()
            .collect();
        for slot in slots {
            // A session still checked out past the drain deadline is
            // parked by its own connection thread when it exits.
            if let Some(mut s) = slot.checkout() {
                s.park();
                slot.checkin(s);
            }
        }
        // Stop the replication senders after the final park snapshots
        // have been published, so followers get them too.
        if let Some(hub) = &self.inner.hub {
            hub.stop();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection to completion.
fn handle_conn(mut stream: TcpStream, inner: &Inner) {
    // The 100 ms read timeout is the stop-flag and idle-deadline poll.
    // Nagle off: every line leaves in one write (`write_line`), and one
    // held back for the peer's delayed ACK would cost ≈ 40 ms a reply.
    if stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(Duration::from_millis(100))))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(5))))
        .is_err()
    {
        return;
    }
    let mut reader = match stream.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(_) => return,
    };
    let mut conn = ConnState::default();
    // Raw bytes, not read_line: its UTF-8 guard truncates everything a
    // timed-out call appended when the partial line ends mid-codepoint,
    // silently dropping bytes of a multi-byte object name split across
    // the poll boundary. read_until keeps partial bytes in `buf`.
    let mut buf: Vec<u8> = Vec::new();
    let mut last_progress = Instant::now();
    let why_closing;
    loop {
        if inner.stop.load(Ordering::Relaxed) {
            why_closing = "shutdown";
            break;
        }
        let len_before = buf.len();
        match reader.read_until(b'\n', &mut buf) {
            // Timeout with a partial (or no) line buffered: poll stop,
            // check the idle deadline, keep accumulating.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if buf.len() > len_before {
                    last_progress = Instant::now();
                } else if last_progress.elapsed() >= inner.cfg.idle_timeout {
                    // A half-open peer (vanished without a FIN) would
                    // otherwise hold its session attached forever,
                    // turning every resume into session_busy until a
                    // server restart.
                    why_closing = "idle";
                    break;
                }
                continue;
            }
            Err(_) => {
                why_closing = "detach";
                break;
            }
            Ok(0) if buf.is_empty() => {
                why_closing = "detach";
                break;
            }
            Ok(_) => {
                last_progress = Instant::now();
                // read_until stops short of the delimiter only at EOF.
                let at_eof = !buf.ends_with(b"\n");
                let outcome = dispatch_bytes(&buf, &mut stream, &mut conn, inner, &mut reader);
                buf.clear();
                match outcome {
                    LineOutcome::Continue => {}
                    LineOutcome::End => {
                        detach(&mut conn.attached);
                        return;
                    }
                }
                if at_eof {
                    why_closing = "detach";
                    break;
                }
            }
        }
    }
    let (name, events, verdicts) = match &conn.attached {
        Some(a) => (
            Some(a.session.name().to_string()),
            a.session.records(),
            a.session.verdicts(),
        ),
        None => (None, 0, 0),
    };
    let _ = write_line(
        &mut stream,
        &mut proto::closing_frame(why_closing, name.as_deref(), events, verdicts),
    );
    detach(&mut conn.attached);
}

fn detach(attached: &mut Option<Attached>) {
    if let Some(mut a) = attached.take() {
        a.session.park();
        a.slot.checkin(a.session);
    }
}

enum LineOutcome {
    Continue,
    End,
}

/// Validates one raw line as UTF-8 and dispatches it. A line that is
/// not UTF-8 is rejected loudly instead of being applied mangled.
fn dispatch_bytes(
    raw: &[u8],
    stream: &mut TcpStream,
    conn: &mut ConnState,
    inner: &Inner,
    reader: &mut BufReader<TcpStream>,
) -> LineOutcome {
    match std::str::from_utf8(raw) {
        Ok(line) => dispatch_line(line, stream, conn, inner, reader),
        Err(_) => {
            adya_obs::counter!("serve.parse_errors").inc();
            let _ = write_line(
                stream,
                &mut proto::error_frame("parse", "line is not valid UTF-8"),
            );
            LineOutcome::Continue
        }
    }
}

fn dispatch_line(
    raw: &str,
    stream: &mut TcpStream,
    conn: &mut ConnState,
    inner: &Inner,
    reader: &mut BufReader<TcpStream>,
) -> LineOutcome {
    let line = raw.trim();
    if line.is_empty() {
        return LineOutcome::Continue;
    }
    // First line of an HTTP scrape: same port, different protocol.
    if conn.attached.is_none() && (line.starts_with("GET ") || line.starts_with("HEAD ")) {
        // The request line is already off the socket: hand it back in
        // front of the rest of the stream, so the one HTTP responder
        // bounds, drains and answers this port exactly as it does the
        // obs endpoint.
        let mut request = io::Cursor::new(raw.as_bytes()).chain(reader);
        adya_obs::http::serve_request(&mut request, stream, |path| route_http(path, inner));
        return LineOutcome::End;
    }
    if line.starts_with('{') {
        return dispatch_frame(line, stream, conn, inner);
    }
    // Event tokens. The session is checked out by this thread: the
    // whole apply — log, crash plane, checker application —
    // runs with no lock held.
    let Some(a) = conn.attached.as_mut() else {
        let _ = write_line(
            stream,
            &mut proto::error_frame("not_attached", "send a hello or resume frame first"),
        );
        return LineOutcome::Continue;
    };
    let result = a.session.apply_line(line, &inner.tap);
    a.slot.refresh_health(&a.session);
    match result {
        Ok(verdicts) => {
            let annotate = conn.client_trace && inner.trace.is_some();
            for (tid, v) in verdicts {
                if write_verdict(stream, tid.filter(|_| annotate), v).is_err() {
                    return LineOutcome::End;
                }
            }
            LineOutcome::Continue
        }
        Err(ApplyError::Parse(detail)) => {
            adya_obs::counter!("serve.parse_errors").inc();
            let _ = write_line(stream, &mut proto::error_frame("parse", &detail));
            LineOutcome::Continue
        }
        Err(ApplyError::Closed(fin)) => {
            let _ = write_line(stream, &mut proto::error_frame("session_closed", &fin));
            LineOutcome::Continue
        }
        Err(ApplyError::Io(e)) => {
            let _ = write_line(
                stream,
                &mut proto::error_frame("io", &format!("durability failure: {e}")),
            );
            LineOutcome::End
        }
    }
}

/// Writes one verdict line. Wire-only annotation: for a client that
/// opted in, the canonical verdict bytes are prefixed with the event's
/// `trace` id; the durable log and replay window never see the prefix.
fn write_verdict(w: &mut impl Write, trace: Option<u64>, mut v: String) -> io::Result<()> {
    if let Some(id) = trace {
        v = format!(
            "{{\"trace\": \"{}\", {}",
            adya_obs::fmt_trace_id(id),
            &v[1..]
        );
    }
    write_line(w, &mut v)
}

fn dispatch_frame(
    line: &str,
    stream: &mut TcpStream,
    conn: &mut ConnState,
    inner: &Inner,
) -> LineOutcome {
    let frame = match proto::parse_frame(line) {
        Ok(f) => f,
        Err(detail) => {
            let _ = write_line(stream, &mut proto::error_frame("bad_frame", &detail));
            return LineOutcome::Continue;
        }
    };
    // A follower serves only the replication vocabulary (plus scrapes
    // and `promote`): client frames are redirected at the last leader
    // this node heard from.
    if inner.follower.load(Ordering::Relaxed)
        && matches!(
            frame,
            ClientFrame::Hello { .. } | ClientFrame::Resume { .. } | ClientFrame::Close
        )
    {
        let hint = inner.leader_hint.lock().unwrap().clone();
        let _ = write_line(stream, &mut proto::not_leader_frame(hint.as_deref()));
        return LineOutcome::Continue;
    }
    match frame {
        ClientFrame::Hello {
            session: name,
            trace: want_trace,
        } => {
            if attached_guard(conn, stream) {
                return LineOutcome::Continue;
            }
            let mut sessions = inner.sessions.lock().unwrap();
            if sessions.contains_key(&name) || inner.cfg.data_dir.join(&name).exists() {
                let _ = write_line(
                    stream,
                    &mut proto::error_frame("session_exists", "use resume to re-attach"),
                );
                return LineOutcome::Continue;
            }
            match Session::create(
                &inner.cfg.data_dir,
                &name,
                inner.cfg.session,
                inner.publisher(&name),
            ) {
                Ok(mut s) => {
                    if let Some(plane) = &inner.trace {
                        s.set_trace(Arc::clone(plane));
                    }
                    conn.client_trace = want_trace;
                    let slot = Arc::new(SessionSlot::new_attached(&s));
                    sessions.insert(name.clone(), Arc::clone(&slot));
                    adya_obs::counter!("serve.hellos").inc();
                    adya_obs::gauge!("serve.sessions").set(sessions.len() as i64);
                    drop(sessions);
                    conn.attached = Some(Attached {
                        slot,
                        session: Box::new(s),
                    });
                    let _ = write_line(stream, &mut proto::ok_frame("hello", &name, 0, 0, 0));
                    LineOutcome::Continue
                }
                Err(e) => {
                    let _ = write_line(
                        stream,
                        &mut proto::error_frame("io", &format!("cannot create session: {e}")),
                    );
                    LineOutcome::Continue
                }
            }
        }
        ClientFrame::Resume {
            session: name,
            verdicts: have,
            trace: want_trace,
        } => {
            if attached_guard(conn, stream) {
                return LineOutcome::Continue;
            }
            let Some(slot) = lookup_or_recover(inner, &name, stream) else {
                return LineOutcome::Continue;
            };
            // Checking the session out is the attachment claim: if the
            // slot is empty another connection owns it right now.
            let Some(mut s) = slot.checkout() else {
                let _ = write_line(
                    stream,
                    &mut proto::error_frame("session_busy", "another connection owns this session"),
                );
                return LineOutcome::Continue;
            };
            // Recovery's repair of the open segment (a torn tail cut, a
            // cut-short header restored) is reported with the adya-check
            // truncated_input vocabulary; then the resume proceeds.
            if let Some(detail) = s.truncated.take() {
                let _ = write_line(stream, &mut proto::error_frame("truncated_input", &detail));
            }
            match s.resume(have) {
                Ok((_, _, reply)) => {
                    if let Some(plane) = &inner.trace {
                        s.set_trace(Arc::clone(plane));
                    }
                    conn.client_trace = want_trace;
                    slot.refresh_health(&s);
                    conn.attached = Some(Attached { slot, session: s });
                    adya_obs::counter!("serve.resumes").inc();
                    // The ack and the whole replay leave in one write:
                    // the session rendered both, newlines included, into
                    // one buffer, so a replay costs one syscall and the
                    // segments its bytes fill, not a write per line.
                    let _ = stream.write_all(reply.text().as_bytes());
                    LineOutcome::Continue
                }
                Err(e) => {
                    let mut frame = match e {
                        ResumeError::Closed(fin) => proto::error_frame("session_closed", &fin),
                        ResumeError::Unrecoverable { base } => proto::error_frame(
                            "verdicts_unrecoverable",
                            &format!("replay window starts at verdict {base}"),
                        ),
                        // Structured: the client truncates its ledger
                        // to `durable` and re-sends the token suffix —
                        // the failover path after a promotion that
                        // lost acknowledged-but-unreplicated verdicts.
                        ResumeError::Ahead { durable } => {
                            proto::verdicts_ahead_frame(have, durable)
                        }
                    };
                    let _ = write_line(stream, &mut frame);
                    // A refused resume mutated nothing worth snapshotting:
                    // return the session to the slot without parking.
                    slot.checkin(s);
                    LineOutcome::Continue
                }
            }
        }
        ClientFrame::Close => {
            let Some(a) = conn.attached.as_mut() else {
                let _ = write_line(
                    stream,
                    &mut proto::error_frame("not_attached", "nothing to close"),
                );
                return LineOutcome::Continue;
            };
            match a.session.close() {
                Ok(mut fin) => {
                    let name = a.session.name().to_string();
                    let (events, verdicts) = (a.session.records(), a.session.verdicts());
                    let _ = write_line(stream, &mut fin);
                    let _ = write_line(
                        stream,
                        &mut proto::closing_frame("close", Some(&name), events, verdicts),
                    );
                    let a = conn.attached.take().expect("attached checked above");
                    a.slot.checkin(a.session);
                    LineOutcome::End
                }
                Err(e) => {
                    let _ = write_line(
                        stream,
                        &mut proto::error_frame("io", &format!("close failed: {e}")),
                    );
                    LineOutcome::End
                }
            }
        }
        ClientFrame::Promote => {
            // One-way and idempotent: an operator (or a failing-over
            // client) turns this follower into the leader. Nothing to
            // recover eagerly — sessions lazy-load on first resume,
            // exactly like a restart.
            if inner.follower.swap(false, Ordering::Relaxed) {
                inner.leader_hint.lock().unwrap().take();
                if let Some(plane) = &inner.trace {
                    plane.set_role("leader");
                }
                adya_obs::counter!("serve.promotions").inc();
            }
            let _ = write_line(stream, &mut "{\"ok\": \"promote\"}".to_string());
            LineOutcome::Continue
        }
        // The replication vocabulary: this connection is a leader's
        // sender, and the sink answers for this node.
        repl => {
            if let ClientFrame::ReplHello { advertise, .. } = &repl {
                if !inner.follower.load(Ordering::Relaxed) {
                    let _ = write_line(
                        stream,
                        &mut proto::error_frame("not_follower", "this node is a leader"),
                    );
                    return LineOutcome::Continue;
                }
                if let Some(addr) = advertise {
                    *inner.leader_hint.lock().unwrap() = Some(addr.clone());
                }
                let sink =
                    ReplicaSink::new(inner.cfg.data_dir.clone(), inner.cfg.session.log.fsync);
                conn.sink = Some(sink.with_trace(inner.trace.clone()));
            }
            let not_replicating =
                || proto::error_frame("not_replicating", "send a repl_hello frame first");
            let (line, outcome) = match conn.sink.as_mut().map(|sink| sink.handle(repl)) {
                None => (Some(not_replicating()), LineOutcome::Continue),
                Some(Ok(reply)) => (reply, LineOutcome::Continue),
                Some(Err(line)) => (Some(line), LineOutcome::End),
            };
            if let Some(mut line) = line {
                let _ = write_line(stream, &mut line);
            }
            outcome
        }
    }
}

/// Writes `already_attached` and reports whether this connection
/// already owns a session (one session per connection).
fn attached_guard(conn: &ConnState, stream: &mut TcpStream) -> bool {
    if conn.attached.is_some() {
        let _ = write_line(
            stream,
            &mut proto::error_frame("already_attached", "one session per connection"),
        );
        return true;
    }
    false
}

/// Finds `name` in the registry, or recovers it from disk and
/// registers it. The (potentially slow) snapshot read + log-tail
/// replay runs with *no* lock on the registry — only a per-name claim
/// in `recovering` — so a fleet of post-restart resumes recovers in
/// parallel and never stalls `/metrics`, `/health` or other
/// connections. A concurrent resume for the same name gets
/// `session_busy`, which clients retry with backoff. On failure the
/// error frame has already been written; the caller just continues.
fn lookup_or_recover(
    inner: &Inner,
    name: &str,
    stream: &mut TcpStream,
) -> Option<Arc<SessionSlot>> {
    if let Some(s) = inner.sessions.lock().unwrap().get(name) {
        return Some(Arc::clone(s));
    }
    if !inner.cfg.data_dir.join(name).is_dir() {
        let _ = write_line(stream, &mut proto::error_frame("unknown_session", name));
        return None;
    }
    if !inner.recovering.lock().unwrap().insert(name.to_string()) {
        let _ = write_line(
            stream,
            &mut proto::error_frame("session_busy", "recovery in progress"),
        );
        return None;
    }
    // Recheck under the claim: another connection may have finished
    // this recovery between our registry miss and the claim.
    if let Some(s) = inner.sessions.lock().unwrap().get(name) {
        inner.recovering.lock().unwrap().remove(name);
        return Some(Arc::clone(s));
    }
    let recovered = Session::recover(
        &inner.cfg.data_dir,
        name,
        inner.cfg.session,
        inner.publisher(name),
    );
    let result = match recovered {
        Ok(s) => {
            let slot = Arc::new(SessionSlot::new_parked(Box::new(s)));
            let mut sessions = inner.sessions.lock().unwrap();
            sessions.insert(name.to_string(), Arc::clone(&slot));
            adya_obs::gauge!("serve.sessions").set(sessions.len() as i64);
            Some(slot)
        }
        Err(e) => {
            let _ = write_line(stream, &mut proto::error_frame("corrupt", &e.to_string()));
            None
        }
    };
    inner.recovering.lock().unwrap().remove(name);
    result
}

/// Routes one scrape on the service port.
fn route_http(path: &str, inner: &Inner) -> adya_obs::Response {
    let role = if inner.follower.load(Ordering::Relaxed) {
        "follower"
    } else {
        "leader"
    };
    match path {
        // Fleet-wide scrapes aggregate many nodes: every series
        // carries this node's identity and current role.
        "/metrics" => adya_obs::Response::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            adya_obs::global()
                .snapshot()
                .to_prometheus_labeled(&[("node", &inner.cfg.node), ("role", role)]),
        ),
        // This node's stage stamps as a Chrome trace, with the segment
        // embedded under `"provenance"` when tracing is on —
        // `adya-check trace-merge` joins segments from several nodes
        // into one cross-node timeline.
        "/trace" => adya_obs::Response::json(adya_obs::trace_document(inner.trace.as_deref())),
        "/health" => {
            let draining = inner.stop.load(Ordering::Relaxed);
            // Acknowledged follower lag past --repl-lag-max is a
            // health failure: the durability promise is degraded even
            // though the leader itself is fine.
            let lagging = inner.hub.as_ref().is_some_and(|h| h.unhealthy());
            let body = fleet_health(inner, draining, lagging);
            if draining || lagging {
                adya_obs::Response {
                    status: 503,
                    content_type: "application/json",
                    body: body.into_bytes(),
                }
            } else {
                adya_obs::Response::json(body)
            }
        }
        _ => adya_obs::Response::status(404, "not found\n"),
    }
}

/// The fleet `/health` document: one entry per live session.
fn fleet_health(inner: &Inner, draining: bool, lagging: bool) -> String {
    let sessions = inner.sessions.lock().unwrap();
    let mut entries = Vec::with_capacity(sessions.len());
    let mut names: Vec<_> = sessions.keys().cloned().collect();
    names.sort();
    for name in &names {
        // The slot caches each session's health entry so a scrape never
        // contends with (or waits behind) a checked-out session's
        // ingest work.
        entries.push(sessions[name].health.lock().unwrap().clone());
    }
    let role = if inner.follower.load(Ordering::Relaxed) {
        "follower"
    } else {
        "leader"
    };
    let replication = match &inner.hub {
        Some(h) => h.health_json(),
        None => "null".to_string(),
    };
    format!(
        "{{\"healthy\": {}, \"draining\": {draining}, \"role\": \"{role}\", \
         \"replication\": {replication}, \"sessions\": [{}], \"connections\": {}}}",
        !draining && !lagging,
        entries.join(", "),
        inner.conns.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` that counts its `write` calls and keeps their bytes.
    #[derive(Default)]
    struct Counting {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The bytes `writeln!` makes of `args`: what a line must read
    /// on the wire.
    fn writeln_bytes(args: std::fmt::Arguments) -> Vec<u8> {
        let mut out = Vec::new();
        writeln!(out, "{args}").unwrap();
        out
    }

    #[test]
    fn every_line_leaves_in_one_write_with_the_bytes_writeln_made() {
        let v = r#"{"txn": 3, "verdict": "ok", "level": "PL-3"}"#;
        let id = 0x0123_4567_89ab_cdef;
        let mut lines = Vec::new();
        for (kind, mut frame) in [
            ("ok", proto::ok_frame("resume", "s", 40, 7, 2)),
            ("error", proto::error_frame("parse", "bad token \"x\"")),
            ("closing", proto::closing_frame("close", Some("s"), 40, 7)),
            ("ack", proto::ack_frame(9)),
        ] {
            let want = writeln_bytes(format_args!("{frame}"));
            let (mut w, before) = (Counting::default(), frame.clone());
            write_line(&mut w, &mut frame).unwrap();
            assert_eq!(frame, before, "{kind}: the line is handed back as it came");
            lines.push((kind, w, want));
        }
        let annotated = writeln_bytes(format_args!(
            "{{\"trace\": \"{}\", {}",
            adya_obs::fmt_trace_id(id),
            &v[1..]
        ));
        for (kind, trace, want) in [
            ("verdict", None, writeln_bytes(format_args!("{v}"))),
            ("annotated verdict", Some(id), annotated),
        ] {
            let mut w = Counting::default();
            write_verdict(&mut w, trace, v.to_string()).unwrap();
            lines.push((kind, w, want));
        }
        for (kind, w, want) in lines {
            assert_eq!(w.writes, 1, "{kind} went out in {} writes", w.writes);
            assert_eq!(w.bytes, want, "{kind}");
        }
    }
}
