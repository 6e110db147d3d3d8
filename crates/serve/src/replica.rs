//! The replication plane: leader-side streaming of durable session-log
//! mutations to follower nodes, and the follower-side state machine
//! that applies them.
//!
//! The unit of replication is the *file mutation*, not the event: a
//! leader's [`SessionDir`] publishes every mutation it applies —
//! segment appends, name side-log appends, snapshot puts, compaction
//! removes, recovery's torn-tail repairs — through a [`LogPublisher`]
//! into the hub's bounded in-memory ring, and the follower applies
//! them through a `SessionDir` of its own.
//! One sender thread per follower drains the ring over the NDJSON
//! protocol (`append`/`put`/`remove` frames, hex payloads, CRC-32
//! verified before anything touches the follower's disk) and issues
//! `repl_flush` durability barriers the follower acks once its own
//! [`FsyncPolicy`] says the bytes are safe.
//!
//! Mirroring files byte-for-byte (instead of replaying events through
//! a second checker) is what makes promotion trivial and exact: a
//! snapshot records the byte offset of the open segment it was taken
//! at, so the follower's directory must be *the same bytes* for
//! [`SessionLog::recover`] to work unchanged — and when it is, the
//! promoted follower resumes every session with a verdict stream
//! byte-identical to the dead leader's, by the same snapshot+replay
//! invariant that already covers kill -9 restarts.
//!
//! Catch-up: on (re)connect the sender records the ring's next
//! sequence number, asks the follower for its durable file inventory
//! per session (`replicate`), and ships exactly the missing byte
//! suffixes — the same segment-walk shape recovery uses. Ring
//! mutations published while the walk ran overlap the shipped bytes;
//! the follower's append is idempotent by offset (a replayed prefix is
//! skipped, only the novel suffix is written), so the overlap is
//! harmless. A sender that falls so far behind that its next sequence
//! number was evicted from the ring simply redoes the walk.
//!
//! Lag accounting: the hub tracks per-session published totals
//! (records, bytes) and per-follower acked totals installed at every
//! barrier; the difference is the per-session replication lag exported
//! as `sli.repl_lag_records`/`sli.repl_lag_bytes` gauges, and the
//! worst acknowledged lag across followers is what `/health` compares
//! against `--repl-lag-max`.
//!
//! [`SessionLog::recover`]: crate::log::SessionLog::recover

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use adya_obs::{
    json::{self, esc},
    labeled,
    trace::Stage,
    TracePlane,
};
use adya_online::wire;

use crate::dir::{self, FileName, FsyncPolicy, SessionDir};
use crate::proto;

/// Largest payload shipped in one `append` frame during catch-up.
const CHUNK: usize = 64 * 1024;
/// Ring eviction thresholds: payload bytes and mutation count.
const RING_MAX_BYTES: usize = 16 * 1024 * 1024;
const RING_MAX_LEN: usize = 32 * 1024;
/// Mutations drained per barrier.
const BATCH: usize = 256;
/// How long a sender waits for one follower reply before declaring the
/// connection dead. Generous: a barrier after a large catch-up may sit
/// behind megabytes of follower fsync work.
const REPLY_DEADLINE: Duration = Duration::from_secs(30);

/// Replication role/topology configuration for a server.
#[derive(Debug, Clone, Default)]
pub struct ReplConfig {
    /// Follower addresses this node (as leader) streams to.
    pub followers: Vec<String>,
    /// Start as a follower: refuse client frames with `not_leader`
    /// until promoted.
    pub follower: bool,
    /// Client-facing address handed to followers for `not_leader`
    /// redirects; defaults to the bound listen address.
    pub advertise: Option<String>,
    /// `/health` turns 503 when the worst acknowledged per-session
    /// replication lag (in records) exceeds this.
    pub lag_max: Option<u64>,
}

/// Per-session replication totals: event records and payload bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Durable event records published.
    pub records: u64,
    /// Durable payload bytes published (appends + puts).
    pub bytes: u64,
}

#[derive(Debug, Clone)]
enum MutKind {
    Append {
        file: FileName,
        off: u64,
        bytes: Arc<[u8]>,
        records: u64,
    },
    Put {
        file: FileName,
        bytes: Arc<[u8]>,
    },
    Remove {
        file: FileName,
    },
}

#[derive(Debug, Clone)]
struct Mutation {
    seq: u64,
    session: Arc<str>,
    kind: MutKind,
    /// Trace id of the sampled event record an append carries; set
    /// only when the leader's trace plane propagates contexts, so a
    /// `Some` always goes on the wire.
    trace: Option<u64>,
}

impl Mutation {
    fn payload_len(&self) -> usize {
        match &self.kind {
            MutKind::Append { bytes, .. } | MutKind::Put { bytes, .. } => bytes.len(),
            MutKind::Remove { .. } => 0,
        }
    }

    fn frame(&self) -> String {
        match &self.kind {
            MutKind::Append {
                file, off, bytes, ..
            } => proto::append_frame(&self.session, *file, *off, bytes, self.trace),
            MutKind::Put { file, bytes } => proto::put_frame(&self.session, *file, bytes),
            MutKind::Remove { file } => proto::remove_frame(&self.session, *file),
        }
    }
}

struct HubState {
    ring: std::collections::VecDeque<Mutation>,
    /// Sequence number the next published mutation gets.
    next_seq: u64,
    /// Sequence number of `ring.front()` (== `next_seq` when empty).
    base_seq: u64,
    /// Sum of ring payload bytes, for eviction.
    ring_bytes: usize,
    /// Per-session published totals since hub start.
    published: HashMap<String, Totals>,
}

enum RingRead {
    Batch(Vec<Mutation>),
    /// The cursor's mutations were evicted; redo the disk catch-up.
    Evicted,
}

/// Leader-side replication: the mutation ring plus one sender thread
/// per configured follower.
pub struct ReplicationHub {
    state: Mutex<HubState>,
    cv: Condvar,
    data_dir: PathBuf,
    followers: Vec<String>,
    advertise: String,
    node: String,
    lag_max: Option<u64>,
    connected: AtomicUsize,
    /// Per-follower totals acknowledged at its last durability barrier.
    acked: Mutex<HashMap<String, HashMap<String, Totals>>>,
    /// Leader trace plane: sender threads stamp `replicate` at frame
    /// send and `ack` at barrier acknowledgement for traced mutations.
    trace: Option<Arc<TracePlane>>,
    stop: AtomicBool,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl ReplicationHub {
    /// Starts the hub: one sender thread per follower, reconnecting
    /// forever until [`ReplicationHub::stop`]. When `trace` is set,
    /// traced appends carry their trace id on the wire and the sender
    /// stamps the replication stages against that plane.
    pub fn start(
        data_dir: PathBuf,
        followers: Vec<String>,
        advertise: String,
        node: String,
        lag_max: Option<u64>,
        trace: Option<Arc<TracePlane>>,
    ) -> Arc<ReplicationHub> {
        let hub = Arc::new(ReplicationHub {
            state: Mutex::new(HubState {
                ring: std::collections::VecDeque::new(),
                next_seq: 0,
                base_seq: 0,
                ring_bytes: 0,
                published: HashMap::new(),
            }),
            cv: Condvar::new(),
            data_dir,
            followers: followers.clone(),
            advertise,
            node,
            lag_max,
            connected: AtomicUsize::new(0),
            acked: Mutex::new(HashMap::new()),
            trace,
            stop: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        });
        let mut threads = hub.threads.lock().unwrap();
        for addr in followers {
            let hub2 = Arc::clone(&hub);
            if let Ok(t) = thread::Builder::new()
                .name(format!("repl-send-{addr}"))
                .spawn(move || hub2.sender_loop(&addr))
            {
                threads.push(t);
            }
        }
        drop(threads);
        hub
    }

    /// A publishing handle bound to one session.
    pub fn publisher(self: &Arc<ReplicationHub>, session: &str) -> LogPublisher {
        LogPublisher {
            hub: Arc::clone(self),
            session: Arc::from(session),
        }
    }

    /// Stops every sender thread and joins them. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.cv.notify_all();
        let mut threads = self.threads.lock().unwrap();
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Configured and currently-connected follower counts.
    pub fn connectivity(&self) -> (usize, usize) {
        (self.followers.len(), self.connected.load(Ordering::Relaxed))
    }

    /// Worst acknowledged per-session lag across all configured
    /// followers, as `(records, bytes)` behind. A follower that never
    /// acked counts everything published as lag — disconnection *is*
    /// lag.
    pub fn lag_summary(&self) -> (u64, u64) {
        let st = self.state.lock().unwrap();
        let acked = self.acked.lock().unwrap();
        let (mut rec, mut bytes) = (0u64, 0u64);
        for f in &self.followers {
            let am = acked.get(f);
            for (s, tot) in &st.published {
                let a = am.and_then(|m| m.get(s)).copied().unwrap_or_default();
                rec = rec.max(tot.records.saturating_sub(a.records));
                bytes = bytes.max(tot.bytes.saturating_sub(a.bytes));
            }
        }
        (rec, bytes)
    }

    /// `true` when acknowledged lag exceeds the configured ceiling.
    pub fn unhealthy(&self) -> bool {
        self.lag_max.is_some_and(|max| self.lag_summary().0 > max)
    }

    /// The `replication` object embedded in the fleet `/health` doc.
    pub fn health_json(&self) -> String {
        let (followers, connected) = self.connectivity();
        let (rec, bytes) = self.lag_summary();
        format!(
            "{{\"followers\": {followers}, \"connected\": {connected}, \
             \"max_lag_records\": {rec}, \"max_lag_bytes\": {bytes}}}"
        )
    }

    fn publish(&self, session: &Arc<str>, kind: MutKind, trace: Option<u64>) {
        let mut st = self.state.lock().unwrap();
        let m = Mutation {
            seq: st.next_seq,
            session: Arc::clone(session),
            kind,
            trace,
        };
        st.next_seq += 1;
        let t = st.published.entry(session.to_string()).or_default();
        if let MutKind::Append { records, bytes, .. } = &m.kind {
            t.records += records;
            t.bytes += bytes.len() as u64;
        } else if let MutKind::Put { bytes, .. } = &m.kind {
            t.bytes += bytes.len() as u64;
        }
        st.ring_bytes += m.payload_len();
        st.ring.push_back(m);
        while st.ring.len() > RING_MAX_LEN || st.ring_bytes > RING_MAX_BYTES {
            let evicted = st.ring.pop_front().expect("ring nonempty");
            st.ring_bytes -= evicted.payload_len();
            st.base_seq += 1;
            adya_obs::counter!("serve.repl_ring_evictions").inc();
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Returns the batch of mutations at `cursor`, waiting briefly for
    /// new ones; an empty batch is a heartbeat tick.
    fn take_from(&self, cursor: u64) -> RingRead {
        let mut st = self.state.lock().unwrap();
        if cursor < st.base_seq {
            return RingRead::Evicted;
        }
        if cursor >= st.next_seq {
            let (guard, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(400))
                .unwrap();
            st = guard;
            if cursor < st.base_seq {
                return RingRead::Evicted;
            }
        }
        let start = (cursor - st.base_seq) as usize;
        RingRead::Batch(st.ring.iter().skip(start).take(BATCH).cloned().collect())
    }

    fn sender_loop(self: &Arc<ReplicationHub>, addr: &str) {
        let g_conn = adya_obs::global().gauge(&labeled(
            "sli.repl_follower_connected",
            &[("follower", addr)],
        ));
        while !self.stop.load(Ordering::Relaxed) {
            let stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(_) => {
                    adya_obs::counter!("serve.repl_connect_failures").inc();
                    thread::sleep(Duration::from_millis(250));
                    continue;
                }
            };
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
            let Ok(clone) = stream.try_clone() else {
                continue;
            };
            let mut reader = BufReader::new(clone);
            let mut w = stream;
            self.connected.fetch_add(1, Ordering::Relaxed);
            g_conn.set(1);
            adya_obs::gauge!("sli.repl_followers_connected")
                .set(self.connected.load(Ordering::Relaxed) as i64);
            let _ = self.feed(&mut w, &mut reader, addr);
            g_conn.set(0);
            self.connected.fetch_sub(1, Ordering::Relaxed);
            adya_obs::gauge!("sli.repl_followers_connected")
                .set(self.connected.load(Ordering::Relaxed) as i64);
            thread::sleep(Duration::from_millis(200));
        }
    }

    /// Drives one follower connection: hello, catch-up walk, then ring
    /// streaming with durability barriers, until an error or stop.
    fn feed(&self, w: &mut TcpStream, r: &mut BufReader<TcpStream>, addr: &str) -> io::Result<()> {
        writeln!(
            w,
            "{{\"op\": \"repl_hello\", \"node\": \"{}\", \"advertise\": \"{}\"}}",
            esc(&self.node),
            esc(&self.advertise)
        )?;
        self.read_reply(r, "repl_hello", |reply| {
            (reply.str_at("ok") == Some("repl_hello")).then_some(())
        })?;
        let rtt = adya_obs::global().histogram("sli.repl_ack_rtt_us");
        // Trace ids of traced mutations sent since the last barrier:
        // their `ack` stamp lands when that barrier is acknowledged.
        let mut in_flight: Vec<u64> = Vec::new();
        loop {
            let (mut cursor, mut sent) = self.catch_up(w, r, addr)?;
            in_flight.clear();
            loop {
                if self.stop.load(Ordering::Relaxed) {
                    return Ok(());
                }
                let batch = match self.take_from(cursor) {
                    RingRead::Evicted => {
                        adya_obs::counter!("serve.repl_catchups").inc();
                        break; // redo the disk walk on this connection
                    }
                    RingRead::Batch(b) => b,
                };
                for m in &batch {
                    writeln!(w, "{}", m.frame())?;
                    if let (Some(plane), Some(id)) = (&self.trace, m.trace) {
                        plane.stamp(id, Stage::Replicate);
                        in_flight.push(id);
                    }
                    let t = sent.entry(m.session.to_string()).or_default();
                    if let MutKind::Append { records, bytes, .. } = &m.kind {
                        t.records += records;
                        t.bytes += bytes.len() as u64;
                    } else if let MutKind::Put { bytes, .. } = &m.kind {
                        t.bytes += bytes.len() as u64;
                    }
                    cursor = m.seq + 1;
                }
                // Barrier (doubles as the idle heartbeat): the ack
                // means everything sent so far is durable on the
                // follower under its fsync policy.
                let t0 = Instant::now();
                self.barrier(w, r, cursor)?;
                rtt.record(t0.elapsed().as_micros() as u64);
                if let Some(plane) = &self.trace {
                    for id in in_flight.drain(..) {
                        plane.stamp(id, Stage::Ack);
                    }
                }
                self.install_acked(addr, &sent);
            }
        }
    }

    fn barrier(&self, w: &mut TcpStream, r: &mut BufReader<TcpStream>, seq: u64) -> io::Result<()> {
        writeln!(w, "{{\"op\": \"repl_flush\", \"seq\": {seq}}}")?;
        self.read_reply(r, "ack", |reply| {
            (reply.u64_at("ack") == Some(seq)).then_some(())
        })
    }

    /// Ships every byte the follower's inventory says it is missing.
    /// Returns the ring cursor to stream from plus the published
    /// totals the walk covers (installed as the acked baseline).
    fn catch_up(
        &self,
        w: &mut TcpStream,
        r: &mut BufReader<TcpStream>,
        addr: &str,
    ) -> io::Result<(u64, HashMap<String, Totals>)> {
        // Recorded *before* reading any file: mutations published
        // while the walk runs are replayed from the ring afterwards;
        // the overlap with freshly-read file bytes is resolved by the
        // follower's idempotent-by-offset append.
        let (from_seq, published) = {
            let st = self.state.lock().unwrap();
            (st.next_seq, st.published.clone())
        };
        for session in list_sessions(&self.data_dir)? {
            writeln!(w, "{{\"op\": \"replicate\", \"session\": \"{session}\"}}")?;
            let listing = self.read_reply(r, "replicate", |reply| {
                (reply.str_at("ok") == Some("replicate"))
                    .then(|| reply.str_at("files").unwrap_or("").to_string())
            })?;
            let inv: HashMap<FileName, u64> = proto::parse_inventory(&listing)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
                .into_iter()
                .collect();
            let dir = self.data_dir.join(&session);
            let local = dir::list(&dir)?;
            for &(file, _) in &local {
                // The file may grow (or vanish, for snapshots racing
                // compaction) between the listing and this read.
                let data = match dir::read(&dir, file) {
                    Ok(d) => d,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(e),
                };
                if file.is_append() {
                    let have = match inv.get(&file) {
                        Some(&h) if h <= data.len() as u64 => h as usize,
                        Some(_) => {
                            // Follower holds more than we do: divergent
                            // history (e.g. it outlived a wider tail).
                            // Reship from scratch.
                            writeln!(w, "{}", proto::remove_frame(&session, file))?;
                            0
                        }
                        None => 0,
                    };
                    for chunk_start in (have..data.len()).step_by(CHUNK) {
                        let chunk = &data[chunk_start..data.len().min(chunk_start + CHUNK)];
                        let frame =
                            proto::append_frame(&session, file, chunk_start as u64, chunk, None);
                        writeln!(w, "{frame}")?;
                    }
                } else if inv.get(&file) != Some(&(data.len() as u64)) {
                    writeln!(w, "{}", proto::put_frame(&session, file, &data))?;
                }
            }
            // Files the leader compacted away while the follower was
            // gone. Removed last, so a follower killed mid-walk never
            // loses coverage it cannot yet replace.
            for &file in inv.keys() {
                if !local.iter().any(|&(f, _)| f == file) {
                    writeln!(w, "{}", proto::remove_frame(&session, file))?;
                }
            }
        }
        self.barrier(w, r, from_seq)?;
        self.install_acked(addr, &published);
        Ok((from_seq, published))
    }

    fn install_acked(&self, addr: &str, sent: &HashMap<String, Totals>) {
        self.acked
            .lock()
            .unwrap()
            .insert(addr.to_string(), sent.clone());
        let st = self.state.lock().unwrap();
        let reg = adya_obs::global();
        for (session, tot) in &st.published {
            let a = sent.get(session).copied().unwrap_or_default();
            let labels = [("session", session.as_str()), ("follower", addr)];
            reg.gauge(&labeled("sli.repl_lag_records", &labels))
                .set(tot.records.saturating_sub(a.records) as i64);
            reg.gauge(&labeled("sli.repl_lag_bytes", &labels))
                .set(tot.bytes.saturating_sub(a.bytes) as i64);
        }
    }

    /// Reads one reply line, tolerating the 100ms poll timeout, up to
    /// [`REPLY_DEADLINE`] (checking the stop flag between polls), and
    /// hands the parsed frame to `accept`; a reply that does not parse
    /// or that `accept` turns down means the follower did not
    /// `expected`.
    fn read_reply<T>(
        &self,
        r: &mut BufReader<TcpStream>,
        expected: &str,
        accept: impl FnOnce(&json::Value) -> Option<T>,
    ) -> io::Result<T> {
        let deadline = Instant::now() + REPLY_DEADLINE;
        let mut buf = Vec::new();
        loop {
            match r.read_until(b'\n', &mut buf) {
                Ok(0) if buf.is_empty() => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "follower closed the connection",
                    ))
                }
                Ok(0) => {}
                Ok(_) if buf.ends_with(b"\n") => {
                    let line = String::from_utf8_lossy(&buf);
                    return json::parse(&line)
                        .ok()
                        .and_then(|reply| accept(&reply))
                        .ok_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("follower did not {expected}: {}", line.trim()),
                            )
                        });
                }
                Ok(_) => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
            if self.stop.load(Ordering::Relaxed) {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "hub stopping"));
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "follower reply deadline exceeded",
                ));
            }
        }
    }
}

impl Drop for ReplicationHub {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.cv.notify_all();
        for t in self.threads.lock().unwrap().drain(..) {
            let _ = t.join();
        }
    }
}

/// Session subdirectories of the data root, valid names only.
fn list_sessions(data_dir: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(data_dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let Some(name) = entry.file_name().to_str().map(str::to_string) else {
            continue;
        };
        if proto::validate_session_name(&name).is_ok() {
            out.push(name);
        }
    }
    out.sort();
    Ok(out)
}

/// A leader [`SessionDir`]'s handle for publishing its mutations into
/// the hub ring.
#[derive(Clone)]
pub struct LogPublisher {
    hub: Arc<ReplicationHub>,
    session: Arc<str>,
}

impl std::fmt::Debug for LogPublisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LogPublisher({})", self.session)
    }
}

impl LogPublisher {
    /// Bytes appended at `off` of `file`; `records` is how many event
    /// records they carry (0 for name side-log bytes) and `trace` the
    /// id of a sampled event record, so the replication stages of that
    /// event are stamped on both ends of the link.
    pub fn append(&self, file: FileName, off: u64, bytes: &[u8], records: u64, trace: Option<u64>) {
        self.hub.publish(
            &self.session,
            MutKind::Append {
                file,
                off,
                bytes: Arc::from(bytes),
                records,
            },
            trace,
        );
    }

    /// Whole-file replacement (snapshots, `closed`, truncation repair).
    pub fn put(&self, file: FileName, bytes: &[u8]) {
        self.hub.publish(
            &self.session,
            MutKind::Put {
                file,
                bytes: Arc::from(bytes),
            },
            None,
        );
    }

    /// File deleted by compaction.
    pub fn remove(&self, file: FileName) {
        self.hub
            .publish(&self.session, MutKind::Remove { file }, None);
    }
}

/// Why a follower refused a replication frame.
#[derive(Debug)]
pub enum SinkError {
    /// The frame is wrong (CRC mismatch, offset gap): the leader must
    /// reconnect and catch up. Nothing was written.
    Reject(String),
    /// Local disk trouble: this follower can no longer promise
    /// durability on this connection.
    Io(io::Error),
}

impl From<io::Error> for SinkError {
    fn from(e: io::Error) -> SinkError {
        SinkError::Io(e)
    }
}

/// Most session directories a sink holds open between barriers; one
/// more forces an early barrier. A catch-up walk visits every session
/// before its single `repl_flush`, and each directory holds up to two
/// descriptors.
const MAX_OPEN_DIRS: usize = 64;

/// Follower-side state machine: the peer checks — CRC, idempotent-by-
/// offset appends, gap refusal, file names re-read through the one
/// grammar — over a [`SessionDir`] per session, which applies the
/// mutations under this node's [`FsyncPolicy`].
#[derive(Debug)]
pub struct ReplicaSink {
    data_dir: PathBuf,
    fsync: FsyncPolicy,
    /// Directories written since the last durability barrier: the
    /// dirty set [`flush`](ReplicaSink::flush) syncs and then lets go
    /// of, so open handles are bounded by one barrier's traffic.
    dirs: HashMap<String, SessionDir>,
}

impl ReplicaSink {
    /// A sink writing under `data_dir` with the node's fsync policy.
    pub fn new(data_dir: PathBuf, fsync: FsyncPolicy) -> ReplicaSink {
        ReplicaSink {
            data_dir,
            fsync,
            dirs: HashMap::new(),
        }
    }

    fn dir(&mut self, session: &str) -> io::Result<&mut SessionDir> {
        if !self.dirs.contains_key(session) {
            if self.dirs.len() >= MAX_OPEN_DIRS {
                self.flush()?; // an early barrier is always safe
            }
            let dir = SessionDir::mirror(&self.data_dir.join(session), self.fsync)?;
            self.dirs.insert(session.to_string(), dir);
        }
        Ok(self.dirs.get_mut(session).expect("just inserted"))
    }

    /// Answers a `replicate` request: heals the session directory —
    /// as a mirror, so whatever a kill -9 of *this* process or a lost
    /// page left undecodable is cut away and every reported length is
    /// a trustworthy append offset the leader ships from — and returns
    /// the durable file inventory.
    pub fn inventory(&mut self, session: &str) -> io::Result<Vec<(FileName, u64)>> {
        let dir = self.dir(session)?;
        let healed = dir.heal()?;
        adya_obs::counter!("serve.repl_sanitized_tails").add(healed.len() as u64);
        dir.list()
    }

    /// Applies one `append`: CRC-verified, idempotent by offset (a
    /// replayed prefix is skipped; only the novel suffix is written),
    /// and gap-refusing (an offset beyond the durable length means
    /// this follower missed bytes and must be caught up).
    pub fn append(
        &mut self,
        session: &str,
        file: &str,
        off: u64,
        crc: u32,
        data: &[u8],
    ) -> Result<(), SinkError> {
        let file = checked(file, crc, data)?;
        let dir = self.dir(session)?;
        let len = dir.len(file)?;
        if off > len {
            return Err(SinkError::Reject(format!(
                "gap: append at {off} but {file} holds {len} bytes"
            )));
        }
        let skip = (len - off) as usize;
        if skip >= data.len() {
            return Ok(()); // full replay of already-durable bytes
        }
        Ok(dir.append(file, &data[skip..], 0, None)?)
    }

    /// Applies one `put`: CRC-verified, atomic.
    pub fn put(
        &mut self,
        session: &str,
        file: &str,
        crc: u32,
        data: &[u8],
    ) -> Result<(), SinkError> {
        let file = checked(file, crc, data)?;
        Ok(self.dir(session)?.put(file, data)?)
    }

    /// Applies one `remove`; a missing file is fine (never shipped, or
    /// already removed by a replayed frame).
    pub fn remove(&mut self, session: &str, file: &str) -> io::Result<()> {
        let file = proto::replica_file(file)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        self.dir(session)?.remove(file)
    }

    /// Durability barrier: make everything since the last barrier as
    /// durable as the fsync policy promises, then the caller acks.
    pub fn flush(&mut self) -> io::Result<()> {
        for (_, mut dir) in self.dirs.drain() {
            dir.sync()?;
        }
        Ok(())
    }
}

/// The checks every payload-bearing frame passes before it names a
/// path: the file name is in the session grammar and the payload
/// matches its checksum.
fn checked(file: &str, crc: u32, data: &[u8]) -> Result<FileName, SinkError> {
    let name = proto::replica_file(file).map_err(SinkError::Reject)?;
    if wire::crc32(data) != crc {
        return Err(SinkError::Reject(format!("crc mismatch on {file}")));
    }
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adya-replica-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sink_append_is_idempotent_by_offset_and_refuses_gaps() {
        let dir = tmp("sink-append");
        let mut sink = ReplicaSink::new(dir.clone(), FsyncPolicy::Never);
        let payload = b"hello records";
        let crc = wire::crc32(payload);
        sink.append("s1", "seg-0.log", 0, crc, payload).unwrap();
        // Full replay: skipped, file unchanged.
        sink.append("s1", "seg-0.log", 0, crc, payload).unwrap();
        assert_eq!(fs::read(dir.join("s1/seg-0.log")).unwrap(), payload);
        // Overlapping replay: only the novel suffix lands.
        let wider = b"hello records and more";
        sink.append("s1", "seg-0.log", 0, wire::crc32(wider), wider)
            .unwrap();
        assert_eq!(fs::read(dir.join("s1/seg-0.log")).unwrap(), wider);
        // A gap means missed bytes: refused, nothing written.
        let e = sink
            .append("s1", "seg-0.log", 100, wire::crc32(b"x"), b"x")
            .unwrap_err();
        assert!(matches!(e, SinkError::Reject(_)));
        // A wrong checksum never touches disk.
        let e = sink
            .append("s1", "seg-0.log", 22, 0xbad, b"tail")
            .unwrap_err();
        assert!(matches!(e, SinkError::Reject(_)));
        assert_eq!(fs::read(dir.join("s1/seg-0.log")).unwrap(), wider);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_put_is_atomic_and_remove_is_idempotent() {
        let dir = tmp("sink-put");
        let mut sink = ReplicaSink::new(dir.clone(), FsyncPolicy::Never);
        sink.put("s1", "closed", wire::crc32(b"fin"), b"fin")
            .unwrap();
        assert_eq!(fs::read(dir.join("s1/closed")).unwrap(), b"fin");
        sink.remove("s1", "closed").unwrap();
        sink.remove("s1", "closed").unwrap(); // second remove: fine
        assert!(!dir.join("s1/closed").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inventory_sanitizes_torn_tails_before_reporting_lengths() {
        let dir = tmp("sink-sanitize");
        let mut sink = ReplicaSink::new(dir.clone(), FsyncPolicy::Never);
        // An intact one-record segment, then torn extra bytes — the
        // half-written append of a killed follower.
        let log = adya_online::encode_log(&[adya_history::Event::Begin(adya_history::TxnId(1))]);
        let good_len = log.len() as u64;
        let mut torn = log.clone();
        torn.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        fs::create_dir_all(dir.join("s1")).unwrap();
        fs::write(dir.join("s1/seg-0.log"), &torn).unwrap();
        fs::write(dir.join("s1/names-0.log"), b"x\npartial-nam").unwrap();
        fs::write(dir.join("s1/snap-1.snap"), b"garbage").unwrap();
        fs::write(dir.join("s1/.put.tmp"), b"stray").unwrap();
        let inv = sink.inventory("s1").unwrap();
        assert_eq!(
            inv,
            vec![(FileName::Names(0), 2), (FileName::Segment(0), good_len)]
        );
        assert!(!dir.join("s1/snap-1.snap").exists());
        assert!(!dir.join("s1/.put.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inventory_reports_damaged_segments_at_their_intact_prefix_so_the_leader_reships() {
        use adya_history::{Event, TxnId};
        let dir = tmp("sink-reship");
        let log = adya_online::encode_log(&[
            Event::Begin(TxnId(1)),
            Event::Commit(TxnId(1)),
            Event::Begin(TxnId(2)),
        ]);
        let one_record = adya_online::encode_log(&[Event::Begin(TxnId(1))]).len();
        // What an OS crash under interval/never fsync can leave: a lost
        // page in the middle of a closed segment, a lost header.
        let mut holed = log.clone();
        holed[one_record + wire::FRAME_HEADER] ^= 0xff;
        fs::create_dir_all(dir.join("s1")).unwrap();
        fs::write(dir.join("s1/seg-0.log"), &holed).unwrap();
        fs::write(dir.join("s1/seg-3.log"), vec![0; log.len()]).unwrap();
        fs::write(dir.join("s1/seg-6.log"), &log).unwrap();
        let mut sink = ReplicaSink::new(dir.clone(), FsyncPolicy::Never);
        let inv = sink.inventory("s1").unwrap();
        assert_eq!(
            inv,
            vec![
                (FileName::Segment(0), one_record as u64),
                (FileName::Segment(3), 0),
                (FileName::Segment(6), log.len() as u64),
            ]
        );
        // The leader's catch-up ships from the reported lengths; the
        // appends land on intact bytes and rebuild the leader's files.
        for (file, have) in [("seg-0.log", one_record), ("seg-3.log", 0)] {
            let rest = &log[have..];
            sink.append("s1", file, have as u64, wire::crc32(rest), rest)
                .unwrap();
            sink.flush().unwrap();
            assert_eq!(fs::read(dir.join("s1").join(file)).unwrap(), log, "{file}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_refuses_names_outside_the_grammar_before_they_name_a_path() {
        let dir = tmp("sink-names");
        let mut sink = ReplicaSink::new(dir.clone(), FsyncPolicy::Never);
        let crc = wire::crc32(b"x");
        for bad in [
            "seg-99999999999999999999999.log", // overflows u64
            "seg-+5.log",
            "seg-05.log",
            "../seg-0.log",
            ".put.tmp",
        ] {
            assert!(
                matches!(sink.put("s1", bad, crc, b"x"), Err(SinkError::Reject(_))),
                "{bad}"
            );
            assert!(
                matches!(
                    sink.append("s1", bad, 0, crc, b"x"),
                    Err(SinkError::Reject(_))
                ),
                "{bad}"
            );
            assert!(sink.remove("s1", bad).is_err(), "{bad}");
        }
        assert!(!dir.join("s1").exists(), "a refused frame touches nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_bounds_open_directories_with_early_barriers() {
        let dir = tmp("sink-bound");
        let mut sink = ReplicaSink::new(dir.clone(), FsyncPolicy::Interval);
        let sessions = MAX_OPEN_DIRS + 6;
        // Two passes, as a catch-up walk followed by ring replay would.
        for (off, chunk) in [(0, &b"abc"[..]), (3, b"def")] {
            for i in 0..sessions {
                sink.append(
                    &format!("s{i}"),
                    "seg-0.log",
                    off,
                    wire::crc32(chunk),
                    chunk,
                )
                .unwrap();
                assert!(sink.dirs.len() <= MAX_OPEN_DIRS);
            }
        }
        sink.flush().unwrap();
        assert!(sink.dirs.is_empty());
        for i in 0..sessions {
            let got = fs::read(dir.join(format!("s{i}/seg-0.log"))).unwrap();
            assert_eq!(got, b"abcdef", "s{i}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file under `dir` with its bytes, by name.
    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
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

    /// Applies everything published since `cursor` through `sink`, the
    /// way a follower connection would, barrier included.
    fn drain(hub: &ReplicationHub, cursor: &mut u64, sink: &mut ReplicaSink) {
        while *cursor < hub.state.lock().unwrap().next_seq {
            let RingRead::Batch(batch) = hub.take_from(*cursor) else {
                panic!("nothing may be evicted in this test");
            };
            for m in batch {
                match &m.kind {
                    MutKind::Append {
                        file, off, bytes, ..
                    } => sink
                        .append(
                            &m.session,
                            &file.to_string(),
                            *off,
                            wire::crc32(bytes),
                            bytes,
                        )
                        .unwrap(),
                    MutKind::Put { file, bytes } => sink
                        .put(&m.session, &file.to_string(), wire::crc32(bytes), bytes)
                        .unwrap(),
                    MutKind::Remove { file } => sink.remove(&m.session, &file.to_string()).unwrap(),
                }
                *cursor = m.seq + 1;
            }
        }
        sink.flush().unwrap();
    }

    /// Appends the same garbage to the same file on both nodes: the
    /// disk image of a follower that mirrored a write its leader then
    /// died in the middle of.
    fn tear(roots: [&Path; 2], file: FileName, garbage: &[u8]) {
        for root in roots {
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(root.join("s1").join(file.to_string()))
                .unwrap();
            f.write_all(garbage).unwrap();
        }
    }

    #[test]
    fn follower_directory_equals_leader_directory_after_every_kind_of_mutation() {
        use crate::session::{Session, SessionConfig};
        let root = tmp("mirror");
        let (leader, follower) = (root.join("leader"), root.join("follower"));
        let hub = ReplicationHub::start(
            leader.clone(),
            Vec::new(), // no sender threads: the test is the follower link
            "127.0.0.1:0".into(),
            "test".into(),
            None,
            None,
        );
        let mut sink = ReplicaSink::new(follower.clone(), FsyncPolicy::Interval);
        let mut cursor = 0;
        let mut cfg = SessionConfig::default();
        cfg.log.rotate_events = 4;
        cfg.log.snapshot_every = u64::MAX; // snapshots are explicit below
        let tap = adya_faults::TapCrashPlane::new(Default::default());
        let names = |dir: &Path| -> Vec<String> {
            dir_bytes(&dir.join("s1"))
                .into_iter()
                .map(|(n, _)| n)
                .collect()
        };
        let mut check = |what: &str, sink: &mut ReplicaSink| {
            drain(&hub, &mut cursor, sink);
            assert_eq!(
                dir_bytes(&follower.join("s1")),
                dir_bytes(&leader.join("s1")),
                "directories diverged after {what}"
            );
        };

        let mut s = Session::create(&leader, "s1", cfg, Some(hub.publisher("s1"))).unwrap();
        check("create", &mut sink);
        s.apply_line("b1 w1(x,1) c1 b2 w2(y,1) c2 b3 r3(x1) c3", &tap)
            .unwrap();
        check("segment rotation", &mut sink);
        assert_eq!(
            names(&leader),
            ["names-0.log", "seg-0.log", "seg-4.log", "seg-8.log"]
        );

        s.snapshot().unwrap();
        check("snapshot + compaction", &mut sink);
        assert_eq!(names(&leader), ["names-2.log", "seg-8.log", "snap-9.snap"]);

        s.apply_line("b4 w4(z,1) w4(q,1) c4", &tap).unwrap();
        s.snapshot().unwrap();
        check("name-log rotation", &mut sink);
        assert_eq!(
            names(&leader),
            ["names-4.log", "seg-12.log", "snap-13.snap"]
        );

        // Kill mid-append: a torn record and a torn name line, which the
        // follower mirrored too. Recovery must cut both on both nodes.
        s.apply_line("b5 w5(k,1)", &tap).unwrap();
        check("the appends before the kill", &mut sink);
        drop(s);
        let roots = [leader.as_path(), follower.as_path()];
        tear(roots, FileName::Segment(12), &[40, 0, 0, 0, 0xde, 0xad]);
        tear(roots, FileName::Names(4), b"half-a-na");
        let mut s = Session::recover(&leader, "s1", cfg, Some(hub.publisher("s1"))).unwrap();
        assert!(s.truncated.take().is_some_and(|d| d.contains("seg-12.log")));
        check("recovery of torn tails", &mut sink);
        assert_eq!(fs::read(leader.join("s1/names-4.log")).unwrap(), b"k\n");

        s.apply_line("c5", &tap).unwrap();
        s.close().unwrap();
        check("close", &mut sink);
        assert_eq!(
            names(&leader),
            ["closed", "names-5.log", "seg-16.log", "snap-16.snap"]
        );
        hub.stop();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn damage_in_a_closed_segment_is_refused_with_every_byte_left_in_place() {
        use crate::log::{LogConfig, RecoverError, SessionLog};
        use adya_history::{Event, TxnId};
        let root = tmp("closed-damage");
        let (leader, follower) = (root.join("leader"), root.join("follower"));
        let hub = ReplicationHub::start(
            leader.clone(),
            Vec::new(),
            "127.0.0.1:0".into(),
            "test".into(),
            None,
            None,
        );
        let mut sink = ReplicaSink::new(follower.clone(), FsyncPolicy::Never);
        let mut cursor = 0;
        let cfg = LogConfig {
            rotate_events: 4,
            snapshot_every: u64::MAX,
            ..LogConfig::default()
        };
        let mut log =
            SessionLog::create(&leader.join("s1"), cfg, Some(hub.publisher("s1"))).unwrap();
        for t in 1..=10 {
            log.append(&Event::Begin(TxnId(t))).unwrap();
        }
        drop(log);
        drain(&hub, &mut cursor, &mut sink);
        let intact = dir_bytes(&follower.join("s1"));
        assert_eq!(dir_bytes(&leader.join("s1")), intact);

        // The last byte of closed seg-0.log flips: its final record —
        // an acknowledged one — fails its checksum exactly as a torn
        // append would, in a file no writer had open.
        let seg0 = leader.join("s1/seg-0.log");
        let mut bytes = fs::read(&seg0).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        fs::write(&seg0, &bytes).unwrap();
        let damaged = dir_bytes(&leader.join("s1"));

        let published = hub.state.lock().unwrap().next_seq;
        let Err(e) = SessionLog::recover(
            &leader.join("s1"),
            cfg,
            adya_online::GcConfig::default(),
            false,
            Some(hub.publisher("s1")),
        ) else {
            panic!("recovery must refuse a damaged closed segment");
        };
        assert!(
            matches!(&e, RecoverError::Corrupt(m) if m.contains("seg-0.log")),
            "{e}"
        );
        assert_eq!(dir_bytes(&leader.join("s1")), damaged, "leader bytes cut");
        assert_eq!(
            hub.state.lock().unwrap().next_seq,
            published,
            "a refused recovery publishes nothing"
        );
        drain(&hub, &mut cursor, &mut sink);
        assert_eq!(dir_bytes(&follower.join("s1")), intact);
        hub.stop();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn leader_recovery_and_follower_inventory_heal_a_torn_directory_identically() {
        use crate::log::{LogConfig, SessionLog};
        let root = tmp("heal-roles");
        let cfg = LogConfig::default();
        let mut log = SessionLog::create(&root.join("a/s1"), cfg, None).unwrap();
        log.append_names(["x", "y"].into_iter()).unwrap();
        for t in 1..=3 {
            log.append(&adya_history::Event::Begin(adya_history::TxnId(t)))
                .unwrap();
        }
        drop(log);
        fs::create_dir_all(root.join("b/s1")).unwrap();
        for (name, mut bytes) in dir_bytes(&root.join("a/s1")) {
            match name.as_str() {
                "seg-0.log" => bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2]),
                "names-0.log" => bytes.extend_from_slice(b"partial-nam"),
                other => panic!("unexpected {other}"),
            }
            for node in ["a", "b"] {
                fs::write(root.join(node).join("s1").join(&name), &bytes).unwrap();
            }
        }
        for node in ["a", "b"] {
            fs::write(root.join(node).join("s1/snap.tmp"), b"stray").unwrap();
        }

        let r = SessionLog::recover(
            &root.join("a/s1"),
            cfg,
            adya_online::GcConfig::default(),
            false,
            None,
        )
        .unwrap();
        assert_eq!(r.log.records(), 3);
        drop(r);
        let inv = ReplicaSink::new(root.join("b"), FsyncPolicy::Never)
            .inventory("s1")
            .unwrap();
        let healed = dir_bytes(&root.join("a/s1"));
        assert_eq!(dir_bytes(&root.join("b/s1")), healed);
        assert_eq!(
            inv.iter()
                .map(|(f, len)| (f.to_string(), *len))
                .collect::<Vec<_>>(),
            healed
                .iter()
                .map(|(n, b)| (n.clone(), b.len() as u64))
                .collect::<Vec<_>>()
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn hub_ring_streams_evicts_and_accounts_lag() {
        let dir = tmp("hub-ring");
        let hub = ReplicationHub::start(
            dir.clone(),
            Vec::new(), // no sender threads: drive the ring directly
            "127.0.0.1:0".into(),
            "test".into(),
            Some(0),
            None,
        );
        let p = hub.publisher("s1");
        p.append(FileName::Segment(0), 0, b"abcd", 1, None);
        p.put(FileName::Snapshot(4), b"snap");
        p.remove(FileName::Segment(0));
        match hub.take_from(0) {
            RingRead::Batch(b) => {
                assert_eq!(b.len(), 3);
                assert!(b[0].frame().contains("\"op\": \"append\""));
                assert!(b[1].frame().contains("\"op\": \"put\""));
                assert!(b[2].frame().contains("\"op\": \"remove\""));
                assert_eq!((b[0].seq, b[1].seq, b[2].seq), (0, 1, 2));
            }
            RingRead::Evicted => panic!("nothing evicted yet"),
        }
        // With no follower configured there is no lag to report…
        assert_eq!(hub.lag_summary(), (0, 0));
        // …but published totals accumulated.
        let st = hub.state.lock().unwrap();
        assert_eq!(
            st.published["s1"],
            Totals {
                records: 1,
                bytes: 8
            }
        );
        drop(st);
        // Force eviction past the ring bound.
        for _ in 0..(RING_MAX_LEN + 10) {
            p.append(FileName::Segment(0), 0, b"x", 0, None);
        }
        assert!(matches!(hub.take_from(0), RingRead::Evicted));
        hub.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traced_appends_carry_their_id_on_the_wire() {
        let dir = tmp("hub-trace");
        let hub = ReplicationHub::start(
            dir.clone(),
            Vec::new(),
            "127.0.0.1:0".into(),
            "test".into(),
            None,
            Some(Arc::new(TracePlane::new("test", "leader"))),
        );
        let p = hub.publisher("s1");
        let id = adya_obs::trace_id("s1", 32);
        p.append(FileName::Segment(0), 8, b"rec", 1, Some(id));
        p.append(FileName::Segment(0), 11, b"rec", 1, None); // untraced
        match hub.take_from(0) {
            RingRead::Batch(b) => {
                let wire_id = format!("\"trace\": \"{}\"", adya_obs::fmt_trace_id(id));
                assert!(b[0].frame().contains(&wire_id), "{}", b[0].frame());
                assert!(!b[1].frame().contains("trace"), "{}", b[1].frame());
                // The annotated frame still parses, id intact.
                match proto::parse_frame(&b[0].frame()).unwrap() {
                    crate::proto::ClientFrame::ReplAppend { trace, .. } => {
                        assert_eq!(trace, Some(id));
                    }
                    other => panic!("parsed as {other:?}"),
                }
            }
            RingRead::Evicted => panic!("nothing evicted"),
        }
        hub.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disconnected_follower_counts_published_work_as_lag() {
        let dir = tmp("hub-lag");
        let hub = ReplicationHub::start(
            dir.clone(),
            vec!["127.0.0.1:1".into()], // reserved port: never connects
            "127.0.0.1:0".into(),
            "test".into(),
            Some(0),
            None,
        );
        assert!(!hub.unhealthy(), "no published work, no lag");
        hub.publisher("s1")
            .append(FileName::Segment(0), 0, b"abcdef", 2, None);
        let (rec, bytes) = hub.lag_summary();
        assert_eq!((rec, bytes), (2, 6));
        assert!(hub.unhealthy(), "lag 2 > max 0");
        let health = hub.health_json();
        assert!(health.contains("\"max_lag_records\": 2"), "{health}");
        hub.stop();
        fs::remove_dir_all(&dir).unwrap();
    }
}
