//! The replication plane: a leader ships its session directories to
//! followers, and the follower-side state machine applies what arrives.
//!
//! A follower holds a byte mirror of its leader's session directories.
//! A snapshot records the offset of the open segment it was taken at,
//! so only *the same bytes* let [`SessionLog::recover`] work unchanged
//! — and then a promoted follower resumes every session with the dead
//! leader's verdicts, by the invariant that covers kill -9 restarts.
//!
//! **One path.** The leader's directory is the only source: a
//! [`LogPublisher`] only tells the hub that a session changed, and by
//! how many records and bytes. A sender per follower walks each changed
//! session and ships the suffix the follower lacks (`append`/`put`/
//! `remove` frames, hex payloads, CRC-32 checked before the follower's
//! disk is touched), knowing the follower's lengths from its inventory
//! (`replicate`) on (re)connect and from what it shipped after. A round
//! of walks ends with a `repl_flush` barrier, acked once the follower's
//! [`FsyncPolicy`] has the bytes safe; idle, a sender sends one every
//! 400 ms. The published totals a round began with become the
//! follower's acked totals at that ack; the difference is the lag
//! (`sli.repl_lag_*` gauges, `/health` against `--repl-lag-max`).
//!
//! **Measure in reverse, ship in order.** The leader writes a name
//! before the records that use it, records before the snapshot that
//! covers them, the last snapshot before `closed`. So a walk opens
//! (a [`Pinned`] handle) and measures a session in reverse ship order —
//! `closed`, snapshots, segments, name logs — again if the listing moved
//! meanwhile, and every file measured later covers what an earlier one
//! needs. It ships in ship order: name logs whole, segments cut at their
//! measured length, snapshots, `closed` and any file replaced since the
//! follower's copy put whole, removes last. So a follower stopped after
//! any frame holds a directory that recovers to a prefix. A file that
//! compaction removes may hold bytes a follower lacks, so
//! [`SessionDir::remove`] hands the hub an open handle on it, kept until
//! every connected sender has walked past; a walk that ships it counts
//! its copy as measured at the remove, so it goes out once. (A
//! follower back from an outage starts from its inventory: a segment
//! created and removed while it was away is gone, and its directory
//! does not recover between the first frame past that gap and the
//! covering snapshot.)
//!
//! **Trace marks.** Appending a sampled record files its `(file, end
//! offset, trace id)`, the newest `BATCH` per session; a walk ends an
//! `append` chunk at each, so the id rides the frame, and both ends
//! stamp `replicate` at the frame and `ack` at the barrier.
//!
//! [`SessionLog::recover`]: crate::log::SessionLog::recover

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
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
    write_line, TracePlane,
};
use adya_online::wire;

use crate::dir::{self, FileName, FsyncPolicy, Pinned, SessionDir};
use crate::proto::{self, ClientFrame};

/// Largest payload shipped in one `append` frame.
const CHUNK: usize = 64 * 1024;
/// Trace marks kept per session: a few rounds of sampled records.
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

/// What the hub knows of one session: *that* it changed, not how.
/// Generations count the hub's mutations from 1.
#[derive(Debug, Default)]
struct Changes {
    totals: Totals,
    /// Generation of the newest mutation.
    gen: u64,
    /// Generation of each present file's newest put.
    puts: HashMap<FileName, u64>,
    /// `(file, end offset, trace id)` of the newest sampled records.
    marks: VecDeque<(FileName, u64, u64)>,
    /// Removed append-only files a connected sender may still need.
    removed: Vec<(u64, Arc<Pinned>)>,
}

struct HubState {
    gen: u64,
    sessions: HashMap<String, Changes>,
    /// Per connected follower: the generation its last round began at.
    links: HashMap<String, u64>,
}

/// What one follower connection knows of its follower: per session,
/// every file it holds with its length, and the generation that copy
/// was measured at (a put or remove since changed what it lacks).
#[derive(Default)]
struct Link {
    mirrors: HashMap<String, (BTreeMap<FileName, u64>, u64)>,
    /// Where the last round began; `None` before the first, which walks
    /// every session on disk.
    seen: Option<u64>,
    /// Trace ids shipped since the last barrier.
    in_flight: Vec<u64>,
}

/// Leader-side replication: the change registry plus one sender thread
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
    /// send and `ack` at barrier acknowledgement for traced records.
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
                gen: 0,
                sessions: HashMap::new(),
                links: HashMap::new(),
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
        // Taking the lock orders the store before any waiter's check of
        // it: one that checked first is waiting by now and is notified.
        drop(self.state.lock().unwrap());
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
            for (s, c) in &st.sessions {
                let a = am.and_then(|m| m.get(s)).copied().unwrap_or_default();
                rec = rec.max(c.totals.records.saturating_sub(a.records));
                bytes = bytes.max(c.totals.bytes.saturating_sub(a.bytes));
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

    /// Records a mutation of `session`: a new generation, applied to
    /// the session's changes by `change`.
    fn publish(&self, session: &str, change: impl FnOnce(&mut Changes, u64)) {
        let mut st = self.state.lock().unwrap();
        st.gen += 1;
        let gen = st.gen;
        let linked = !st.links.is_empty();
        let c = st.sessions.entry(session.to_string()).or_default();
        c.gen = gen;
        change(c, gen);
        if !linked {
            c.removed.clear(); // no sender can need them
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Records that the sender of `addr` walked everything changed
    /// before `gen` (`None`: it disconnected), and lets go of the
    /// removed files no connected sender still needs.
    fn walked(&self, addr: &str, gen: Option<u64>) {
        let mut st = self.state.lock().unwrap();
        match gen {
            Some(gen) => st.links.insert(addr.to_string(), gen),
            None => st.links.remove(addr),
        };
        let low = st.links.values().min().copied().unwrap_or(u64::MAX);
        for c in st.sessions.values_mut() {
            c.removed.retain(|&(g, _)| g > low);
        }
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
                    self.pause(Duration::from_millis(250));
                    continue;
                }
            };
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
            self.connected.fetch_add(1, Ordering::Relaxed);
            g_conn.set(1);
            adya_obs::gauge!("sli.repl_followers_connected")
                .set(self.connected.load(Ordering::Relaxed) as i64);
            let _ = self.feed(&mut BufReader::new(stream), addr);
            self.walked(addr, None);
            g_conn.set(0);
            self.connected.fetch_sub(1, Ordering::Relaxed);
            adya_obs::gauge!("sli.repl_followers_connected")
                .set(self.connected.load(Ordering::Relaxed) as i64);
            self.pause(Duration::from_millis(200));
        }
    }

    /// Waits `pause` before a reconnect, or until [`ReplicationHub::stop`],
    /// whichever comes first. Publishes notify the same condvar; they do
    /// not shorten the wait.
    fn pause(&self, pause: Duration) {
        let st = self.state.lock().unwrap();
        let running = |_: &mut HubState| !self.stop.load(Ordering::Relaxed);
        drop(self.cv.wait_timeout_while(st, pause, running));
    }

    /// Drives one follower connection: hello, then rounds of walks
    /// and barriers, until an error or stop.
    fn feed<S: Read + Write>(&self, io: &mut BufReader<S>, addr: &str) -> io::Result<()> {
        let mut hello = format!(
            "{{\"op\": \"repl_hello\", \"node\": \"{}\", \"advertise\": \"{}\"}}",
            esc(&self.node),
            esc(&self.advertise)
        );
        write_line(io.get_mut(), &mut hello)?;
        self.read_reply(io, "repl_hello", |reply| {
            (reply.str_at("ok") == Some("repl_hello")).then_some(())
        })?;
        let mut link = Link::default();
        loop {
            if let Some(seen) = link.seen {
                // Nothing new: the round is a heartbeat barrier.
                let st = self.state.lock().unwrap();
                if st.gen == seen && !self.stop.load(Ordering::Relaxed) {
                    drop(self.cv.wait_timeout(st, Duration::from_millis(400)));
                }
            }
            if self.stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            self.round(&mut link, io, addr)?;
        }
    }

    /// Walks every session changed since the link's last round — every
    /// session on disk in a link's first — then makes it durable with a
    /// barrier and installs the totals published when the round began
    /// as acknowledged.
    fn round<S: Read + Write>(
        &self,
        link: &mut Link,
        io: &mut BufReader<S>,
        addr: &str,
    ) -> io::Result<()> {
        let (gen, published, mut sessions) = {
            let mut st = self.state.lock().unwrap();
            if link.seen.is_none() {
                // Nothing removed from now on is let go of before this
                // link's first round is done.
                st.links.insert(addr.to_string(), 0);
            }
            let changed = st
                .sessions
                .iter()
                .filter(|(_, c)| link.seen.is_none_or(|seen| c.gen > seen))
                .map(|(s, _)| s.clone())
                .collect::<Vec<_>>();
            let totals: HashMap<String, Totals> = st
                .sessions
                .iter()
                .map(|(s, c)| (s.clone(), c.totals))
                .collect();
            (st.gen, totals, changed)
        };
        if link.seen.is_none() {
            sessions.extend(list_sessions(&self.data_dir)?);
        }
        sessions.sort_unstable();
        sessions.dedup();
        for session in &sessions {
            self.walk(link, session, gen, io)?;
        }
        // The ack means everything shipped so far is durable on the
        // follower under its fsync policy.
        let t0 = Instant::now();
        let mut flush = format!("{{\"op\": \"repl_flush\", \"seq\": {gen}}}");
        write_line(io.get_mut(), &mut flush)?;
        self.read_reply(io, "ack", |reply| {
            (reply.u64_at("ack") == Some(gen)).then_some(())
        })?;
        adya_obs::global()
            .histogram("sli.repl_ack_rtt_us")
            .record(t0.elapsed().as_micros() as u64);
        if let Some(plane) = &self.trace {
            for id in link.in_flight.drain(..) {
                plane.stamp(id, Stage::Ack);
            }
        }
        self.install_acked(addr, &published);
        link.seen = Some(gen);
        self.walked(addr, Some(gen));
        Ok(())
    }

    /// Ships what the follower's copy of `session` lacks: measure in
    /// reverse ship order, ship in ship order (see the module docs).
    fn walk<S: Read + Write>(
        &self,
        link: &mut Link,
        session: &str,
        gen: u64,
        io: &mut BufReader<S>,
    ) -> io::Result<()> {
        if !link.mirrors.contains_key(session) {
            let w = io.get_mut();
            let mut replicate = format!("{{\"op\": \"replicate\", \"session\": \"{session}\"}}");
            write_line(w, &mut replicate)?;
            let listing = self.read_reply(io, "replicate", |reply| {
                (reply.str_at("ok") == Some("replicate"))
                    .then(|| reply.str_at("files").unwrap_or("").to_string())
            })?;
            let files = proto::parse_inventory(&listing)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let files = files.into_iter().collect();
            link.mirrors.insert(session.to_string(), (files, gen));
        }
        let (files, at) = link.mirrors.get_mut(session).expect("just inserted");
        let w = io.get_mut();
        let (listed, mut measured) = measure(&self.data_dir.join(session))?;
        let (puts, marks, removed) = match self.state.lock().unwrap().sessions.get(session) {
            Some(c) => (
                c.puts.clone(),
                Vec::from(c.marks.clone()),
                c.removed.clone(),
            ),
            None => Default::default(),
        };
        // Files removed since the copy was measured, newest last: their
        // last bytes, at their final length. A session mutates its files
        // one at a time, so everything it published up to the newest of
        // them happened before the listing that lacks it: the copy
        // counts as measured there.
        let mut measured_at = gen;
        for (g, p) in removed {
            if g > *at && !listed.contains(&p.file) {
                measured_at = measured_at.max(g);
                measured.retain(|q| q.file != p.file);
                measured.push(p);
            }
        }
        measured.sort_by_key(|p| p.file);
        for p in &measured {
            let have = files.get(&p.file).copied();
            let replaced = puts.get(&p.file).is_some_and(|&g| g > *at);
            let whole = p.file.is_names() || !listed.contains(&p.file);
            let end = if whole { p.len_now()? } else { p.len };
            let append_from = match have {
                _ if replaced || !p.file.is_append() => None,
                Some(h) => (h <= end).then_some(h),
                None => (end > 0).then_some(0),
            };
            if let Some(from) = append_from {
                self.ship_suffix(w, session, p, from..end, &marks, &mut link.in_flight)?;
            } else if replaced || have != Some(end) {
                write_line(w, &mut proto::put_frame(session, p.file, &p.read(0, end)?))?;
            }
            files.insert(p.file, end);
        }
        // Whatever the leader no longer lists — compacted away, and
        // shipped above for the last time if it was removed since.
        for (&file, _) in files.iter().filter(|(f, _)| !listed.contains(f)) {
            write_line(w, &mut proto::remove_frame(session, file))?;
        }
        files.retain(|f, _| listed.contains(f));
        *at = measured_at;
        Ok(())
    }

    /// `append` frames for the `range` of `p`, a chunk ending at every
    /// marked record so its trace id rides the frame.
    fn ship_suffix(
        &self,
        w: &mut impl Write,
        session: &str,
        p: &Pinned,
        range: std::ops::Range<u64>,
        marks: &[(FileName, u64, u64)],
        in_flight: &mut Vec<u64>,
    ) -> io::Result<()> {
        let mut marks = marks.iter().filter(|m| m.0 == p.file).peekable();
        let mut at = range.start;
        while at < range.end {
            while marks.next_if(|m| m.1 <= at).is_some() {}
            let mut end = range.end.min(at + CHUNK as u64);
            let trace = marks.next_if(|m| m.1 <= end).map(|m| {
                end = m.1;
                m.2
            });
            let bytes = p.read(at, end)?;
            write_line(
                w,
                &mut proto::append_frame(session, p.file, at, &bytes, trace),
            )?;
            if let (Some(plane), Some(id)) = (&self.trace, trace) {
                plane.stamp(id, Stage::Replicate);
                in_flight.push(id);
            }
            at = end;
        }
        Ok(())
    }

    fn install_acked(&self, addr: &str, sent: &HashMap<String, Totals>) {
        self.acked
            .lock()
            .unwrap()
            .insert(addr.to_string(), sent.clone());
        let st = self.state.lock().unwrap();
        let reg = adya_obs::global();
        for (session, c) in &st.sessions {
            let a = sent.get(session).copied().unwrap_or_default();
            let labels = [("session", session.as_str()), ("follower", addr)];
            reg.gauge(&labeled("sli.repl_lag_records", &labels))
                .set(c.totals.records.saturating_sub(a.records) as i64);
            reg.gauge(&labeled("sli.repl_lag_bytes", &labels))
                .set(c.totals.bytes.saturating_sub(a.bytes) as i64);
        }
    }

    /// Reads one reply line, tolerating the 100ms poll timeout, up to
    /// [`REPLY_DEADLINE`] (checking the stop flag between polls), and
    /// hands the parsed frame to `accept`; a reply that does not parse
    /// or that `accept` turns down means the follower did not
    /// `expected`.
    fn read_reply<T>(
        &self,
        r: &mut impl BufRead,
        expected: &str,
        accept: impl FnOnce(&json::Value) -> Option<T>,
    ) -> io::Result<T> {
        let deadline = Instant::now() + REPLY_DEADLINE;
        let mut buf = Vec::new();
        loop {
            let kind = match r.read_until(b'\n', &mut buf) {
                Ok(_) if buf.ends_with(b"\n") => break,
                // `read_until` stops short of the delimiter only at the
                // end of the stream: no more bytes will come.
                Ok(_) => io::ErrorKind::UnexpectedEof,
                Err(e)
                    if !matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(e)
                }
                Err(_) if self.stop.load(Ordering::Relaxed) => io::ErrorKind::Interrupted,
                Err(_) if Instant::now() >= deadline => io::ErrorKind::TimedOut,
                Err(_) => continue,
            };
            return Err(io::Error::new(kind, format!("no {expected} reply: {kind}")));
        }
        let line = String::from_utf8_lossy(&buf);
        let reply = json::parse(&line).ok().and_then(|reply| accept(&reply));
        reply.ok_or_else(|| {
            let detail = format!("follower did not {expected}: {}", line.trim());
            io::Error::new(io::ErrorKind::InvalidData, detail)
        })
    }
}

impl Drop for ReplicationHub {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Opens every file of the session directory at `path` in reverse ship
/// order and returns the listing with the handles. A listing that
/// changed while the files were opened is measured again.
fn measure(path: &Path) -> io::Result<(Vec<FileName>, Vec<Arc<Pinned>>)> {
    let listing = || -> io::Result<Vec<FileName>> {
        Ok(dir::list(path)?.into_iter().map(|(f, _)| f).collect())
    };
    'measure: loop {
        let listed = listing()?;
        let mut measured = Vec::with_capacity(listed.len());
        for &file in listed.iter().rev() {
            match Pinned::open(path, file) {
                Ok(p) => measured.push(Arc::new(p)),
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue 'measure,
                Err(e) => return Err(e),
            }
        }
        if listing()? == listed {
            return Ok((listed, measured));
        }
    }
}

/// Session subdirectories of the data root, valid names only.
fn list_sessions(data_dir: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(data_dir)? {
        let (entry, dir) = entry.and_then(|e| e.file_type().map(|t| (e, t.is_dir())))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if dir && proto::validate_session_name(&name).is_ok() {
            out.push(name);
        }
    }
    Ok(out)
}

/// A leader [`SessionDir`]'s handle for telling the hub its session
/// changed.
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
    /// `len` bytes appended to `file`, which now ends at `end`;
    /// `records` is how many event records they carry (0 for name
    /// side-log bytes) and `trace` the id of a sampled event record,
    /// so the replication stages of that event are stamped on both
    /// ends of the link.
    pub fn append(&self, file: FileName, end: u64, len: usize, records: u64, trace: Option<u64>) {
        self.hub.publish(&self.session, |c, _| {
            c.totals.records += records;
            c.totals.bytes += len as u64;
            if let Some(id) = trace {
                if c.marks.len() == BATCH {
                    c.marks.pop_front();
                }
                c.marks.push_back((file, end, id));
            }
        });
    }

    /// Whole-file replacement of `len` bytes (snapshots, `closed`,
    /// truncation repair).
    pub fn put(&self, file: FileName, len: usize) {
        self.hub.publish(&self.session, |c, gen| {
            c.totals.bytes += len as u64;
            c.puts.insert(file, gen);
        });
    }

    /// File deleted by compaction; `last` is an append-only file's
    /// handle, opened before the delete, for the senders that have not
    /// shipped all of it yet.
    pub fn remove(&self, file: FileName, last: Option<Pinned>) {
        self.hub.publish(&self.session, |c, gen| {
            c.puts.remove(&file);
            if let Some(p) = last {
                c.removed.push((gen, Arc::new(p)));
            }
        });
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
/// more forces an early barrier. A first round visits every session
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
    /// This node's trace plane, when it propagates trace contexts.
    trace: Option<Arc<TracePlane>>,
    /// Trace ids of the `append` frames since the last barrier, which
    /// stamps them `ack`: durable here.
    pending_trace: Vec<u64>,
}

impl ReplicaSink {
    /// A sink writing under `data_dir` with the node's fsync policy.
    pub fn new(data_dir: PathBuf, fsync: FsyncPolicy) -> ReplicaSink {
        ReplicaSink {
            data_dir,
            fsync,
            dirs: HashMap::new(),
            trace: None,
            pending_trace: Vec::new(),
        }
    }

    /// The same sink stamping traced appends into `trace`.
    pub fn with_trace(self, trace: Option<Arc<TracePlane>>) -> ReplicaSink {
        ReplicaSink { trace, ..self }
    }

    /// Applies one frame of the replication vocabulary and returns the
    /// line to answer with, if any. `Err` is the answer to send before
    /// ending the connection: this node can no longer promise
    /// durability on it.
    pub fn handle(&mut self, frame: ClientFrame) -> Result<Option<String>, String> {
        let applied = match frame {
            ClientFrame::ReplHello { node, .. } => {
                adya_obs::counter!("serve.repl_hellos").inc();
                let node = esc(&node);
                Ok(Some(format!(
                    "{{\"ok\": \"repl_hello\", \"node\": \"{node}\"}}"
                )))
            }
            ClientFrame::Replicate { session } => (self.inventory(&session))
                .map(|files| Some(proto::inventory_frame(&session, &files)))
                .map_err(SinkError::Io),
            // No reply: durability is acknowledged at the next barrier.
            // A reject makes the leader reconnect and walk again from
            // the real inventory.
            ClientFrame::ReplAppend {
                session,
                file,
                off,
                crc,
                data,
                trace,
            } => self.append(&session, &file, off, crc, &data).map(|()| {
                // Ids key off the durable record number, so both nodes
                // agree on them.
                if let (Some(plane), Some(id)) = (&self.trace, trace) {
                    plane.stamp(id, Stage::Replicate);
                    self.pending_trace.push(id);
                }
                None
            }),
            ClientFrame::ReplPut {
                session,
                file,
                crc,
                data,
            } => self.put(&session, &file, crc, &data).map(|()| None),
            ClientFrame::ReplRemove { session, file } => {
                self.remove(&session, &file).map(|()| None)
            }
            ClientFrame::ReplFlush { seq } => self.flush().map_err(SinkError::Io).map(|()| {
                if let Some(plane) = &self.trace {
                    for id in self.pending_trace.drain(..) {
                        plane.stamp(id, Stage::Ack);
                    }
                }
                Some(proto::ack_frame(seq))
            }),
            _ => Err(SinkError::Reject("not a replication frame".into())),
        };
        match applied {
            Ok(reply) => Ok(reply),
            Err(SinkError::Reject(detail)) => Ok(Some(proto::error_frame("repl_reject", &detail))),
            Err(SinkError::Io(e)) => Err(proto::error_frame(
                "io",
                &format!("replica disk failure: {e}"),
            )),
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
    pub fn remove(&mut self, session: &str, file: &str) -> Result<(), SinkError> {
        let file = proto::replica_file(file).map_err(SinkError::Reject)?;
        Ok(self.dir(session)?.remove(file)?)
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
    use std::cell::Cell;
    use std::net::TcpListener;

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
        // Two passes, as two rounds of walks would.
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

    /// An in-process follower link: each line the sender writes is
    /// handed to `sink`, its answer queued for the sender to read, and
    /// then `step` runs — the leader going on between frames. After
    /// `budget` frames the link breaks, as a stopped follower's does.
    struct Loopback<'a> {
        sink: &'a mut ReplicaSink,
        budget: &'a mut usize,
        step: &'a mut dyn FnMut(),
        line: Vec<u8>,
        frames: Vec<String>,
        replies: VecDeque<u8>,
    }

    impl Read for Loopback<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.replies.read(buf)
        }
    }

    impl Write for Loopback<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            for &b in buf {
                if b != b'\n' {
                    self.line.push(b);
                    continue;
                }
                *self.budget = self
                    .budget
                    .checked_sub(1)
                    .ok_or(io::ErrorKind::BrokenPipe)?;
                let line = String::from_utf8(std::mem::take(&mut self.line)).unwrap();
                if let Some(reply) = self
                    .sink
                    .handle(proto::parse_frame(&line).unwrap())
                    .unwrap()
                {
                    self.replies.extend(reply.bytes().chain([b'\n']));
                }
                self.frames.push(line);
                (self.step)();
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// One round of the real sender over a [`Loopback`]: the frames it
    /// wrote.
    fn walk(
        hub: &ReplicationHub,
        link: &mut Link,
        sink: &mut ReplicaSink,
        budget: &mut usize,
        step: &mut dyn FnMut(),
    ) -> io::Result<Vec<String>> {
        let (line, frames, replies) = (Vec::new(), Vec::new(), VecDeque::new());
        let mut io = BufReader::new(Loopback {
            sink,
            budget,
            step,
            line,
            frames,
            replies,
        });
        hub.round(link, &mut io, "loopback")?;
        Ok(io.into_inner().frames)
    }

    /// [`walk`] with nothing happening between frames.
    fn ship(hub: &ReplicationHub, link: &mut Link, sink: &mut ReplicaSink) -> Vec<String> {
        walk(hub, link, sink, &mut { usize::MAX }, &mut || {}).unwrap()
    }

    fn quiet_hub(data_dir: PathBuf, trace: Option<Arc<TracePlane>>) -> Arc<ReplicationHub> {
        // No sender threads: the test is the follower link.
        let addr = "127.0.0.1:0".to_string();
        ReplicationHub::start(data_dir, Vec::new(), addr, "test".into(), None, trace)
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
        let hub = quiet_hub(leader.clone(), None);
        let mut sink = ReplicaSink::new(follower.clone(), FsyncPolicy::Interval);
        let mut link = Link::default();
        let mut cfg = SessionConfig::default();
        cfg.log.rotate_events = 4;
        cfg.log.snapshot_every = u64::MAX; // snapshots are explicit below
        let tap = adya_faults::TapCrashPlane::new(Default::default());
        // Ships, and checks the mirror and the leader's file names.
        let mut check = |what: &str, sink: &mut ReplicaSink, want: &str| {
            ship(&hub, &mut link, sink);
            let leader = dir_bytes(&leader.join("s1"));
            assert_eq!(
                dir_bytes(&follower.join("s1")),
                leader,
                "mirror differs after {what}"
            );
            let names: Vec<&str> = leader.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names.join(" "), want, "{what}");
        };

        let mut s = Session::create(&leader, "s1", cfg, Some(hub.publisher("s1"))).unwrap();
        check("create", &mut sink, "names-0.log seg-0.log");
        let line = "b1 w1(x,1) c1 b2 w2(y,1) c2 b3 r3(x1) c3";
        s.apply_line(line, &tap).unwrap();
        check(
            "rotation",
            &mut sink,
            "names-0.log seg-0.log seg-4.log seg-8.log",
        );
        s.snapshot().unwrap();
        check("compaction", &mut sink, "names-2.log seg-8.log snap-9.snap");
        s.apply_line("b4 w4(z,1) w4(q,1) c4", &tap).unwrap();
        s.snapshot().unwrap();
        check(
            "name-log rotation",
            &mut sink,
            "names-4.log seg-12.log snap-13.snap",
        );

        // Kill mid-append: a torn record and a torn name line, which the
        // follower mirrored too. Recovery must cut both on both nodes.
        s.apply_line("b5 w5(k,1)", &tap).unwrap();
        check(
            "the appends before the kill",
            &mut sink,
            "names-4.log seg-12.log snap-13.snap",
        );
        drop(s);
        let roots = [leader.as_path(), follower.as_path()];
        tear(roots, FileName::Segment(12), &[40, 0, 0, 0, 0xde, 0xad]);
        tear(roots, FileName::Names(4), b"half-a-na");
        let mut s = Session::recover(&leader, "s1", cfg, Some(hub.publisher("s1"))).unwrap();
        assert!(s.truncated.take().is_some_and(|d| d.contains("seg-12.log")));
        check("recovery", &mut sink, "names-4.log seg-12.log snap-13.snap");
        assert_eq!(fs::read(leader.join("s1/names-4.log")).unwrap(), b"k\n");

        s.apply_line("c5", &tap).unwrap();
        s.close().unwrap();
        check(
            "close",
            &mut sink,
            "closed names-5.log seg-16.log snap-16.snap",
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_file_compacted_away_after_its_round_began_is_shipped_once() {
        use crate::session::{Session, SessionConfig};
        let root = tmp("removed-once");
        let (leader, follower) = (root.join("leader"), root.join("follower"));
        let hub = quiet_hub(leader.clone(), None);
        let mut sink = ReplicaSink::new(follower.clone(), FsyncPolicy::Never);
        let mut link = Link::default();
        let mut cfg = SessionConfig::default();
        (cfg.log.rotate_events, cfg.log.snapshot_every) = (4, u64::MAX);
        let tap = adya_faults::TapCrashPlane::new(Default::default());
        let open = |s: &str| Session::create(&leader, s, cfg, Some(hub.publisher(s))).unwrap();
        let (mut a, mut b) = (open("a"), open("b"));
        b.apply_line("b1 w1(x,1) c1 b2", &tap).unwrap();
        ship(&hub, &mut link, &mut sink);
        // `a` is walked first; after its first frame `b` rotates, snapshots
        // and compacts, before `b` is measured in the same round. The
        // files it removes are shipped in that round and never again.
        a.apply_line("b1", &tap).unwrap();
        b.apply_line("w2(y,2)", &tap).unwrap();
        let mut first = true;
        let mut step = || {
            if std::mem::take(&mut first) {
                b.apply_line("c2 b3 c3", &tap).unwrap();
                b.snapshot().unwrap();
            }
        };
        walk(&hub, &mut link, &mut sink, &mut { usize::MAX }, &mut step).unwrap();
        let again = ship(&hub, &mut link, &mut sink);
        assert_eq!(again.len(), 1, "only the barrier: {again:?}");
        assert_eq!(dir_bytes(&follower.join("b")), dir_bytes(&leader.join("b")));
        fs::remove_dir_all(&root).unwrap();
    }

    /// A refused recovery changes nothing: damage in a closed segment
    /// is refused with every leader byte left in place, nothing is
    /// published, and the follower keeps its intact copy — also when
    /// the open segment has a torn tail that a recovery that succeeded
    /// would have cut.
    #[test]
    fn damage_in_a_closed_segment_is_refused_with_every_byte_left_in_place() {
        use crate::log::{LogConfig, RecoverError, SessionLog};
        use adya_history::{Event, TxnId};
        for torn_open in [false, true] {
            let root = tmp(&format!("closed-damage-{torn_open}"));
            let (leader, follower) = (root.join("leader"), root.join("follower"));
            let hub = quiet_hub(leader.clone(), None);
            let mut sink = ReplicaSink::new(follower.clone(), FsyncPolicy::Never);
            let mut link = Link::default();
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
            ship(&hub, &mut link, &mut sink);
            let intact = dir_bytes(&follower.join("s1"));
            assert_eq!(dir_bytes(&leader.join("s1")), intact);

            // The last byte of closed seg-0.log flips: its final record —
            // an acknowledged one — fails its checksum exactly as a torn
            // append would, in a file no writer had open.
            let seg0 = leader.join("s1/seg-0.log");
            let mut bytes = fs::read(&seg0).unwrap();
            *bytes.last_mut().unwrap() ^= 0xff;
            fs::write(&seg0, &bytes).unwrap();
            if torn_open {
                // And a kill mid-append tore the open segment's last record.
                let seg8 = fs::OpenOptions::new()
                    .append(true)
                    .open(leader.join("s1/seg-8.log"));
                seg8.unwrap().write_all(&[40, 0, 0, 0, 0xde, 0xad]).unwrap();
            }
            let damaged = dir_bytes(&leader.join("s1"));

            let published = hub.state.lock().unwrap().gen;
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
            let now = hub.state.lock().unwrap().gen;
            assert_eq!(now, published, "a refused recovery publishes nothing");
            ship(&hub, &mut link, &mut sink);
            assert_eq!(dir_bytes(&follower.join("s1")), intact);
            fs::remove_dir_all(&root).unwrap();
        }
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

    /// The crash test's leader: one step per entry — a token, or
    /// `snapshot` for a snapshot with its compaction. Names are
    /// interned two steps in a row, by writes whose versions later
    /// transactions read: a follower that holds such a write but not
    /// its name interns the name afresh on resume, and the read turns
    /// stale in its verdicts.
    const SCRIPT: &str = "b1 w1(x,1) c1 \
        b2 w2(y,2) w2(z,2) r2(x1) c2 b3 r3(y2) w3(q,3) w3(u,3) r3(z2) c3 snapshot \
        b4 r4(q3) w4(v,4) w4(s,4) r4(u3) c4 b5 r5(v4) w5(t,5) w5(p,5) r5(s4) c5 snapshot \
        b6 r6(t5) w6(m,6) w6(n,6) r6(p5) c6 b7 r7(m6) r7(n6) w7(x,7) c7";

    #[test]
    fn a_follower_stopped_after_any_frame_recovers_a_prefix_of_the_leaders_verdicts() {
        use crate::session::{Session, SessionConfig};
        let root = tmp("crash-walk");
        let mut cfg = SessionConfig::default();
        (cfg.log.rotate_events, cfg.log.snapshot_every) = (4, u64::MAX);
        cfg.log.fsync = FsyncPolicy::Never;
        let tap = adya_faults::TapCrashPlane::new(Default::default());
        let script: Vec<&str> = SCRIPT.split_whitespace().collect();
        let tokens: Vec<&str> = script
            .iter()
            .copied()
            .filter(|&t| t != "snapshot")
            .collect();
        let verdicts = |s: &mut Session, tokens: &[&str]| -> Vec<String> {
            let lines = tokens.iter().map(|t| s.apply_line(t, &tap).unwrap());
            lines.flatten().map(|(_, v)| v).collect()
        };
        let mut reference = Session::create(&root.join("reference"), "s1", cfg, None).unwrap();
        let want = verdicts(&mut reference, &tokens);

        // `lead` tokens are written before the walk starts, so that each
        // step lands at every place in a round: after a barrier, before
        // a measurement, between a name log's frame and a segment's.
        for lead in 3..7 {
            for k in 0.. {
                let at = root.join(format!("{lead}-{k}"));
                let (leader, follower) = (at.join("leader"), at.join("follower"));
                let hub = quiet_hub(leader.clone(), None);
                let mut sink = ReplicaSink::new(follower.clone(), FsyncPolicy::Never);
                let mut link = Link::default();
                let mut s = Session::create(&leader, "s1", cfg, Some(hub.publisher("s1"))).unwrap();
                s.apply_line(&script[..lead].join(" "), &tap).unwrap();
                ship(&hub, &mut link, &mut sink);

                // Rounds until the script is done and a round ships
                // nothing, or the follower stops after its `k`th frame.
                let (next, mut budget) = (Cell::new(lead), k);
                let mut step = || match script.get(next.replace(next.get() + 1)) {
                    Some(&"snapshot") => s.snapshot().unwrap(),
                    Some(token) => drop(s.apply_line(token, &tap).unwrap()),
                    None => {}
                };
                let complete = loop {
                    match walk(&hub, &mut link, &mut sink, &mut budget, &mut step) {
                        Err(_) => break false,
                        Ok(frames) if frames.len() == 1 && next.get() > script.len() => break true,
                        Ok(_) => {}
                    }
                };
                drop(sink);
                let (lbytes, fbytes) = (
                    dir_bytes(&leader.join("s1")),
                    dir_bytes(&follower.join("s1")),
                );
                assert!(!complete || lbytes == fbytes, "lead {lead}: mirror differs");

                let stopped = format!("lead {lead}, stopped after {k} frames");
                let healer = SessionDir::mirror(&follower.join("s1"), FsyncPolicy::Never);
                healer.unwrap().heal().unwrap();
                let mut f = Session::recover(&follower, "s1", cfg, None)
                    .unwrap_or_else(|e| panic!("{stopped}: {e}"));
                let base = f.verdict_log().base();
                let (records, count, window) = f.resume(base).unwrap();
                let count = count as usize;
                assert_eq!(window, want[base as usize..count], "replay, {stopped}");
                let rest = verdicts(&mut f, &tokens[records as usize..]);
                assert_eq!(rest, want[count..], "resumed, {stopped}");
                fs::remove_dir_all(&at).unwrap();
                if complete {
                    break;
                }
            }
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn traced_appends_carry_their_id_on_the_wire() {
        use crate::log::{LogConfig, SessionLog};
        use adya_history::{Event, TxnId};
        let root = tmp("walk-trace");
        let plane = Arc::new(TracePlane::new("test", "leader"));
        let hub = quiet_hub(root.join("leader"), Some(plane));
        let publisher = Some(hub.publisher("s1"));
        let mut log = SessionLog::create(&root.join("leader/s1"), LogConfig::default(), publisher);
        let (log, id) = (log.as_mut().unwrap(), adya_obs::trace_id("s1", 1));
        log.append(&Event::Begin(TxnId(1))).unwrap();
        log.append_traced(&Event::Begin(TxnId(2)), Some(id))
            .unwrap();
        log.append(&Event::Begin(TxnId(3))).unwrap();
        let mut sink = ReplicaSink::new(root.join("follower"), FsyncPolicy::Never);
        let frames = ship(&hub, &mut Link::default(), &mut sink);
        // The chunk ending at the traced record carries its id; the one
        // after it, untraced, carries none.
        let appends: Vec<_> = frames.iter().filter(|f| f.contains("append")).collect();
        assert_eq!(appends.len(), 2, "{appends:?}");
        let ids = appends.iter().map(|f| match proto::parse_frame(f) {
            Ok(ClientFrame::ReplAppend { trace, .. }) => trace,
            other => panic!("parsed as {other:?}"),
        });
        assert_eq!(ids.collect::<Vec<_>>(), [Some(id), None]);
        let wire_id = format!("\"trace\": \"{}\"", adya_obs::fmt_trace_id(id));
        assert!(appends[0].contains(&wire_id), "{}", appends[0]);
        assert_eq!(
            dir_bytes(&root.join("follower/s1")),
            dir_bytes(&root.join("leader/s1"))
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_reply_cut_off_by_the_followers_close_fails_at_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // A line without its newline, then the close.
        listener
            .accept()
            .unwrap()
            .0
            .write_all(b"{\"ack\": 1}")
            .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let hub = quiet_hub(std::env::temp_dir(), None);
        let t0 = Instant::now();
        let reply = hub.read_reply(&mut BufReader::new(stream), "ack", |_| Some(()));
        assert_eq!(reply.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn published_work_is_lag_only_for_a_configured_follower() {
        let dir = tmp("hub-lag");
        let quiet = quiet_hub(dir.clone(), None);
        let hub = ReplicationHub::start(
            dir.clone(),
            vec!["127.0.0.1:1".into()], // reserved port: never connects
            "127.0.0.1:0".into(),
            "test".into(),
            Some(0),
            None,
        );
        assert!(!hub.unhealthy(), "no published work, no lag");
        for h in [&quiet, &hub] {
            let p = h.publisher("s1");
            p.append(FileName::Segment(0), 6, 6, 2, None);
            p.put(FileName::Snapshot(2), 4);
            p.remove(FileName::Segment(0), None);
            // Appends and puts add to the published totals; a put is
            // filed for the senders, a remove takes nothing away.
            let st = h.state.lock().unwrap();
            let (totals, puts) = (st.sessions["s1"].totals, &st.sessions["s1"].puts);
            assert_eq!((totals.records, totals.bytes, st.gen), (2, 10, 3));
            assert_eq!(Vec::from_iter(puts.clone()), [(FileName::Snapshot(2), 2)]);
        }
        // With no follower configured there is no lag to report; a
        // follower that never acked lags by everything published.
        assert_eq!(quiet.lag_summary(), (0, 0));
        assert_eq!(hub.lag_summary(), (2, 10));
        assert!(hub.unhealthy(), "lag 2 > max 0");
        let health = hub.health_json();
        assert!(health.contains("\"max_lag_records\": 2"), "{health}");
        hub.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A sender waiting out its reconnect pause (250 ms after a refused
    /// connect) ends it the moment the hub stops.
    #[test]
    fn a_stop_ends_the_reconnect_pause() {
        let dir = tmp("hub-stop");
        let failures = adya_obs::counter!("serve.repl_connect_failures");
        let before = failures.get();
        let hub = ReplicationHub::start(
            dir.clone(),
            vec!["127.0.0.1:1".into()], // reserved port: never connects
            "127.0.0.1:0".into(),
            "test".into(),
            None,
            None,
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while failures.get() == before {
            assert!(
                Instant::now() < deadline,
                "the sender never tried to connect"
            );
            thread::sleep(Duration::from_millis(1));
        }
        let t0 = Instant::now();
        hub.stop();
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(100), "stop took {took:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
