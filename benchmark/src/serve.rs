//! The `adya-serve` workloads: two closed-loop sessions
//! (`serve-token`, `serve-txn`), crash recovery (`serve-recover`), and
//! their traced in-process counterparts over `Session` itself.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use adya_faults::{TapCrashConfig, TapCrashPlane};
use adya_serve::{Session, SessionConfig, SessionLog};
use adya_workloads::ServeClient;

use crate::gen::{self, GenConfig, TokenGen};
use crate::layers;
use crate::proc::{self, Programs, ServerProc};
use crate::result::RunResult;
use crate::spec::Kind;
use crate::stats;
use crate::stream::{
    is_clean_verdict, mismatched_lines, more_passes, replay, trace_totals, write_trace,
};
use crate::trace::{alternate, Tracer};
use crate::RunArgs;

/// Closed-loop connections (and load threads): the box has two cores.
const CLIENTS: usize = 2;

/// Times the server is set up per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// What one closed-loop client did.
struct ClientOutcome {
    /// Every line it sent, as generated (newline after each commit).
    sent: String,
    events: u64,
    /// Verdict lines in arrival order.
    verdicts: Vec<String>,
    /// Commit written → verdict read, per verdict.
    latency_ns: Vec<u64>,
    /// When its last verdict arrived, from the common start.
    finished: Duration,
    error: Option<String>,
}

fn session_name(seed: u64, i: usize) -> String {
    format!("ledger-{seed}-{i}")
}

fn hello_frame(session: &str) -> String {
    format!("{{\"op\": \"hello\", \"session\": \"{session}\"}}\n")
}

/// Runs `f(client)` on `CLIENTS` threads at once; results in client
/// order.
fn per_client<T: Send>(f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..CLIENTS).map(|c| s.spawn(move || f(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    })
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?,
    );
    Ok((stream, reader))
}

fn read_reply(reader: &mut BufReader<TcpStream>, line: &mut String) -> Result<(), String> {
    line.clear();
    match reader.read_line(line) {
        Ok(0) => Err("server closed the connection".into()),
        Ok(_) => {
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            Ok(())
        }
        Err(e) => Err(format!("read: {e}")),
    }
}

/// `"key": <uint>` of a flat frame.
fn u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One attached session, framed the way its workload's client frames.
enum Conn {
    /// The shipped client: one token per frame, a verdict awaited
    /// after every commit token.
    Token(Box<ServeClient>),
    /// A raw NDJSON client: one whole commit-terminated line per
    /// frame, one verdict awaited per line.
    Txn(TcpStream, BufReader<TcpStream>),
}

/// Connects and says `hello` for session `name`.
fn open_session(kind: Kind, addr: &str, name: &str) -> Result<Conn, String> {
    if kind == Kind::ServeToken {
        return ServeClient::hello(addr, name)
            .map(|c| Conn::Token(Box::new(c)))
            .map_err(|e| format!("hello: {e}"));
    }
    let (mut stream, mut reader) = connect(addr)?;
    let mut reply = String::new();
    stream
        .write_all(hello_frame(name).as_bytes())
        .map_err(|e| format!("hello: {e}"))?;
    read_reply(&mut reader, &mut reply)?;
    if reply.contains("\"ok\": \"hello\"") {
        Ok(Conn::Txn(stream, reader))
    } else {
        Err(format!("hello refused: {reply}"))
    }
}

/// Opens the run's `CLIENTS` sessions, in client order — at the same
/// moment, so the server's 25 ms accept poll picks them all up in one
/// round and `setup_s` does not depend on which side of a poll the
/// second `hello` happened to fall.
fn open_sessions(kind: Kind, addr: &str, seed: u64) -> Result<Vec<Conn>, String> {
    per_client(|i| open_session(kind, addr, &session_name(seed, i)))
        .into_iter()
        .collect()
}

/// One closed-loop client: draws a line, sends it, waits for its
/// verdict, and only then draws the next — until `window` is over.
fn drive(
    conn: &mut Conn,
    cfg: GenConfig,
    seed: u64,
    start: &Barrier,
    window: Duration,
) -> ClientOutcome {
    let mut out = ClientOutcome {
        sent: String::new(),
        events: 0,
        verdicts: Vec::new(),
        latency_ns: Vec::new(),
        finished: Duration::ZERO,
        error: None,
    };
    let mut gen = TokenGen::new(cfg, seed);
    let mut line = String::new();
    start.wait();
    let t0 = Instant::now();
    match conn {
        Conn::Token(client) => {
            'load: while t0.elapsed() < window {
                line.clear();
                let n = gen.next_line(&mut line);
                for tok in line.split_whitespace() {
                    let sent_at = Instant::now();
                    if let Err(e) = client.send_token(tok) {
                        out.error = Some(format!("send {tok}: {e}"));
                        break 'load;
                    }
                    // Keys never start a token, so `c…` is always a
                    // commit.
                    if tok.starts_with('c') {
                        out.latency_ns.push(sent_at.elapsed().as_nanos() as u64);
                        out.finished = t0.elapsed();
                    }
                }
                out.events += n;
                out.sent.push_str(&line);
            }
            out.verdicts = client.verdicts().to_vec();
        }
        Conn::Txn(stream, reader) => {
            let mut reply = String::new();
            while t0.elapsed() < window {
                line.clear();
                let n = gen.next_line(&mut line);
                let sent_at = Instant::now();
                let verdict = stream
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("write: {e}"))
                    .and_then(|()| read_reply(reader, &mut reply));
                if let Err(e) = verdict {
                    out.error = Some(e);
                    break;
                }
                out.latency_ns.push(sent_at.elapsed().as_nanos() as u64);
                out.finished = t0.elapsed();
                out.events += n;
                out.sent.push_str(&line);
                out.verdicts.push(reply.clone());
            }
        }
    }
    out
}

/// Runs the attached sessions as closed-loop clients for `window`. They
/// stay attached afterwards: a detach makes the server park the session
/// under a fresh snapshot, which `replica_pass` must not find in the
/// lag it then watches drain.
fn closed_loop(conns: &mut [Conn], args: &RunArgs, window: Duration) -> Vec<ClientOutcome> {
    let start = Barrier::new(conns.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let start = &start;
                let seed = gen::sub_seed(args.seed, i);
                let cfg = args.workload.gen;
                s.spawn(move || drive(conn, cfg, seed, start, window))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    })
}

/// Compares one session's verdict ledger with the in-process replay of
/// the lines it was sent: `(verdicts the replay expects, lines that are
/// missing, surplus or different)`.
fn ledger_mismatches(sent: &str, ledger: &[String]) -> (u64, u64) {
    let want = replay(sent, false, &mut Tracer::off());
    let mut got = Vec::with_capacity(want.out.len());
    for v in ledger {
        got.extend_from_slice(v.as_bytes());
        got.push(b'\n');
    }
    (want.commits, mismatched_lines(&got, want.commit_lines()))
}

/// Checks every client's ledger against an in-process replay of what
/// it sent; returns `(attempted, failed)` and appends notes.
fn check_ledgers(outcomes: &[ClientOutcome], clean: bool, notes: &mut Vec<String>) -> (u64, u64) {
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, o) in outcomes.iter().enumerate() {
        let (commits, mut bad) = ledger_mismatches(&o.sent, &o.verdicts);
        attempted += commits.max(o.verdicts.len() as u64);
        if clean {
            bad += o.verdicts.iter().filter(|v| !is_clean_verdict(v)).count() as u64;
        }
        if let Some(e) = &o.error {
            // The request in flight when the client gave up.
            attempted += 1;
            bad += 1;
            notes.push(format!("client {i}: {e}"));
        }
        if bad > 0 {
            notes.push(format!("client {i}: {bad} verdicts failed the oracle"));
        }
        failed += bad;
    }
    (attempted, failed)
}

/// All clients' verdict latencies, sorted, in nanoseconds.
fn pooled_latencies(outcomes: &[ClientOutcome]) -> Vec<f64> {
    let mut all: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.latency_ns.iter().map(|&ns| ns as f64))
        .collect();
    all.sort_by(f64::total_cmp);
    all
}

/// Hash of everything the clients sent, in client order.
fn sent_hash(outcomes: &[ClientOutcome]) -> u64 {
    gen::fnv1a_all(outcomes.iter().map(|o| o.sent.as_bytes()))
}

pub fn run(args: &RunArgs, programs: &Programs) -> Result<RunResult, String> {
    match (args.workload.kind, args.traced) {
        (Kind::ServeRecover, false) => recover_untraced(args, programs),
        (Kind::ServeRecover, true) => recover_traced(args, programs),
        (_, false) => loop_untraced(args, programs),
        (_, true) => loop_traced(args, programs),
    }
}

/// A fresh data directory, a server on it, and the run's sessions
/// attached: what has to exist before the first event can be sent.
fn start_server(
    kind: Kind,
    name: &str,
    args: &RunArgs,
    programs: &Programs,
    extra: &[&str],
) -> Result<(ServerProc, Vec<Conn>), String> {
    let data = proc::fresh_dir(name).map_err(|e| format!("data dir: {e}"))?;
    let server = ServerProc::spawn(&programs.serve, &data, extra)?;
    let conns = open_sessions(kind, &server.addr, args.seed)?;
    Ok((server, conns))
}

fn loop_untraced(args: &RunArgs, programs: &Programs) -> Result<RunResult, String> {
    let mut res = RunResult::new(args);
    let data_name = format!("{}/data", args.workload.name);
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        // The previous server goes away before its directory does.
        drop(ready.take());
        let t0 = Instant::now();
        ready = Some(start_server(
            args.workload.kind,
            &data_name,
            args,
            programs,
            &[],
        )?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (server, mut conns) = ready.expect("setup ran");
    // The median: a setup is one wait for the server's 25 ms accept
    // poll, except that one connect in thirty slips in ahead of the
    // server's very first `accept` and takes 3 ms.
    let setup_s = stats::median(&setups);
    let window = Duration::from_secs_f64(args.seconds);
    let outcomes = closed_loop(&mut conns, args, window);
    server.kill();
    drop(conns);
    let rss = memory_pass(args, programs, &mut res)?;

    let (attempted, failed) = check_ledgers(&outcomes, !args.workload.gen.dirty, &mut res.notes);
    res.attempted += attempted;
    res.failed += failed;
    res.input_hash = sent_hash(&outcomes);
    let events: u64 = outcomes.iter().map(|o| o.events).sum();
    res.notes.push(format!(
        "closed loop, {CLIENTS} clients, {:.1} s, {} verdict samples, {events} events",
        args.seconds,
        pooled_latencies(&outcomes).len()
    ));
    // The loop is one measurement, not repeated passes: first send to
    // last verdict. No verdict at all leaves `events_per_s` unmeasured,
    // and the run without a result.
    let wall = outcomes
        .iter()
        .map(|o| o.finished)
        .max()
        .unwrap_or_default();
    if !wall.is_zero() {
        res.metrics
            .set("events_per_s", events as f64 / wall.as_secs_f64());
    }
    res.metrics.set("setup_s", setup_s);
    res.metrics.set("peak_rss_mb", rss);
    res.correct = res.failed == 0;
    Ok(res)
}

// ---------------------------------------------------------------------
// serve-recover
// ---------------------------------------------------------------------

/// What a killed server left behind, plus what its clients had seen.
struct CrashSite {
    data: PathBuf,
    /// Per session: name and every verdict line delivered before the
    /// kill.
    ledgers: Vec<(String, Vec<String>)>,
    records: u64,
    input_hash: u64,
}

fn sizes(args: &RunArgs) -> (usize, u64) {
    if args.quick {
        (8, args.workload.events)
    } else {
        (args.workload.streams, args.workload.events)
    }
}

/// One session driven from a pre-generated stream.
struct Driven {
    /// Held so the session stays attached.
    #[allow(dead_code)]
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    ledger: Vec<String>,
}

/// Drives this client's share of the sessions: every connection is
/// opened first (the server polls for new connections every 25 ms, and
/// one at a time that poll would be most of the setup), then a writer
/// thread hands each its `hello` and whole stream while this thread
/// collects a verdict per commit — so neither side can fill the other's
/// socket buffer and stall.
fn drive_share(addr: &str, share: &[&(String, gen::Generated)]) -> Result<Vec<Driven>, String> {
    let mut driven = Vec::with_capacity(share.len());
    let mut writers = Vec::with_capacity(share.len());
    for (_, g) in share {
        let (stream, reader) = connect(addr)?;
        writers.push(
            stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        driven.push(Driven {
            stream,
            reader,
            ledger: Vec::with_capacity(g.commits as usize),
        });
    }
    std::thread::scope(|s| {
        let writer = s.spawn(move || -> Result<(), String> {
            for (mut stream, (name, g)) in writers.into_iter().zip(share) {
                stream
                    .write_all(hello_frame(name).as_bytes())
                    .and_then(|()| stream.write_all(g.text.as_bytes()))
                    .map_err(|e| format!("drive {name}: {e}"))?;
            }
            Ok(())
        });
        let mut reply = String::new();
        for (d, (name, g)) in driven.iter_mut().zip(share) {
            read_reply(&mut d.reader, &mut reply)?;
            if !reply.contains("\"ok\": \"hello\"") {
                return Err(format!("hello refused: {reply}"));
            }
            for _ in 0..g.commits {
                read_reply(&mut d.reader, &mut reply)?;
                if reply.starts_with("{\"error\"") {
                    return Err(format!("{name}: {reply}"));
                }
                d.ledger.push(reply.clone());
            }
        }
        writer.join().expect("writer thread does not panic")
    })?;
    // The connections stay open: a detach would park each session with
    // a fresh snapshot (and leave recovery no log tail to replay).
    Ok(driven)
}

/// Two clients' shares of `streams`, driven concurrently; results in
/// stream order.
fn drive_all(addr: &str, streams: &[(String, gen::Generated)]) -> Result<Vec<Driven>, String> {
    let shares = per_client(|c| {
        let share: Vec<_> = streams.iter().skip(c).step_by(CLIENTS).collect();
        drive_share(addr, &share)
    });
    let mut by_client = Vec::new();
    for share in shares {
        by_client.push(share?.into_iter());
    }
    Ok((0..streams.len())
        .map(|i| {
            by_client[i % CLIENTS]
                .next()
                .expect("one result per stream")
        })
        .collect())
}

/// The memory pass of a serve loop. How many events a closed loop gets
/// through depends on how fast the server answers — and at 15 s and
/// 44 ms a reply each client stops within a dozen events of the
/// session's second snapshot, which is worth 3 MiB when it happens — so
/// what the loop leaves in its server says nothing comparable about
/// memory. `peak_rss_mb` is read from another server, after it has
/// taken this many sessions of this many events each (pipelined,
/// untimed, verdicts checked) and while all of them are still attached:
/// a detached session is parked under a fresh snapshot, whose buffer
/// would race the reading.
///
/// Many short sessions, not a few long ones, because a session's
/// footprint swings with its stream: the same 80 000 events as 2
/// sessions peaked at 11.4–16.0 MiB over ten seeds (interquartile
/// spread 10 %), as 32 sessions at 33.2–34.9 (2 %), as 64 at 39.0–39.5
/// (0.7 %), while one seed repeated stays within 2 % either way.
const MEMORY_SESSIONS: usize = 64;
const MEMORY_EVENTS: u64 = 1_250;

fn memory_pass(args: &RunArgs, programs: &Programs, res: &mut RunResult) -> Result<f64, String> {
    let (sessions, events) = if args.quick {
        (MEMORY_SESSIONS / 8, MEMORY_EVENTS / 5)
    } else {
        (MEMORY_SESSIONS, MEMORY_EVENTS)
    };
    let streams: Vec<(String, gen::Generated)> = (0..sessions)
        .map(|i| {
            let mut g = gen::generate(
                args.workload.gen,
                gen::sub_seed(args.seed, CLIENTS + i),
                events,
            );
            if args.workload.kind == Kind::ServeToken {
                // Framed as the workload's client frames: a token a line.
                g.text = g.text.replace(' ', "\n");
            }
            (format!("{}-mem", session_name(args.seed, i)), g)
        })
        .collect();
    let data = proc::fresh_dir(&format!("{}/memory", args.workload.name))
        .map_err(|e| format!("data dir: {e}"))?;
    let server = ServerProc::spawn(&programs.serve, &data, &[])?;
    // One session after the other: driven together, their snapshot
    // buffers sometimes coincide and sometimes do not, and the peak
    // swings by a fifth.
    let mut driven = Vec::with_capacity(streams.len());
    for stream in &streams {
        driven.extend(drive_share(&server.addr, &[stream])?);
    }
    let rss = server.peak_rss_mib();
    server.kill();
    for (d, (name, g)) in driven.iter().zip(&streams) {
        let (commits, bad) = ledger_mismatches(&g.text, &d.ledger);
        if bad > 0 {
            res.notes
                .push(format!("{name}: {bad} verdicts failed the oracle"));
        }
        res.attempted += commits;
        res.failed += bad;
    }
    Ok(rss)
}

/// Fills a data directory through a real server, then SIGKILLs it with
/// every session still attached.
fn crash_site(args: &RunArgs, programs: &Programs) -> Result<CrashSite, String> {
    let (sessions, events) = sizes(args);
    let data = proc::fresh_dir(&format!("{}/crashed", args.workload.name))
        .map_err(|e| format!("data dir: {e}"))?;
    let server = ServerProc::spawn(&programs.serve, &data, &[])?;
    let streams: Vec<(String, gen::Generated)> = (0..sessions)
        .map(|i| {
            (
                session_name(args.seed, i),
                gen::generate(args.workload.gen, gen::sub_seed(args.seed, i), events),
            )
        })
        .collect();
    let driven = drive_all(&server.addr, &streams)?;
    server.kill();
    let ledgers = streams
        .iter()
        .zip(driven)
        .map(|((name, _), d)| (name.clone(), d.ledger))
        .collect();
    Ok(CrashSite {
        data,
        ledgers,
        records: streams.iter().map(|(_, g)| g.events).sum(),
        input_hash: gen::fnv1a_all(streams.iter().map(|(_, g)| g.text.as_bytes())),
    })
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

/// One client's share of a recovery pass.
#[derive(Default)]
struct Resumed {
    latency_ns: Vec<u64>,
    records: u64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

/// Resumes `name` from verdict 0 and reads the ack plus the whole
/// replay; returns the latency, the durable record count and the
/// replayed lines.
fn resume_session(addr: &str, name: &str) -> Result<(TcpStream, u64, u64, Vec<String>), String> {
    let (mut stream, mut reader) = connect(addr)?;
    let (ns, records, lines) = resume_on(&mut stream, &mut reader, name)?;
    Ok((stream, ns, records, lines))
}

/// The resume exchange on an open connection: `(latency ns, durable
/// records, replayed lines)`.
fn resume_on(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    name: &str,
) -> Result<(u64, u64, Vec<String>), String> {
    let mut reply = String::new();
    let sent_at = Instant::now();
    stream
        .write_all(
            format!("{{\"op\": \"resume\", \"session\": \"{name}\", \"verdicts\": 0}}\n")
                .as_bytes(),
        )
        .map_err(|e| format!("resume {name}: {e}"))?;
    read_reply(reader, &mut reply)?;
    if !reply.contains("\"ok\": \"resume\"") {
        return Err(format!("resume {name} refused: {reply}"));
    }
    let records = u64_field(&reply, "events").ok_or("resume ack without events")?;
    let replay = u64_field(&reply, "replay").ok_or("resume ack without replay")?;
    let mut lines = Vec::with_capacity(replay as usize);
    for _ in 0..replay {
        read_reply(reader, &mut reply)?;
        lines.push(reply.clone());
    }
    Ok((sent_at.elapsed().as_nanos() as u64, records, lines))
}

/// The memory pass of `serve-recover`: one more server on a fresh copy
/// of the crash site, every session resumed **one at a time** over
/// connections opened beforehand, then the server's peak RSS. With two
/// clients resuming concurrently the same 200 sessions peaked anywhere
/// from 155 to 265 MiB depending on how the recoveries' transient
/// buffers overlapped; one at a time it is the same figure every run.
fn recover_memory_pass(site: &CrashSite, work: &Path, programs: &Programs) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(work);
    copy_tree(&site.data, work).map_err(|e| format!("copy data dir: {e}"))?;
    let server = ServerProc::spawn(&programs.serve, work, &[])?;
    let mut conns = Vec::with_capacity(site.ledgers.len());
    for _ in &site.ledgers {
        conns.push(connect(&server.addr)?);
    }
    for ((stream, reader), (name, _)) in conns.iter_mut().zip(&site.ledgers) {
        resume_on(stream, reader, name)?;
    }
    let rss = server.peak_rss_mib();
    server.kill();
    Ok(rss)
}

fn resume_share(addr: &str, ledgers: &[(String, Vec<String>)], client: usize) -> Resumed {
    let mut r = Resumed::default();
    // Held to the end of the pass: a client that resumed keeps its
    // connection, and a detach would make the server snapshot again.
    let mut conns = Vec::new();
    for (name, ledger) in ledgers.iter().skip(client).step_by(CLIENTS) {
        r.attempted += 1;
        match resume_session(addr, name) {
            Ok((conn, ns, records, lines)) => {
                conns.push(conn);
                r.latency_ns.push(ns);
                r.records += records;
                if &lines != ledger {
                    r.failed += 1;
                    r.notes.push(format!(
                        "{name}: replay of {} lines differs from the {} delivered before the kill",
                        lines.len(),
                        ledger.len()
                    ));
                }
            }
            Err(e) => {
                r.failed += 1;
                r.notes.push(e);
            }
        }
    }
    r
}

/// One timed recovery pass: a server spawned on a fresh copy of the
/// crash site (recovery truncates torn tails and resumed sessions
/// snapshot again, so every pass starts from the untouched original),
/// both clients resuming their shares. Wall time runs from the spawn to
/// the last replay line.
fn recover_pass(
    site: &CrashSite,
    work: &Path,
    programs: &Programs,
) -> Result<(f64, Vec<Resumed>), String> {
    let _ = std::fs::remove_dir_all(work);
    copy_tree(&site.data, work).map_err(|e| format!("copy data dir: {e}"))?;
    let t0 = Instant::now();
    let server = ServerProc::spawn(&programs.serve, work, &[])?;
    let addr = server.addr.as_str();
    let shares = per_client(|c| resume_share(addr, &site.ledgers, c));
    let wall = t0.elapsed().as_secs_f64();
    server.kill();
    Ok((wall, shares))
}

fn recover_untraced(args: &RunArgs, programs: &Programs) -> Result<RunResult, String> {
    let mut res = RunResult::new(args);
    let work = proc::out_dir().join(format!("{}/recovering", args.workload.name));
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let site = loop {
        // Set up again before every pass (the same bytes each time), so
        // `setup_s` is sampled from every stretch of the window.
        let t0 = Instant::now();
        let site = crash_site(args, programs)?;
        setups.push(t0.elapsed().as_secs_f64());
        let (wall, shares) = recover_pass(&site, &work, programs)?;
        walls.push(wall);
        let recovered: u64 = shares.iter().map(|r| r.records).sum();
        if recovered != site.records {
            res.failed += 1;
            res.notes.push(format!(
                "recovered {recovered} records of {} made durable",
                site.records
            ));
        }
        for r in shares {
            res.attempted += r.attempted;
            res.failed += r.failed;
            res.notes.extend(r.notes);
        }
        if !more_passes(&walls, started, args.seconds) {
            break site;
        }
    };
    res.input_hash = site.input_hash;
    let wall = stats::best(&walls);
    res.metrics.set("setup_s", stats::best(&setups));
    res.metrics.set("events_per_s", site.records as f64 / wall);
    res.metrics
        .set("peak_rss_mb", recover_memory_pass(&site, &work, programs)?);
    res.notes.push(format!(
        "{} sessions x {} events, {} passes",
        site.ledgers.len(),
        site.records / site.ledgers.len().max(1) as u64,
        walls.len()
    ));
    res.correct = res.failed == 0;
    Ok(res)
}

// ---------------------------------------------------------------------
// Traced passes
// ---------------------------------------------------------------------

/// Frames handed to `Session::apply_line` per span.
const BLOCK_FRAMES: usize = 256;

struct SessionPass {
    verdicts: Vec<u8>,
    frames: u64,
    events: u64,
    /// Per-call latency, and that of the calls that produced a verdict.
    call_ns: Vec<u64>,
    verdict_call_ns: Vec<u64>,
    wall_ns: u64,
    session: Session,
    /// The session's directory on disk.
    dir: PathBuf,
}

/// Feeds `text` to a fresh in-process `Session` the way the workload's
/// client frames it: one token or one line per `apply_line` call.
fn session_pass(
    kind: Kind,
    text: &str,
    dir: &Path,
    name: &str,
    tracer: &mut Tracer,
) -> Result<SessionPass, String> {
    let traced = tracer.is_on();
    let tap = TapCrashPlane::new(TapCrashConfig::default());
    let frames: Vec<&str> = match kind {
        Kind::ServeToken => text.split_whitespace().collect(),
        _ => text.lines().collect(),
    };
    let session = Session::create(dir, name, SessionConfig::default(), None)
        .map_err(|e| format!("create session: {e}"))?;
    let mut p = SessionPass {
        verdicts: Vec::new(),
        frames: frames.len() as u64,
        events: text.split_whitespace().count() as u64,
        call_ns: Vec::new(),
        verdict_call_ns: Vec::new(),
        wall_ns: 0,
        session,
        dir: dir.join(name),
    };
    let started = Instant::now();
    let root = tracer.enter("harness.session_pass");
    for block in frames.chunks(BLOCK_FRAMES) {
        let span = tracer.enter("serve.session.apply_line");
        for frame in block {
            let t0 = traced.then(Instant::now);
            let out = p
                .session
                .apply_line(frame, &tap)
                .map_err(|e| format!("apply_line: {e:?}"))?;
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                p.call_ns.push(ns);
                if !out.is_empty() {
                    p.verdict_call_ns.push(ns);
                }
            }
            for (_, v) in out {
                p.verdicts.extend_from_slice(v.as_bytes());
                p.verdicts.push(b'\n');
            }
        }
        tracer.exit(span);
    }
    tracer.exit(root);
    p.wall_ns = started.elapsed().as_nanos() as u64;
    Ok(p)
}

/// Seconds the traced runs spend on each real-socket loop.
fn short_window(args: &RunArgs) -> Duration {
    Duration::from_secs_f64((args.seconds * 0.3).clamp(1.0, 3.0))
}

fn loop_traced(args: &RunArgs, programs: &Programs) -> Result<RunResult, String> {
    let w = args.workload;
    let mut res = RunResult::new(args);
    let events = if args.quick { w.events / 20 } else { w.events };
    let g = gen::generate(w.gen, gen::sub_seed(args.seed, 0), events);
    res.input_hash = gen::fnv1a(g.text.as_bytes());
    let scratch =
        proc::fresh_dir(&format!("{}-probes", w.name)).map_err(|e| format!("scratch dir: {e}"))?;

    let mut n = 0;
    let (mut passes, tracer, overhead) = alternate(|tracer| {
        n += 1;
        let p = session_pass(w.kind, &g.text, &scratch, &format!("pass-{n}"), tracer)?;
        Ok((p.wall_ns, p))
    })?;
    let mut pass = passes.pop().expect("four passes ran");
    let want = replay(&g.text, false, &mut Tracer::off());
    res.attempted = want.commits;
    res.failed = mismatched_lines(&pass.verdicts, want.commit_lines())
        + passes
            .iter()
            .map(|p| mismatched_lines(&p.verdicts, &pass.verdicts))
            .sum::<u64>();
    drop(passes);

    let m = &mut res.metrics;
    trace_totals(m, &tracer, pass.wall_ns);
    m.set("harness.trace_overhead_pct", overhead);
    m.set(
        "serve.session.events_per_line",
        pass.events as f64 / pass.frames.max(1) as f64,
    );
    if let Some(p) = stats::percentile_ns(&mut pass.call_ns, 0.5) {
        m.set("serve.session.apply_line_us_p50", p / 1e3);
    }
    if let Some(p) = stats::percentile_ns(&mut pass.call_ns, 0.99) {
        m.set("serve.session.apply_line_us_p99", p / 1e3);
    }
    let verdict_call_us = stats::percentile_ns(&mut pass.verdict_call_ns, 0.5).map(|p| p / 1e3);

    // The durable side of the same session.
    let dir = pass.dir;
    let t0 = Instant::now();
    pass.session
        .snapshot()
        .map_err(|e| format!("snapshot: {e}"))?;
    m.set("serve.log.snapshot_ms", t0.elapsed().as_secs_f64() * 1e3);
    m.set(
        "serve.log.bytes_per_event",
        layers::dir_bytes(&dir) as f64 / pass.events.max(1) as f64,
    );
    drop(pass.session);
    let cfg = SessionConfig::default();
    let t0 = Instant::now();
    let recovered = SessionLog::recover(&dir, cfg.log, cfg.gc, cfg.provenance, None)
        .map_err(|e| format!("recover: {e}"))?;
    m.set("serve.log.recover_ms", t0.elapsed().as_secs_f64() * 1e3);
    if recovered.verdicts != want.commits {
        res.failed += 1;
        res.notes.push(format!(
            "recovery found {} verdicts, {} were emitted",
            recovered.verdicts, want.commits
        ));
    }
    drop(recovered);

    let evs = layers::parse_events(&g.text, usize::MAX);
    layers::probe_proto(m);
    layers::probe_wire(m, &evs);
    layers::probe_log_append(m, &evs, &scratch);
    layers::probe_snapshot(m, &evs);
    layers::probe_replica_sink(m, &evs, &scratch);

    // The real binary over real sockets, briefly: what the socket adds
    // on top of apply_line.
    let window = short_window(args);
    let (server, mut conns) =
        start_server(w.kind, &format!("{}/data", w.name), args, programs, &[])?;
    let outcomes = closed_loop(&mut conns, args, window);
    server.kill();
    let (attempted, failed) = check_ledgers(&outcomes, !w.gen.dirty, &mut res.notes);
    res.attempted += attempted;
    res.failed += failed;
    let lat = pooled_latencies(&outcomes);
    m.set("verdict_samples", lat.len() as f64);
    if let Some(p50) = stats::percentile(&lat, 0.5) {
        m.set("verdict_p50_ms", p50 / 1e6);
        if let Some(apply_us) = verdict_call_us {
            m.set("serve.server.socket_overhead_us", p50 / 1e3 - apply_us);
        }
    }

    if w.kind == Kind::ServeTxn {
        replica_pass(args, programs, window, &mut res)?;
    }
    write_trace(w.name, &tracer)?;
    res.self_time = tracer.self_times();
    res.correct = res.failed == 0;
    Ok(res)
}

/// `GET /health` body from a serve node.
fn health(addr: &str) -> Result<String, String> {
    use std::io::Read as _;
    let mut s = TcpStream::connect(addr).map_err(|e| format!("health: {e}"))?;
    s.write_all(b"GET /health HTTP/1.1\r\nHost: ledger\r\n\r\n")
        .map_err(|e| format!("health: {e}"))?;
    let mut body = String::new();
    s.read_to_string(&mut body)
        .map_err(|e| format!("health: {e}"))?;
    Ok(body)
}

/// Leader + follower, the `serve-txn` loop on the leader, then the
/// time the follower needs to catch up once the load stops. The two
/// p50s (with and without a follower) should match: replication is
/// asynchronous, and a gap is replication leaking onto the hot path.
fn replica_pass(
    args: &RunArgs,
    programs: &Programs,
    window: Duration,
    res: &mut RunResult,
) -> Result<(), String> {
    let name = args.workload.name;
    let fdata =
        proc::fresh_dir(&format!("{name}/follower")).map_err(|e| format!("data dir: {e}"))?;
    let follower = ServerProc::spawn(&programs.serve, &fdata, &["--follower"])?;
    let (leader, mut conns) = start_server(
        Kind::ServeTxn,
        &format!("{name}/leader"),
        args,
        programs,
        &["--replicate-to", &follower.addr],
    )?;
    let outcomes = closed_loop(&mut conns, args, window);
    let stopped = Instant::now();
    let deadline = stopped + Duration::from_secs(5);
    let mut drained = None;
    while Instant::now() < deadline {
        if health(&leader.addr)?.contains("\"max_lag_records\": 0") {
            drained = Some(stopped.elapsed());
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    leader.kill();
    follower.kill();
    let (attempted, failed) = check_ledgers(&outcomes, true, &mut res.notes);
    res.attempted += attempted;
    res.failed += failed;
    match drained {
        Some(d) => res
            .metrics
            .set("serve.replica.drain_ms", d.as_secs_f64() * 1e3),
        None => {
            res.failed += 1;
            res.notes.push("follower never caught up within 5 s".into());
        }
    }
    if let Some(p50) = stats::percentile(&pooled_latencies(&outcomes), 0.5) {
        res.metrics.set("serve.replica.verdict_p50_ms", p50 / 1e6);
    }
    Ok(())
}

fn recover_traced(args: &RunArgs, programs: &Programs) -> Result<RunResult, String> {
    let mut res = RunResult::new(args);
    let site = crash_site(args, programs)?;
    res.input_hash = site.input_hash;
    let cfg = SessionConfig::default();
    let work = proc::out_dir().join(format!("{}/recovering", args.workload.name));

    // `Session::recover` + `resume(0)` per session, in-process.
    let (mut passes, tracer, overhead) = alternate(|tracer| {
        let _ = std::fs::remove_dir_all(&work);
        copy_tree(&site.data, &work).map_err(|e| format!("copy data dir: {e}"))?;
        let (mut per_session, mut failed) = (Vec::new(), 0u64);
        let started = Instant::now();
        let root = tracer.enter("harness.recover_pass");
        for (name, ledger) in &site.ledgers {
            let t0 = Instant::now();
            let span = tracer.enter("serve.session.recover");
            let mut s = Session::recover(&work, name, cfg, None)
                .map_err(|e| format!("recover {name}: {e}"))?;
            tracer.exit(span);
            let span = tracer.enter("serve.session.resume");
            let replay = s.resume(0).map_err(|e| format!("resume {name}: {e:?}"))?.2;
            tracer.exit(span);
            per_session.push(t0.elapsed().as_nanos() as u64);
            failed += u64::from(&replay != ledger);
        }
        tracer.exit(root);
        let wall_ns = started.elapsed().as_nanos() as u64;
        Ok((wall_ns, (wall_ns, per_session, failed)))
    })?;
    res.attempted = (passes.len() * site.ledgers.len()) as u64;
    res.failed = passes.iter().map(|(_, _, failed)| failed).sum();
    let (wall_ns, mut per_session, _) = passes.pop().expect("four passes ran");

    let m = &mut res.metrics;
    trace_totals(m, &tracer, wall_ns);
    m.set("harness.trace_overhead_pct", overhead);
    if let Some(p50) = stats::percentile_ns(&mut per_session, 0.5) {
        m.set("serve.log.recover_ms", p50 / 1e6);
    }
    m.set(
        "serve.log.bytes_per_event",
        layers::dir_bytes(&site.data) as f64 / site.records.max(1) as f64,
    );

    // The layers a replay leans on, on one session's events.
    let (sessions, events) = sizes(args);
    let g = gen::generate(args.workload.gen, gen::sub_seed(args.seed, 0), events);
    let evs = layers::parse_events(&g.text, usize::MAX);
    layers::probe_wire(m, &evs);
    layers::probe_snapshot(m, &evs);
    layers::probe_proto(m);

    // One pass against the real binary for the resume latency itself.
    let (_, shares) = recover_pass(&site, &work, programs)?;
    let mut lat: Vec<f64> = Vec::new();
    for r in shares {
        res.attempted += r.attempted;
        res.failed += r.failed;
        res.notes.extend(r.notes);
        lat.extend(r.latency_ns.iter().map(|&n| n as f64));
    }
    lat.sort_by(f64::total_cmp);
    res.metrics.set("verdict_samples", lat.len() as f64);
    if let Some(p50) = stats::percentile(&lat, 0.5) {
        res.metrics.set("resume_p50_ms", p50 / 1e6);
        if let Some(in_process_ms) = res.metrics.get("serve.log.recover_ms") {
            res.metrics.set(
                "serve.server.socket_overhead_us",
                (p50 / 1e6 - in_process_ms) * 1e3,
            );
        }
    }
    res.notes
        .push(format!("{sessions} sessions x {events} events"));
    write_trace(args.workload.name, &tracer)?;
    res.self_time = tracer.self_times();
    res.correct = res.failed == 0;
    Ok(res)
}
