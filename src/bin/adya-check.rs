//! `adya-check` — analyze a transaction history from the command line.
//!
//! Reads a history in the paper's textual notation (from a file or
//! stdin) and prints the full analysis: detected phenomena with
//! witnesses, per-level verdicts, the mixed-level verdict, and
//! optionally the DSG as Graphviz DOT.
//!
//! ```sh
//! echo "w1(x,2) w2(x,5) w2(y,5) c2 w1(y,8) c1 [x1 << x2, y2 << y1]" \
//!   | cargo run --bin adya-check
//!
//! cargo run --bin adya-check -- --dot history.txt
//! cargo run --bin adya-check -- --level PL-3 history.txt   # exit 1 on violation
//! cargo run --bin adya-check -- explain history.txt        # forensic narrative
//! cargo run --bin adya-check -- --trace-out t.json history.txt  # Perfetto timeline
//! ```
//!
//! Notation: `w1(x,5)` write, `r2(x1)` read of T1's version,
//! `rc2(x1)` cursor read, `b1`/`c1`/`a1` begin/commit/abort,
//! `#pred(P,lo,hi)` + `rp1(P: x0,y2)` predicate reads, trailing
//! `[x1 << x2]` version orders. Lines starting with `#` (other than
//! `#pred`) are comments.

use std::fmt::Write as _;
use std::io::{BufRead as _, Read as _, Write as _};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use adya::core::{analyze, Analysis, IsolationLevel};
use adya::history::parse_history_completed;
use adya::online::{
    CheckerMonitor, EventLogReader, HealthPolicy, LogError, OnlineChecker, StreamFeed, Verdict,
};
use adya_obs::trace::{Stage, DEFAULT_TRACE_SAMPLE};
use adya_obs::{json::esc, ObsServer, Response, TracePlane, Traced};

/// Where and how `--metrics` output is rendered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsMode {
    Off,
    /// The original human-readable block (`--metrics`).
    Text,
    /// Prometheus text exposition (`--metrics prom`).
    Prom,
}

struct Args {
    path: Option<String>,
    explain: bool,
    dot: bool,
    json: bool,
    metrics: MetricsMode,
    stream: bool,
    trace_out: Option<String>,
    level: Option<IsolationLevel>,
    /// `--obs-listen ADDR`: serve /metrics, /health, /trace while
    /// streaming.
    obs_listen: Option<String>,
    /// `/health` staleness threshold (ms without an applied event).
    obs_stale_ms: u64,
    /// `/health` ingest-lag threshold (ms from arrival to applied).
    obs_lag_ms: u64,
    /// Tap-side fault injection: sleep this long before applying each
    /// event, inflating ingest lag (exercises the /health semantics).
    delay_event_ms: u64,
}

/// Renders the analysis as a JSON object (hand-rolled: the sanctioned
/// dependency set has no serializer, and the shape is small).
fn to_json(
    history: &adya::history::History,
    a: &Analysis,
    metrics: Option<&adya_obs::Snapshot>,
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"transactions\": {},", history.txns().count());
    let _ = writeln!(s, "  \"committed\": {},", history.committed_txns().count());
    s.push_str("  \"phenomena\": [");
    for (i, p) in a.phenomena.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{{\"kind\": \"{}\", \"witness\": \"{}\"}}",
            p.kind(),
            esc(&p.to_string())
        );
    }
    s.push_str("],\n  \"levels\": {");
    for (i, c) in a.levels.checks.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}\": {}", c.level, c.ok());
    }
    s.push_str("},\n");
    let _ = writeln!(
        s,
        "  \"strongest_ansi\": {},",
        a.levels
            .strongest_ansi()
            .map(|l| format!("\"{l}\""))
            .unwrap_or_else(|| "null".to_string())
    );
    match metrics {
        None => {
            let _ = writeln!(s, "  \"mixing_correct\": {}", a.mixing.is_correct());
        }
        Some(snap) => {
            let _ = writeln!(s, "  \"mixing_correct\": {},", a.mixing.is_correct());
            // Re-indent the snapshot's standalone rendering to sit as
            // a field of the top-level object.
            let rendered = snap.to_json();
            let mut lines = rendered.lines();
            let _ = write!(s, "  \"metrics\": {}", lines.next().unwrap_or("{}"));
            for l in lines {
                let _ = write!(s, "\n  {l}");
            }
            s.push('\n');
        }
    }
    s.push('}');
    s
}

/// Renders the metrics snapshot as a human-readable block for the
/// text report.
fn metrics_text(snap: &adya_obs::Snapshot) -> String {
    let mut s = String::from("metrics:\n");
    for (name, v) in &snap.counters {
        let _ = writeln!(s, "  {name} = {v}");
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(s, "  {name} = {v}");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(
            s,
            "  {name}: count={} sum={} min={} p50={} p90={} p99={} max={}",
            h.count, h.sum, h.min, h.p50, h.p90, h.p99, h.max
        );
    }
    s.pop();
    s
}

fn parse_level(s: &str) -> Option<IsolationLevel> {
    IsolationLevel::ALL
        .iter()
        .copied()
        .find(|l| l.to_string().eq_ignore_ascii_case(s))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        path: None,
        explain: false,
        dot: false,
        json: false,
        metrics: MetricsMode::Off,
        stream: false,
        trace_out: None,
        level: None,
        obs_listen: None,
        obs_stale_ms: 5_000,
        obs_lag_ms: 1_000,
        delay_event_ms: 0,
    };
    let parse_ms = |flag: &str, v: Option<String>| -> Result<u64, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a millisecond value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: not a millisecond count: {v:?}"))
    };
    let mut it = std::env::args().skip(1).peekable();
    let mut first_positional = true;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dot" => args.dot = true,
            "--json" => args.json = true,
            "--metrics" => {
                // Optional value: `--metrics prom` selects Prometheus
                // exposition; bare `--metrics` keeps the text block.
                args.metrics = match it.peek().map(String::as_str) {
                    Some("prom") => {
                        it.next();
                        MetricsMode::Prom
                    }
                    Some("text") => {
                        it.next();
                        MetricsMode::Text
                    }
                    _ => MetricsMode::Text,
                };
            }
            "--stream" => args.stream = true,
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a file path")?;
                args.trace_out = Some(v);
            }
            "--level" => {
                let v = it.next().ok_or("--level needs a value (e.g. PL-3)")?;
                args.level = Some(parse_level(&v).ok_or_else(|| format!("unknown level {v:?}"))?);
            }
            "--obs-listen" => {
                let v = it
                    .next()
                    .ok_or("--obs-listen needs an address (e.g. 127.0.0.1:0)")?;
                args.obs_listen = Some(v);
            }
            "--obs-stale-ms" => args.obs_stale_ms = parse_ms("--obs-stale-ms", it.next())?,
            "--obs-lag-ms" => args.obs_lag_ms = parse_ms("--obs-lag-ms", it.next())?,
            "--delay-event-ms" => args.delay_event_ms = parse_ms("--delay-event-ms", it.next())?,
            "--help" | "-h" => {
                return Err(USAGE.to_string());
            }
            "explain" if first_positional => {
                args.explain = true;
                first_positional = false;
            }
            p if !p.starts_with('-') => {
                args.path = Some(p.to_string());
                first_positional = false;
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: adya-check [explain] [--dot] [--json] [--metrics [prom]] [--stream]
                  [--trace-out FILE] [--level PL-3]
                  [--obs-listen ADDR] [--obs-stale-ms MS] [--obs-lag-ms MS]
                  [--delay-event-ms MS] [FILE]
       adya-check trace-merge FILE... [--out FILE]
Reads a history (paper notation) from FILE or stdin and analyzes it.
  explain        forensic mode: shrink the history to a minimal
                 sub-history per detected phenomenon and print a
                 narrative citing the operations behind every cycle
                 edge (with --dot, also a cycle-scoped DOT per witness)
  --dot          also print the DSG as Graphviz DOT; with --stream,
                 emit a cycle-scoped DOT to stderr for each verdict
                 that fires a new phenomenon (stdout stays NDJSON)
  --json         machine-readable output instead of the text report
  --metrics      append checker metrics (phase timings, graph stats);
                 `--metrics prom` renders them as Prometheus text
                 exposition instead of the human-readable block
  --trace-out F  write the history as Chrome trace-event JSON (open in
                 Perfetto / chrome://tracing). With --stream, writes
                 rotating trace segments F.0..F.3 of the stage stamps
                 (tap, ring, seq, apply, verdict) of sampled events
                 instead (memory and disk stay bounded on unbounded
                 streams); each also embeds its segment for trace-merge
  --stream       incremental mode: ingest events one at a time and emit
                 one NDJSON verdict line per commit plus a final line;
                 binary event logs (ADYALOG magic) are auto-detected.
                 A torn tail — text cut mid-token on the last line, or
                 a binary log whose final record is incomplete — emits
                 a {\"error\":\"truncated_input\",...} record plus the
                 verdict of the intact prefix, and exits 3; damage
                 before the end is corruption and exits 2. Predicate
                 reads and explicit version orders are not supported,
                 and --level is restricted to the ANSI chain
  --level LEVEL  exit non-zero unless the history satisfies LEVEL
                 (PL-1, PL-2, PL-CS, PL-MAV, PL-2+, PL-2.99, PL-SI, PL-3)
  --obs-listen A stream only: serve a live obs endpoint on address A
                 (e.g. 127.0.0.1:9464; port 0 picks one — the bound
                 address is printed to stderr). Routes: /metrics
                 (Prometheus text), /health (JSON SLIs; HTTP 503 when
                 degraded), /trace (Chrome trace of the stage stamps of
                 recent sampled events, embedding this node's segment
                 under \"provenance\" for trace-merge)
  --obs-stale-ms /health degrades after this many ms without an
                 applied event (default 5000)
  --obs-lag-ms   /health degrades when ingest lag (event arrival to
                 applied) exceeds this many ms (default 1000)
  --delay-event-ms
                 fault injection: sleep this long before applying each
                 event — induces ingest lag the obs plane must report
  trace-merge    join /trace captures from several nodes into one
                 cross-node Chrome/Perfetto timeline: each verdict's
                 provenance renders as one flow across per-node lanes
                 (clock offsets estimated from replication stamps)";

/// Exit code for a cleanly detected torn tail (distinct from level
/// violations = 1 and hard errors = 2).
const EXIT_TRUNCATED: u8 = 3;

/// Emits the metrics snapshot to stderr in the selected rendering
/// (stream modes keep stdout pure NDJSON).
fn emit_metrics_stderr(mode: MetricsMode) {
    match mode {
        MetricsMode::Off => {}
        MetricsMode::Text => eprintln!("{}", metrics_text(&adya_obs::global().snapshot())),
        MetricsMode::Prom => eprint!("{}", adya_obs::global().snapshot().to_prometheus()),
    }
}

/// Emits one complete DOT document to stderr as a single buffered
/// write under the stderr lock, then flushes. `eprint!` wrote the
/// graph through the unbuffered stderr handle a fragment at a time,
/// so under redirection a concurrent NDJSON line (or another thread's
/// diagnostics) could land mid-graph; one `write_all` + flush means
/// the document is never torn.
fn emit_dot_stderr(d: &str) {
    let stderr = std::io::stderr();
    let mut h = stderr.lock();
    let _ = h.write_all(d.as_bytes());
    let _ = h.flush();
}

/// Trace segments kept by the streaming `--trace-out` ring.
const TRACE_SEGMENTS: u64 = 4;

/// Events between trace segment rotations. The plane's stamp ring
/// holds 8192 stamps; at 1-in-32 sampling and at most five stamps per
/// sampled event, 8192 events leave at most 1280, so a segment rotates
/// well before overwrite.
const TRACE_ROTATE_EVENTS: u64 = 8192;

/// Streaming `--trace-out`: rotating Chrome-trace segments over the
/// plane's bounded stamp ring. Long-running streams get `FILE.0` ..
/// `FILE.3`, newest overwriting oldest — bounded memory AND bounded
/// disk, instead of buffering the whole run like batch mode.
struct TraceRing {
    base: String,
    plane: Arc<TracePlane>,
    segment: u64,
    last_rotate_events: u64,
}

impl TraceRing {
    fn new(base: String, plane: Arc<TracePlane>) -> TraceRing {
        TraceRing {
            base,
            plane,
            segment: 0,
            last_rotate_events: 0,
        }
    }

    fn maybe_rotate(&mut self, events: u64) {
        if events.saturating_sub(self.last_rotate_events) >= TRACE_ROTATE_EVENTS {
            self.last_rotate_events = events;
            self.rotate(false);
        }
    }

    /// Drains the plane's stamp ring into the next segment file.
    /// Mid-stream rotations skip an empty ring; the final rotation
    /// (`force`) always writes, so `--trace-out F` yields at least
    /// `F.0` even on streams too short to sample an event.
    fn rotate(&mut self, force: bool) {
        if self.plane.collect().is_empty() && !force {
            return;
        }
        let path = format!("{}.{}", self.base, self.segment % TRACE_SEGMENTS);
        if let Err(e) = std::fs::write(&path, adya_obs::trace_document(Some(&self.plane))) {
            eprintln!("adya-check: cannot write {path}: {e}");
        }
        self.plane.reset();
        self.segment += 1;
    }
}

/// Trace-id scope for `adya-check --stream` stage stamps.
const STREAM_TRACE_SCOPE: &str = "stream";

/// The live obs plane for one `--stream` run: the stage-stamp plane,
/// checker monitor, HTTP endpoint, fault-injection delay, and the
/// trace segment ring — each present only when a flag reads it.
struct StreamObs {
    /// Present whenever `--obs-listen` or `--trace-out` renders it.
    /// Its sampling decision is the run's one per event: the events
    /// it stamps are the events the monitor captures SLIs for.
    plane: Option<Arc<TracePlane>>,
    monitor: Option<Arc<CheckerMonitor>>,
    server: Option<ObsServer>,
    delay: Option<Duration>,
    trace: Option<TraceRing>,
}

impl StreamObs {
    /// Builds the plane from the flags and arms the checker's sampled
    /// phase timings when any of it is on.
    fn start(args: &Args, checker: &mut OnlineChecker) -> Result<StreamObs, String> {
        let on = args.obs_listen.is_some() || args.trace_out.is_some();
        let plane = on.then(|| Arc::new(TracePlane::new("check", "leader")));
        let mut obs = StreamObs {
            trace: (args.trace_out.clone())
                .zip(plane.clone())
                .map(|(base, plane)| TraceRing::new(base, plane)),
            plane,
            monitor: None,
            server: None,
            delay: (args.delay_event_ms > 0).then(|| Duration::from_millis(args.delay_event_ms)),
        };
        if on {
            checker.set_telemetry_sampling(DEFAULT_TRACE_SAMPLE as u32);
        }
        if let Some(addr) = &args.obs_listen {
            let monitor = Arc::new(CheckerMonitor::new(HealthPolicy {
                stale_ms: args.obs_stale_ms,
                lag_ms: args.obs_lag_ms,
            }));
            let handler_monitor = Arc::clone(&monitor);
            let handler_plane = obs.plane.clone();
            let server = ObsServer::bind(
                addr,
                Arc::new(move |path: &str| match path {
                    "/metrics" => Response::ok(
                        "text/plain; version=0.0.4; charset=utf-8",
                        adya_obs::global().snapshot().to_prometheus(),
                    ),
                    "/health" => {
                        let body = handler_monitor.health_json();
                        let status = if handler_monitor.judge().is_ok() {
                            200
                        } else {
                            503
                        };
                        Response {
                            status,
                            content_type: "application/json",
                            body: body.into_bytes(),
                        }
                    }
                    "/trace" => Response::json(adya_obs::trace_document(handler_plane.as_deref())),
                    _ => Response::status(404, "routes: /metrics /health /trace\n"),
                }),
            )
            .map_err(|e| format!("cannot bind obs endpoint {addr}: {e}"))?;
            eprintln!(
                "adya-check: obs endpoint listening on {}",
                server.local_addr()
            );
            obs.monitor = Some(monitor);
            obs.server = Some(server);
        }
        Ok(obs)
    }

    /// Counts one event's arrival and applies the injected tap delay.
    /// The delay falls between the event's `tap` and `apply` stamps,
    /// the span the ingest-lag SLI reads, so it shows up as lag on the
    /// next sampled `/health` render — and the first event is always
    /// sampled.
    fn event_arrived(&self) {
        if let Some(m) = &self.monitor {
            m.arrival();
        }
        if let Some(d) = self.delay {
            std::thread::sleep(d);
        }
    }

    /// Records one applied event (and its verdict, when the event was
    /// a commit) into the monitor.
    fn event_applied(&self, checker: &OnlineChecker, traced: Traced<'_>, v: Option<&Verdict>) {
        if let Some(m) = &self.monitor {
            m.observe_event(checker, traced);
            if let Some(v) = v {
                m.observe_verdict(v);
            }
        }
    }

    /// Final verdict: last monitor update, final trace segment.
    fn finish(&mut self, v: &Verdict) {
        if let Some(m) = &self.monitor {
            m.observe_verdict(v);
        }
        if let Some(tr) = &mut self.trace {
            tr.rotate(true);
        }
    }
}

/// The one owner of stdout in `--stream` mode: every verdict line,
/// closing frame and `truncated_input` record goes through here, into
/// a buffer in front of the locked handle.
///
/// The rule that keeps a live pipe as prompt as a write per line was:
/// **flush before every wait** — whenever the checker is about to block
/// or sleep with verdicts still buffered (no input left to read, the
/// `--delay-event-ms` sleep), before anything goes to stderr (`--dot`,
/// diagnostics, metrics), and before exit. Between waits a file's worth
/// of verdicts costs a `write(2)` per buffer, not per line.
///
/// A reader that went away (`| head -1`) ends the run quietly with
/// exit 0; any other stdout error is reported and exits 2.
struct VerdictOut {
    out: std::io::BufWriter<std::io::StdoutLock<'static>>,
    /// The line being rendered, reused from verdict to verdict.
    line: String,
}

impl VerdictOut {
    /// Locks stdout for as long as the value lives.
    fn new() -> VerdictOut {
        VerdictOut {
            out: std::io::BufWriter::with_capacity(64 << 10, std::io::stdout().lock()),
            line: String::new(),
        }
    }

    fn check(result: std::io::Result<()>) {
        if let Err(e) = result {
            Self::fail(e);
        }
    }

    /// Stdout is gone or broken: the run ends here.
    #[cold]
    fn fail(e: std::io::Error) -> ! {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("adya-check: write error: {e}");
        std::process::exit(2);
    }

    fn verdict(&mut self, v: &Verdict) {
        self.line.clear();
        v.write_json(&mut self.line);
        self.line.push('\n');
        Self::check(self.out.write_all(self.line.as_bytes()));
    }

    /// One NDJSON record that is not a verdict.
    fn record(&mut self, json: &str) {
        Self::check(writeln!(self.out, "{json}"));
    }

    fn flush(&mut self) {
        Self::check(self.out.flush());
    }

    /// A verdict, then its cycle as DOT on stderr when `--dot` asked
    /// for one — stdout first, so the two stay in order.
    fn verdict_with_dot(&mut self, v: &Verdict, dot: bool) {
        self.verdict(v);
        if let Some(d) = dot.then(|| v.cycle_dot()).flatten() {
            self.flush();
            emit_dot_stderr(&d);
        }
    }
}

/// Where `--stream` events go: the checker, the obs plane hooked around
/// every event, and stdout.
struct StreamSink {
    /// The checker, behind the parser text tokens go through (a binary
    /// log's events skip it).
    feed: StreamFeed,
    obs: StreamObs,
    emitted: u64,
    dot: bool,
    /// The dense event sequence the plane's sampling keys off.
    seq: u64,
    out: VerdictOut,
}

impl StreamSink {
    fn start(args: &Args) -> Result<StreamSink, String> {
        let mut checker = OnlineChecker::new();
        // This tool exists to explain violations, so it pays for the
        // per-edge provenance the library leaves off by default.
        checker.set_provenance(true);
        let obs = StreamObs::start(args, &mut checker)?;
        Ok(StreamSink {
            feed: StreamFeed::new(checker),
            obs,
            emitted: 0,
            dot: args.dot,
            seq: 0,
            out: VerdictOut::new(),
        })
    }

    /// Applies one parsed event and prints its commit verdict, if any.
    fn apply(&mut self, ev: adya::history::Event) {
        // In-thread ingest plays every pre-apply stage itself: arrival
        // (`tap`), line buffer (`ring`), sequencing.
        let traced = (self.obs.plane.as_deref())
            .map_or(Traced::OFF, |p| p.begin(STREAM_TRACE_SCOPE, self.seq));
        traced.stamp(Stage::Tap);
        traced.stamp(Stage::Ring);
        traced.stamp(Stage::Seq);
        self.seq += 1;
        if self.obs.delay.is_some() {
            self.out.flush(); // about to sleep
        }
        self.obs.event_arrived();
        let v = self.feed.ingest(&ev);
        traced.stamp(Stage::Apply);
        if v.is_some() {
            traced.stamp(Stage::Verdict);
        }
        self.obs
            .event_applied(self.feed.checker(), traced, v.as_ref());
        if let Some(tr) = &mut self.obs.trace {
            tr.maybe_rotate(self.feed.checker().events());
        }
        if let Some(v) = v {
            self.emitted += 1;
            self.out.verdict_with_dot(&v, self.dot);
        }
    }
}

/// Emits the `truncated_input` NDJSON record, the final verdict of the
/// intact prefix, and optional metrics; the caller exits 3.
fn finish_truncated(
    mut sink: StreamSink,
    detail: &str,
    at_field: &str,
    at: usize,
    metrics: MetricsMode,
) -> ExitCode {
    let out = &mut sink.out;
    out.record(&format!(
        "{{\"error\": \"truncated_input\", \"{at_field}\": {at}, \"detail\": \"{}\"}}",
        esc(detail)
    ));
    out.verdict(&sink.feed.finish());
    out.flush();
    emit_metrics_stderr(metrics);
    ExitCode::from(EXIT_TRUNCATED)
}

/// A hard error mid-stream: what was answered so far goes out, then
/// the diagnostic; exit 2.
fn fail_stream(mut sink: StreamSink, msg: &str) -> ExitCode {
    sink.out.flush();
    eprintln!("adya-check: {msg}");
    ExitCode::from(2)
}

/// The end of a stream that was read to its end (or to SIGTERM/ctrl-c,
/// which adds the closing frame first so the stream ends the same way
/// an EOF would): the final verdict, metrics, and the `--level` gate.
fn finish_stream(args: &Args, mut sink: StreamSink, was_shutdown: bool) -> ExitCode {
    if was_shutdown {
        sink.out.record(&adya_serve::proto::closing_frame(
            "shutdown",
            None,
            sink.feed.checker().events(),
            sink.emitted,
        ));
    }
    let fin = sink.feed.finish();
    sink.obs.finish(&fin);
    sink.out.verdict(&fin);
    sink.out.flush();
    emit_metrics_stderr(args.metrics);
    if let Some(level) = args.level {
        if !fin.satisfies(level) {
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

/// `--stream` over a binary event log (detected via [`LOG_MAGIC`]):
/// a torn final record is reported as `truncated_input` (exit 3), an
/// earlier damaged record as corruption (exit 2).
///
/// [`LOG_MAGIC`]: adya::online::LOG_MAGIC
fn run_stream_binary(args: &Args, buf: &[u8]) -> ExitCode {
    let mut log = match EventLogReader::open(buf) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("adya-check: {e}");
            return ExitCode::from(2);
        }
    };
    let mut sink = match StreamSink::start(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("adya-check: {e}");
            return ExitCode::from(2);
        }
    };
    let mut was_shutdown = false;
    while let Some(item) = log.next() {
        if adya_serve::shutdown::requested() {
            was_shutdown = true;
            break;
        }
        match item {
            Ok(ev) => sink.apply(ev),
            Err(LogError::TornTail { good_len, detail }) => {
                return finish_truncated(sink, &detail, "good_len", good_len, args.metrics);
            }
            Err(e) => return fail_stream(sink, &e.to_string()),
        }
    }
    finish_stream(args, sink, was_shutdown)
}

/// Whether `line` holds anything but whitespace or a comment. `#pred(`
/// is deliberately NOT a comment here — it reaches the parser, which
/// explains why it is unsupported.
fn has_tokens(line: &str) -> bool {
    let t = line.trim_start();
    !t.is_empty() && (!t.starts_with('#') || t.starts_with("#pred("))
}

/// `--stream`: feed the input token-by-token through the incremental
/// checker, emitting one NDJSON verdict per commit and a final summary
/// line (`"final": true`). Metrics go to stderr so stdout stays pure
/// NDJSON. Binary event logs are detected by their magic and handed to
/// [`run_stream_binary`]; an [unfinished] token with
/// nothing but whitespace/comments after it is treated as a torn tail
/// (the input was cut mid-write), reported as a `truncated_input`
/// record with exit 3 rather than a hard parse error.
fn run_stream(args: &Args) -> ExitCode {
    // Streaming runs can be long-lived sidecars; SIGTERM/ctrl-c must
    // end them with a closing frame and a final verdict, not mid-line.
    adya_serve::shutdown::install();
    if let Some(level) = args.level {
        if !IsolationLevel::ANSI.contains(&level) {
            let chain = IsolationLevel::ANSI.map(|l| l.to_string()).join(", ");
            eprintln!(
                "adya-check: --stream verdicts cover the ANSI chain only ({chain}), not {level}"
            );
            return ExitCode::from(2);
        }
    }
    let mut raw: Box<dyn std::io::Read> = match &args.path {
        Some(p) => match std::fs::File::open(p) {
            Ok(f) => Box::new(f),
            Err(e) => {
                eprintln!("adya-check: cannot read {p}: {e}");
                return ExitCode::from(2);
            }
        },
        None => Box::new(std::io::stdin()),
    };
    // Peek the first 8 bytes to auto-detect a binary event log.
    let mut header = [0u8; 8];
    let mut got = 0;
    while got < header.len() {
        match raw.read(&mut header[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) => {
                eprintln!("adya-check: read error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if EventLogReader::sniff(&header[..got]) {
        let mut buf = header[..got].to_vec();
        if let Err(e) = raw.read_to_end(&mut buf) {
            eprintln!("adya-check: read error: {e}");
            return ExitCode::from(2);
        }
        return run_stream_binary(args, &buf);
    }
    let mut reader = std::io::BufReader::new(std::io::Read::chain(
        std::io::Cursor::new(header[..got].to_vec()),
        raw,
    ));

    let mut sink = match StreamSink::start(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("adya-check: {e}");
            return ExitCode::from(2);
        }
    };

    // (line number, parse error) of a bad token with nothing after it
    // on its line.
    let mut damage: Option<(usize, String)> = None;
    let mut was_shutdown = false;
    let mut line = String::new();
    let mut line_no = 0;
    loop {
        if reader.buffer().is_empty() {
            sink.out.flush(); // the next read may block
        }
        line.clear();
        line_no += 1;
        let read = reader.read_line(&mut line);
        if let Some((at, msg)) = &damage {
            // A bad token is a torn tail only when nothing meaningful
            // follows it; otherwise the input is corrupt, not truncated.
            match read {
                Ok(0) => break,
                Ok(_) if has_tokens(&line) => {
                    return fail_stream(sink, &format!("line {at}: {msg}"));
                }
                Ok(_) => continue,
                // Not text, so not tokens either.
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => continue,
                Err(_) => break,
            }
        }
        match read {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return fail_stream(sink, &format!("read error on line {line_no}: {e}")),
        }
        if adya_serve::shutdown::requested() {
            was_shutdown = true;
            break;
        }
        if !has_tokens(&line) {
            continue;
        }
        let mut toks = line.split_whitespace().peekable();
        while let Some(tok) = toks.next() {
            match sink.feed.parse(tok) {
                Ok(ev) => sink.apply(ev),
                Err(msg) if toks.peek().is_some() || !unfinished(tok) => {
                    return fail_stream(sink, &format!("line {line_no}: {msg}"));
                }
                Err(msg) => damage = Some((line_no, msg)),
            }
        }
    }
    if let Some((line_no, msg)) = damage {
        return finish_truncated(sink, &msg, "line", line_no, args.metrics);
    }
    finish_stream(args, sink, was_shutdown)
}

/// Whether a token the parser refused can be the cut-off start of one
/// it would read: `b`, `w12`, `r2(x`, an operation and a transaction
/// number so far, or a call not closed yet. A token refused for what it
/// means (`[x1]`, `rp1(…)`, `c4294967295`), or one no more bytes could
/// mend (`zzz`, `w1()`), is damage wherever it stands.
fn unfinished(tok: &str) -> bool {
    if tok.starts_with("rp") {
        return false; // a predicate read, refused whole
    }
    let Some(rest) = ["rc", "r", "w"].iter().find_map(|p| tok.strip_prefix(p)) else {
        return matches!(tok, "b" | "c" | "a");
    };
    let (txn, call) = rest.split_at(rest.find('(').unwrap_or(rest.len()));
    let txn_so_far = (txn.is_empty() && call.is_empty()) || txn.parse::<u32>().is_ok();
    txn_so_far && !call.ends_with(')')
}

/// `explain` mode: shrink the history to a minimal sub-history per
/// detected phenomenon and print a narrative citing the operations
/// behind every cycle edge. With `--dot`, a cycle-scoped DOT per
/// witness follows its narrative; `--trace-out` is honored. Always
/// exits 0 on a well-formed history — forensics is a report, not a
/// level check.
fn run_explain(history: &adya::history::History, args: &Args) -> ExitCode {
    let witnesses = adya::forensics::extract_all(history);
    if witnesses.is_empty() {
        println!("no phenomena detected");
    }
    for (i, w) in witnesses.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{}", adya::forensics::narrative(w));
        if args.dot {
            print!("{}", adya::forensics::cycle_dot(w, &w.kind.to_string()));
        }
    }
    if let Some(path) = &args.trace_out {
        let a = analyze(history);
        if let Err(e) = std::fs::write(path, adya::forensics::trace_json(history, Some(&a))) {
            eprintln!("adya-check: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// `adya-check trace-merge A.json B.json [--out F]`: joins `/trace`
/// captures from several nodes into one cross-node Chrome/Perfetto
/// timeline. Each input is either a bare trace segment or a full
/// `/trace` response with the segment embedded under `"provenance"`.
fn run_trace_merge() -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(v) => out = Some(v),
                None => {
                    eprintln!("adya-check: --out needs a file path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: adya-check trace-merge FILE... [--out FILE]");
                return ExitCode::SUCCESS;
            }
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => {
                eprintln!("adya-check: unknown trace-merge flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    if files.is_empty() {
        eprintln!("usage: adya-check trace-merge FILE... [--out FILE]");
        return ExitCode::from(2);
    }
    let mut segments = Vec::with_capacity(files.len());
    for f in &files {
        let raw = match std::fs::read_to_string(f) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("adya-check: cannot read {f}: {e}");
                return ExitCode::from(2);
            }
        };
        match adya_obs::parse_segment(&raw) {
            Ok(seg) => segments.push(seg),
            Err(e) => {
                eprintln!(
                    "adya-check: {f}: {e} (not a /trace capture or --stream --trace-out file \
                     of a node with a trace plane?)"
                );
                return ExitCode::from(2);
            }
        }
    }
    let merged = adya_obs::merge_segments(&segments);
    match out {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, &merged) {
                eprintln!("adya-check: cannot write {p}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("adya-check: merged {} segment(s) into {p}", segments.len());
        }
        None => println!("{merged}"),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // `trace-merge` is a standalone subcommand with its own flags.
    if std::env::args().nth(1).as_deref() == Some("trace-merge") {
        return run_trace_merge();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if !args.stream && (args.obs_listen.is_some() || args.delay_event_ms > 0) {
        eprintln!("adya-check: --obs-listen and --delay-event-ms need --stream");
        return ExitCode::from(2);
    }
    if args.stream {
        if args.explain {
            eprintln!("adya-check: explain needs the complete history (drop --stream)");
            return ExitCode::from(2);
        }
        return run_stream(&args);
    }
    let raw = match &args.path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("adya-check: cannot read {p}: {e}");
                return ExitCode::from(2);
            }
        },
        None => {
            let mut s = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut s) {
                eprintln!("adya-check: cannot read stdin: {e}");
                return ExitCode::from(2);
            }
            s
        }
    };
    // Strip comment lines (but keep #pred directives).
    let text: String = raw
        .lines()
        .filter(|l| {
            let t = l.trim_start();
            !t.starts_with('#') || t.starts_with("#pred(")
        })
        .collect::<Vec<_>>()
        .join(" ");

    let history = match parse_history_completed(&text) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("adya-check: invalid history: {e}");
            return ExitCode::from(2);
        }
    };

    if args.explain {
        return run_explain(&history, &args);
    }

    let a = analyze(&history);
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, adya::forensics::trace_json(&history, Some(&a))) {
            eprintln!("adya-check: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let metrics = (args.metrics == MetricsMode::Text).then(|| adya_obs::global().snapshot());
    if args.json {
        println!("{}", to_json(&history, &a, metrics.as_ref()));
        if args.metrics == MetricsMode::Prom {
            // Prometheus exposition is not JSON; keep stdout valid and
            // expose the metrics on stderr.
            eprint!("{}", adya_obs::global().snapshot().to_prometheus());
        }
    } else {
        println!("history: {history}");
        println!(
            "transactions: {} ({} committed)\n",
            history.txns().count(),
            history.committed_txns().count()
        );
        println!("{a}");
        if let Some(snap) = &metrics {
            println!("\n{}", metrics_text(snap));
        }
        if args.metrics == MetricsMode::Prom {
            print!("\n{}", adya_obs::global().snapshot().to_prometheus());
        }
        if args.dot {
            println!("\n{}", a.dsg.to_dot("history"));
        }
    }
    if let Some(level) = args.level {
        let ok = a.levels.satisfies(level);
        if !args.json {
            println!("\n{level}: {}", if ok { "SATISFIED" } else { "VIOLATED" });
        }
        if !ok {
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
