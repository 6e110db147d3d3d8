//! The file-input workloads: `stream-hot` / `stream-wide`
//! (`adya-check --stream <file>`) and `batch` (`adya-check --json
//! <file>`), plus the in-process replay that serves as their oracle
//! and as their traced pass.

use std::process::{Command, Stdio};
use std::time::Instant;

use adya_core::{IsolationLevel, PhenomenonKind};
use adya_online::{OnlineChecker, StreamParser, Verdict};

use crate::gen::{self, Generated};
use crate::layers;
use crate::proc::{self, Programs};
use crate::result::{Metrics, RunResult};
use crate::spec::{Kind, Workload};
use crate::stats;
use crate::trace::{alloc_counters, alternate, Tracer};
use crate::RunArgs;

/// Lines handed to each layer at a time by the in-process replay:
/// large enough that span bookkeeping vanishes, small enough that the
/// trace shows the run's shape.
const BLOCK_LINES: usize = 512;

/// What one in-process replay of a token stream produced.
pub struct Replay {
    /// The verdict stream, byte for byte what `adya-check --stream`
    /// prints (one line per commit, then the final line).
    pub out: Vec<u8>,
    pub tokens: u64,
    pub commits: u64,
    pub fin: Verdict,
    /// Largest `live_txns` any verdict reported.
    pub peak_live: usize,
    /// Per-commit `ingest` latency, traced passes only.
    pub commit_ns: Vec<u64>,
    /// Allocations / bytes inside the ingest spans (harness single
    /// thread).
    pub ingest_allocs: u64,
    pub ingest_alloc_bytes: u64,
    pub wall_ns: u64,
}

impl Replay {
    /// The verdict stream without its last line: what a session that
    /// was never closed (and so never printed a final verdict) emits.
    pub fn commit_lines(&self) -> &[u8] {
        &self.out[..self.out.len() - (self.fin.to_json().len() + 1)]
    }
}

/// Replays `text` through `StreamParser` → `OnlineChecker` →
/// `Verdict::to_json`, block by block, with a span around each layer
/// call when `tracer` is on. `provenance` mirrors the program being
/// modelled: `adya-check --stream` turns it on, `adya-serve` leaves
/// it off.
pub fn replay(text: &str, provenance: bool, tracer: &mut Tracer) -> Replay {
    let traced = tracer.is_on();
    let mut parser = StreamParser::new();
    let mut checker = OnlineChecker::new();
    checker.set_provenance(provenance);
    let gc_hist = adya_obs::global().histogram("online.gc_ns");
    if traced {
        // The cadence adya-check and adya-serve use once an obs plane
        // is attached; it is also what makes the checker record its
        // own GC spans, which the harness folds into the trace.
        checker.set_telemetry_sampling(32);
    }
    let mut out = Vec::with_capacity(text.len());
    let (mut tokens, mut commits, mut peak_live) = (0u64, 0u64, 0usize);
    let mut commit_ns = Vec::new();
    let (mut ingest_allocs, mut ingest_alloc_bytes) = (0u64, 0u64);
    let started = Instant::now();
    let root = tracer.enter("harness.replay");
    let mut events = Vec::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut lines = text.lines().peekable();
    while lines.peek().is_some() {
        let span = tracer.enter("online.feed.parse");
        events.clear();
        for line in lines.by_ref().take(BLOCK_LINES) {
            for tok in line.split_whitespace() {
                events.push(parser.parse_token(tok).expect("generated tokens parse"));
            }
        }
        tracer.exit(span);
        tokens += events.len() as u64;

        let gc_before = if traced { gc_hist.snapshot().sum } else { 0 };
        let (a0, b0) = alloc_counters();
        let span = tracer.enter("online.checker.ingest");
        verdicts.clear();
        for ev in &events {
            if traced && ev.is_terminal() {
                let t0 = Instant::now();
                if let Some(v) = checker.ingest(ev) {
                    commit_ns.push(t0.elapsed().as_nanos() as u64);
                    verdicts.push(v);
                }
            } else if let Some(v) = checker.ingest(ev) {
                verdicts.push(v);
            }
        }
        if traced {
            tracer.child_ending_now("online.checker.gc", gc_hist.snapshot().sum - gc_before);
        }
        tracer.exit(span);
        let (a1, b1) = alloc_counters();
        ingest_allocs += a1 - a0;
        ingest_alloc_bytes += b1 - b0;

        let span = tracer.enter("online.checker.verdict_json");
        for v in &verdicts {
            peak_live = peak_live.max(v.live_txns);
            out.extend_from_slice(v.to_json().as_bytes());
            out.push(b'\n');
        }
        tracer.exit(span);
        commits += verdicts.len() as u64;
    }
    let span = tracer.enter("online.checker.finish");
    let fin = checker.finish();
    out.extend_from_slice(fin.to_json().as_bytes());
    out.push(b'\n');
    tracer.exit(span);
    tracer.exit(root);
    Replay {
        out,
        tokens,
        commits,
        fin,
        peak_live,
        commit_ns,
        ingest_allocs,
        ingest_alloc_bytes,
        wall_ns: started.elapsed().as_nanos() as u64,
    }
}

/// Counts lines of `got` that differ from `want` (missing and surplus
/// lines count too).
pub fn mismatched_lines(got: &[u8], want: &[u8]) -> u64 {
    if got == want {
        return 0;
    }
    let mut g = got.split(|&b| b == b'\n');
    let mut w = want.split(|&b| b == b'\n');
    let mut bad = 0;
    loop {
        match (g.next(), w.next()) {
            (None, None) => return bad,
            (a, b) if a == b => {}
            _ => bad += 1,
        }
    }
}

/// True for a verdict line that reports PL-3 with nothing fired — the
/// only verdict a clean stream may ever get, whatever the binary and
/// the oracle agree on.
pub fn is_clean_verdict(line: &str) -> bool {
    line.contains("\"strongest_ansi\": \"PL-3\"") && line.contains("\"fired\": []")
}

fn clean_violations(out: &[u8]) -> u64 {
    out.split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .filter(|l| !is_clean_verdict(std::str::from_utf8(l).unwrap_or("")))
        .count() as u64
}

/// The phenomena `gen::DIRTY_PROLOGUE` plants in every dirty stream.
const MUST_FIRE: [PhenomenonKind; 4] = [
    PhenomenonKind::G1a,
    PhenomenonKind::G1b,
    PhenomenonKind::G1c,
    PhenomenonKind::G2,
];

/// What the generator guarantees about a whole stream, whatever the
/// two programs agree on: a clean one is PL-3, a dirty one has fired
/// G1a, G1b, G1c and G2.
fn off_the_truth(dirty: bool, fin: &Verdict) -> Option<String> {
    if !dirty {
        return (fin.strongest_ansi != Some(IsolationLevel::PL3))
            .then(|| "a clean history is not PL-3".into());
    }
    let missing: Vec<String> = MUST_FIRE
        .iter()
        .filter(|k| !fin.fired.contains(k))
        .map(ToString::to_string)
        .collect();
    (!missing.is_empty()).then(|| format!("a dirty history did not fire {}", missing.join(", ")))
}

fn events_for(w: &Workload, quick: bool) -> u64 {
    if quick {
        (w.events / 100).max(1_200)
    } else {
        w.events
    }
}

/// Generates the workload's input and writes it to
/// `out/<workload>/input.txt`; returns it with the seconds that took.
fn write_input(args: &RunArgs, path: &std::path::Path) -> Result<(Generated, f64), String> {
    let t0 = Instant::now();
    let g = gen::generate(
        args.workload.gen,
        args.seed,
        events_for(args.workload, args.quick),
    );
    std::fs::write(path, &g.text).map_err(|e| format!("cannot write input: {e}"))?;
    Ok((g, t0.elapsed().as_secs_f64()))
}

/// Timed passes: at least three, then as many as still fit the
/// measuring window (capped so `--quick` sizes cannot spin hundreds of
/// times). A pass is about a second of work, so a run has nine or ten
/// chances to catch the box undisturbed.
pub fn more_passes(walls: &[f64], started: Instant, seconds: f64) -> bool {
    if walls.len() < 3 {
        return true;
    }
    walls.len() < 40 && started.elapsed().as_secs_f64() + stats::best(walls) <= seconds
}

pub fn run(args: &RunArgs, programs: &Programs) -> Result<RunResult, String> {
    match (args.workload.kind, args.traced) {
        (Kind::Stream, false) => stream_untraced(args, programs),
        (Kind::Stream, true) => stream_traced(args),
        (Kind::Batch, false) => batch_untraced(args, programs),
        (Kind::Batch, true) => batch_traced(args),
        _ => unreachable!("serve workloads live in serve.rs"),
    }
}

fn base_result(args: &RunArgs, g: &Generated) -> RunResult {
    let mut res = RunResult::new(args);
    res.input_hash = gen::fnv1a(g.text.as_bytes());
    res.notes
        .push(format!("{} events, {} commits", g.events, g.commits));
    res
}

fn stream_untraced(args: &RunArgs, programs: &Programs) -> Result<RunResult, String> {
    let w = args.workload;
    let dir = proc::fresh_dir(w.name).map_err(|e| format!("cannot prepare out dir: {e}"))?;
    let input = dir.join("input.txt");
    let (g, first_setup) = write_input(args, &input)?;
    let mut setups = vec![first_setup];
    let want = replay(&g.text, true, &mut Tracer::off());
    let mut res = base_result(args, &g);
    if want.commits != g.commits {
        res.failed += 1;
        res.notes.push(format!(
            "oracle produced {} verdicts for {} commits",
            want.commits, g.commits
        ));
    }
    if !w.gen.dirty {
        let bad = clean_violations(&want.out);
        if bad > 0 {
            res.failed += bad;
            res.notes
                .push(format!("{bad} verdicts of a clean stream are not PL-3"));
        }
    }
    if let Some(lie) = off_the_truth(w.gen.dirty, &want.fin) {
        res.failed += 1;
        res.notes.push(lie);
    }
    let out_path = input.with_file_name("verdicts.ndjson");
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while more_passes(&walls, started, args.seconds) {
        // Set up again before every pass: the same bytes, but a fresh
        // timing for `setup_s` from every stretch of the window.
        setups.push(write_input(args, &input)?.1);
        let out = std::fs::File::create(&out_path).map_err(|e| format!("create output: {e}"))?;
        let mut cmd = Command::new(&programs.check);
        cmd.arg("--stream")
            .arg(&input)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::inherit());
        let t0 = Instant::now();
        let (status, peak) =
            proc::run_sampling_rss(&mut cmd).map_err(|e| format!("adya-check: {e}"))?;
        walls.push(t0.elapsed().as_secs_f64());
        rss.push(peak);
        res.attempted += g.commits + 1;
        let got = std::fs::read(&out_path).map_err(|e| format!("read output: {e}"))?;
        if !status.success() {
            res.failed += g.commits + 1;
            res.notes.push(format!("adya-check exited with {status}"));
        } else {
            res.failed += mismatched_lines(&got, &want.out);
        }
    }
    let wall = stats::best(&walls);
    res.metrics.set("setup_s", stats::best(&setups));
    res.metrics.set("events_per_s", g.events as f64 / wall);
    res.metrics.set("peak_rss_mb", stats::median(&rss));
    res.notes.push(format!(
        "{} passes, best of wall s {:?}",
        walls.len(),
        walls
            .iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    res.correct = res.failed == 0;
    Ok(res)
}

/// Fills the metrics every in-process replay yields.
fn replay_metrics(m: &mut Metrics, r: &mut Replay, tracer: &Tracer) {
    let table = tracer.self_times();
    let total = |name: &str| table.get(name).map_or(0, |t| t.total_ns) as f64;
    let events = r.tokens.max(1) as f64;
    m.set(
        "online.feed.parse_ns_per_token",
        total("online.feed.parse") / events,
    );
    m.set(
        "online.checker.ingest_ns_per_event",
        total("online.checker.ingest") / events,
    );
    m.set("online.checker.gc_ns_total", total("online.checker.gc"));
    m.set(
        "online.checker.verdict_json_ns",
        total("online.checker.verdict_json") / (r.commits.max(1) as f64),
    );
    m.set("online.checker.peak_live_txns", r.peak_live as f64);
    m.set(
        "online.checker.allocs_per_event",
        r.ingest_allocs as f64 / events,
    );
    m.set(
        "online.checker.alloc_bytes_per_event",
        r.ingest_alloc_bytes as f64 / events,
    );
    if let Some(p50) = stats::percentile_ns(&mut r.commit_ns, 0.5) {
        m.set("online.checker.commit_ns_p50", p50);
    }
    if let Some(p99) = stats::percentile_ns(&mut r.commit_ns, 0.99) {
        m.set("online.checker.commit_ns_p99", p99);
    }
    let snap = adya_obs::global().snapshot();
    m.set(
        "online.checker.gc_pruned",
        snap.counter("online.gc_pruned") as f64,
    );
    m.set(
        "graph.incremental.reorders",
        snap.counter("online.pk_reorders") as f64,
    );
    if let Some(h) = snap.histogram("online.graph_insert_ns") {
        m.set("graph.incremental.insert_ns_p50", h.p50 as f64);
        m.set("graph.incremental.insert_ns_p99", h.p99 as f64);
    }
    trace_totals(m, tracer, r.wall_ns);
}

/// The traced pass accounting for itself: in-process wall time, the
/// part of it the layer spans' self times cover (every span not named
/// `harness.*`), and how many spans that took.
pub fn trace_totals(m: &mut Metrics, tracer: &Tracer, wall_ns: u64) {
    let layers: f64 = tracer
        .self_times()
        .iter()
        .filter(|(n, _)| !n.starts_with("harness."))
        .map(|(_, t)| t.self_ns as f64)
        .sum();
    m.set("harness.inprocess_wall_ms", wall_ns as f64 / 1e6);
    m.set("harness.layer_self_ms", layers / 1e6);
    m.set(
        "harness.trace_coverage_pct",
        100.0 * layers / wall_ns.max(1) as f64,
    );
    m.set("harness.trace_spans", tracer.spans().len() as f64);
}

/// Writes `out/trace-<workload>.json`.
pub fn write_trace(workload: &str, tracer: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(proc::out_dir()).map_err(|e| format!("create out dir: {e}"))?;
    let path = proc::out_dir().join(format!("trace-{workload}.json"));
    std::fs::write(&path, tracer.chrome_json(workload))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn stream_traced(args: &RunArgs) -> Result<RunResult, String> {
    let g = gen::generate(
        args.workload.gen,
        args.seed,
        events_for(args.workload, args.quick),
    );
    let mut res = base_result(args, &g);
    let (mut passes, tracer, overhead) = alternate(|tracer| {
        if tracer.is_on() {
            // The checker's own series must describe this pass alone.
            adya_obs::global().reset();
        }
        let mut r = replay(&g.text, true, tracer);
        // Keep a hash, not the bytes: no pass runs beside another's
        // buffers.
        let hash = gen::fnv1a(&r.out);
        r.out = Vec::new();
        Ok((r.wall_ns, (hash, r)))
    })?;
    let (hash, mut traced) = passes.pop().expect("four passes ran");
    res.attempted = traced.commits + 1;
    if passes.iter().any(|(h, _)| *h != hash) {
        res.failed = res.attempted;
        res.notes
            .push("traced and untraced replays disagree".into());
    }
    replay_metrics(&mut res.metrics, &mut traced, &tracer);
    res.metrics.set("harness.trace_overhead_pct", overhead);
    write_trace(args.workload.name, &tracer)?;
    res.self_time = tracer.self_times();

    // Layers the stream path leans on, probed on this input.
    let events = layers::parse_events(&g.text, 200_000);
    layers::probe_pipeline(&mut res.metrics, &events);
    layers::probe_ring(&mut res.metrics, &events);
    layers::probe_obs(&mut res.metrics)?;
    layers::probe_snapshot(&mut res.metrics, &events);
    res.correct = res.failed == 0;
    Ok(res)
}

/// The ANSI-chain phenomena both checkers decide.
const SHARED_KINDS: [PhenomenonKind; 6] = [
    PhenomenonKind::G0,
    PhenomenonKind::G1a,
    PhenomenonKind::G1b,
    PhenomenonKind::G1c,
    PhenomenonKind::G2Item,
    PhenomenonKind::G2,
];

/// Compares `adya-check --json` output with the online checker's
/// final verdict on the same events; returns a description of every
/// disagreement.
fn batch_disagreements(json_out: &str, fin: &Verdict) -> Vec<String> {
    let mut bad = Vec::new();
    let doc = match crate::json::parse(json_out) {
        Ok(d) => d,
        Err(e) => return vec![format!("adya-check --json output does not parse: {e}")],
    };
    let batch_kinds: Vec<String> = doc
        .get("phenomena")
        .and_then(|p| p.as_arr())
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| p.get("kind").and_then(|k| k.as_str()).map(str::to_string))
        .collect();
    for k in SHARED_KINDS {
        let name = k.to_string();
        let (b, o) = (batch_kinds.contains(&name), fin.fired.contains(&k));
        if b != o {
            bad.push(format!("{name}: batch {b}, online {o}"));
        }
    }
    let batch_level = doc.get("strongest_ansi").and_then(|v| v.as_str());
    let online_level = fin.strongest_ansi.map(|l: IsolationLevel| l.to_string());
    if batch_level != online_level.as_deref() {
        bad.push(format!(
            "strongest_ansi: batch {batch_level:?}, online {online_level:?}"
        ));
    }
    bad
}

/// The clean companions of the batch workload's dirty history: how
/// many, and events each (same K and W). The two kinds cost time in
/// different places. On a clean history no detector finds a witness, so
/// each runs to completion, and the per-transaction unfolded graphs of
/// G-monotonic are most of 0.16 s per 2 000 events — growing faster
/// than quadratically, which is why there are several small ones. On
/// the dirty history every detector stops at the generator's prologue,
/// and what is left is building the DSG (four times per analysis) and
/// the SSG (twice).
const BATCH_CLEAN: (usize, u64) = (4, 2_000);

/// One history of the batch pass and which discipline generated it.
struct BatchHistory {
    g: Generated,
    dirty: bool,
}

/// The batch workload's histories, each from its own sub-seed: the
/// dirty one(s) the spec names, then the clean companions.
fn batch_histories(args: &RunArgs) -> Vec<BatchHistory> {
    let w = args.workload;
    let (dirty, dirty_events, (clean, clean_events)) = if args.quick {
        (1, w.events / 4, (1, BATCH_CLEAN.1 / 4))
    } else {
        (w.streams, w.events, BATCH_CLEAN)
    };
    let clean_gen = gen::GenConfig {
        dirty: false,
        ..w.gen
    };
    (0..dirty + clean)
        .map(|i| {
            let (cfg, events) = if i < dirty {
                (w.gen, dirty_events)
            } else {
                (clean_gen, clean_events)
            };
            BatchHistory {
                g: gen::generate(cfg, gen::sub_seed(args.seed, i), events),
                dirty: cfg.dirty,
            }
        })
        .collect()
}

fn batch_result(args: &RunArgs, histories: &[BatchHistory]) -> RunResult {
    let mut res = RunResult::new(args);
    res.input_hash = gen::fnv1a_all(histories.iter().map(|h| h.g.text.as_bytes()));
    res.notes.push(format!(
        "{} histories ({} dirty), {} events, {} commits",
        histories.len(),
        histories.iter().filter(|h| h.dirty).count(),
        histories.iter().map(|h| h.g.events).sum::<u64>(),
        histories.iter().map(|h| h.g.commits).sum::<u64>()
    ));
    res
}

fn batch_untraced(args: &RunArgs, programs: &Programs) -> Result<RunResult, String> {
    let dir =
        proc::fresh_dir(args.workload.name).map_err(|e| format!("cannot prepare out dir: {e}"))?;
    let path = |i: usize| dir.join(format!("history-{i}.txt"));
    let write_histories = || -> Result<(Vec<BatchHistory>, f64), String> {
        let t0 = Instant::now();
        let histories = batch_histories(args);
        for (i, h) in histories.iter().enumerate() {
            std::fs::write(path(i), &h.g.text).map_err(|e| format!("cannot write input: {e}"))?;
        }
        Ok((histories, t0.elapsed().as_secs_f64()))
    };
    let (histories, first_setup) = write_histories()?;
    let mut setups = vec![first_setup];
    let verdicts: Vec<Verdict> = histories
        .iter()
        .map(|h| replay(&h.g.text, false, &mut Tracer::off()).fin)
        .collect();
    let mut res = batch_result(args, &histories);
    let out_path = dir.join("analysis.json");
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while more_passes(&walls, started, args.seconds) {
        // As for the stream workloads: set up again before every pass.
        setups.push(write_histories()?.1);
        let (mut wall, mut peak) = (0.0, 0.0f64);
        for (i, (h, fin)) in histories.iter().zip(&verdicts).enumerate() {
            let out =
                std::fs::File::create(&out_path).map_err(|e| format!("create output: {e}"))?;
            let mut cmd = Command::new(&programs.check);
            cmd.arg("--json")
                .arg(path(i))
                .stdin(Stdio::null())
                .stdout(out)
                .stderr(Stdio::inherit());
            let t0 = Instant::now();
            let (status, file_peak) =
                proc::run_sampling_rss(&mut cmd).map_err(|e| format!("adya-check: {e}"))?;
            wall += t0.elapsed().as_secs_f64();
            peak = peak.max(file_peak);
            res.attempted += 1;
            let got =
                std::fs::read_to_string(&out_path).map_err(|e| format!("read output: {e}"))?;
            let mut bad = if status.success() {
                batch_disagreements(&got, fin)
            } else {
                vec![format!("adya-check exited with {status}")]
            };
            bad.extend(off_the_truth(h.dirty, fin));
            if !bad.is_empty() {
                res.failed += 1;
                res.notes.extend(bad);
            }
        }
        walls.push(wall);
        rss.push(peak);
    }
    let wall = stats::best(&walls);
    let events: u64 = histories.iter().map(|h| h.g.events).sum();
    res.metrics.set("setup_s", stats::best(&setups));
    res.metrics.set("events_per_s", events as f64 / wall);
    res.metrics.set("peak_rss_mb", stats::median(&rss));
    res.notes.push(format!("{} passes", walls.len()));
    res.correct = res.failed == 0;
    Ok(res)
}

/// `adya-check <file>` in-process: the same public calls, in the same
/// order, as `adya_core::analyze`, each under its own span. Returns the
/// DSG's edge count and the phenomena found.
fn batch_pass(text: &str, tracer: &mut Tracer) -> (usize, Vec<PhenomenonKind>) {
    let root = tracer.enter("harness.batch");
    let joined = text.lines().collect::<Vec<_>>().join(" ");
    let s = tracer.enter("history.parser.parse");
    let h = adya_history::parse_history_completed(&joined).expect("generated history is valid");
    tracer.exit(s);
    let s = tracer.enter("core.dsg.build");
    let dsg = adya_core::Dsg::build(&h);
    tracer.exit(s);
    let s = tracer.enter("core.phenomena.detect");
    let phenomena = adya_core::detect_all(&h);
    tracer.exit(s);
    let s = tracer.enter("core.levels.classify");
    let levels = adya_core::classify(&h);
    tracer.exit(s);
    let s = tracer.enter("core.mixing.check");
    let mixing = adya_core::check_mixing(&h);
    tracer.exit(s);
    std::hint::black_box((&levels, &mixing));
    tracer.exit(root);
    (
        dsg.graph().edge_count(),
        phenomena.iter().map(|p| p.kind()).collect(),
    )
}

/// All histories through [`batch_pass`]; wall time, total DSG edges and
/// the phenomena of each.
fn batch_passes(
    histories: &[BatchHistory],
    tracer: &mut Tracer,
) -> (u64, usize, Vec<Vec<PhenomenonKind>>) {
    let started = Instant::now();
    let (mut edges, mut kinds) = (0, Vec::new());
    for h in histories {
        let (e, k) = batch_pass(&h.g.text, tracer);
        edges += e;
        kinds.push(k);
    }
    (started.elapsed().as_nanos() as u64, edges, kinds)
}

fn batch_traced(args: &RunArgs) -> Result<RunResult, String> {
    let histories = batch_histories(args);
    let mut res = batch_result(args, &histories);
    let (mut passes, tracer, overhead) = alternate(|tracer| {
        let (ns, edges, kinds) = batch_passes(&histories, tracer);
        Ok((ns, (ns, edges, kinds)))
    })?;
    let (wall_ns, edges, kinds) = passes.pop().expect("four passes ran");
    res.attempted = histories.len() as u64;
    res.failed = passes.iter().filter(|(_, _, k)| *k != kinds).count() as u64;
    for (h, k) in histories.iter().zip(&kinds) {
        let planted = MUST_FIRE.iter().filter(|p| k.contains(p)).count();
        if planted != if h.dirty { MUST_FIRE.len() } else { 0 } {
            res.failed += 1;
            res.notes.push(format!(
                "a {} history fired {k:?}",
                if h.dirty { "dirty" } else { "clean" }
            ));
        }
    }
    let table = tracer.self_times();
    let ms = |name: &str| table.get(name).map_or(0, |t| t.total_ns) as f64 / 1e6;
    let events: u64 = histories.iter().map(|h| h.g.events).sum();
    let m = &mut res.metrics;
    m.set(
        "history.parser.parse_ns_per_event",
        ms("history.parser.parse") * 1e6 / events as f64,
    );
    m.set("core.dsg.build_ms", ms("core.dsg.build"));
    m.set("core.dsg.edges", edges as f64);
    m.set("core.phenomena.detect_ms", ms("core.phenomena.detect"));
    m.set("core.levels.classify_ms", ms("core.levels.classify"));
    m.set("core.mixing.check_ms", ms("core.mixing.check"));
    trace_totals(m, &tracer, wall_ns);
    m.set("harness.trace_overhead_pct", overhead);
    write_trace(args.workload.name, &tracer)?;
    res.self_time = table;
    res.correct = res.failed == 0;
    Ok(res)
}
