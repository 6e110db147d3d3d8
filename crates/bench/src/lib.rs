//! Shared infrastructure for the figure-regeneration binaries and
//! Criterion benches.
//!
//! Every table and figure of the paper has a binary here that
//! regenerates it from the live implementation:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `figure1` | Figure 1 — locking levels ↔ proscribed phenomena (run on the real 2PL engine) |
//! | `figure2` | Figure 2 — direct-conflict definitions, demonstrated on minimal histories |
//! | `figure3` | Figure 3 — the DSG of H_serial (edges + DOT) |
//! | `figure4` | Figure 4 — the DSG of H_wcycle (G0 cycle) |
//! | `figure5` | Figure 5 — the DSG of H_phantom (predicate anti-dependency cycle) |
//! | `figure6` | Figure 6 — the PL-level summary as a history × level matrix |
//! | `section3` | §3 — H1/H2/H1′/H2′ under preventative vs generalized definitions |
//! | `section4` | §4 — H_write_order, H_pred_read, H_insert, H_pred_update reconstructions |
//! | `mixing` | §5.5 — Definition 9 / Mixing Theorem on engine-mixed and sampled histories |
//! | `permissiveness` | E11 — admission-rate gap between P- and G-definitions |
//! | `perf_sweep` | E10 — scheme comparison across contention (the §1/§3 motivation) |
//! | `extensions` | E13 — thesis-level separations (SI / CS / MAV / 2+), cursor engine, MVTO version orders |
//! | `lattice` | the level-implication matrix (thesis lattice), checked for coherence |
//! | `all_figures` | runs every binary above in sequence (CI entry point) |
//!
//! Run them all with `cargo run -p adya-bench --bin <name>`.

#![warn(missing_docs)]

use std::fmt::Display;

use adya_workloads::harness;
pub use adya_workloads::harness::{http_get, reference, Server};

/// A minimal fixed-width table printer for the report binaries.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Display>(header: &[S]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn row<S: Display>(&mut self, cells: &[S]) {
        let mut row: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i] - c.chars().count();
                s.push(' ');
                s.push_str(c);
                s.push_str(&" ".repeat(pad + 1));
                s.push('|');
            }
            s
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Renders a boolean as the check/cross marks used in the reports.
pub fn mark(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "-"
    }
}

/// Prints a section banner. Goes to stderr so the stdout of a report
/// binary stays pure data (tables and verdicts) and can be piped or
/// diffed.
pub fn banner(title: &str) {
    eprintln!("\n=== {title} ===");
}

/// Prints a progress/diagnostic note to stderr (same contract as
/// [`banner`]: stdout is reserved for report data).
pub fn note(msg: &str) {
    eprintln!("{msg}");
}

/// Extracts `--report <path>` from the process arguments, if present.
/// Report binaries that support it write a JSON metrics report there.
pub fn report_path_from_args() -> Option<String> {
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--report" {
            return it.next();
        }
    }
    None
}

/// Extracts `--<name> <value>` as a `u64` from the process arguments,
/// falling back to `default`. Report binaries use it for seed (and
/// size) plumbing: every randomized run's seed is CLI-settable and
/// echoed into the JSON report, so any run can be reproduced from the
/// report alone. Exits with an error on an unparsable value rather
/// than silently running a different experiment.
pub fn u64_from_args(name: &str, default: u64) -> u64 {
    let flag = format!("--{name}");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == flag {
            let v = it.next().unwrap_or_default();
            match v.parse() {
                Ok(n) => return n,
                Err(_) => {
                    eprintln!("invalid {flag} value: {v:?} (expected a u64)");
                    std::process::exit(2);
                }
            }
        }
    }
    default
}

/// The machine's available parallelism, echoed into every report so a
/// perf number can always be read against the hardware that produced
/// it.
pub fn cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Opens the uniform report header shared by every committed
/// `experiments/*.json`: the report name, the RNG seed, the core
/// count, and then the experiment's own knobs as `(name, value)`
/// pairs, in order. The writer is left inside the root object so the
/// caller appends its payload (runs array, totals) and closes it.
pub fn report_header(
    w: &mut adya_obs::json::JsonWriter,
    report: &str,
    seed: u64,
    knobs: &[(&str, u64)],
) {
    w.open_object(None);
    w.str_field("report", report);
    w.u64_field("seed", seed);
    w.u64_field("cores", cores());
    for (name, value) in knobs {
        w.u64_field(name, *value);
    }
}

/// Exit helper: prints the verdict and panics on failure so CI-style
/// invocations notice mismatches.
pub fn verdict(name: &str, ok: bool) {
    if ok {
        println!("[{name}] reproduction OK");
    } else {
        panic!("[{name}] MISMATCH with the paper's claims");
    }
}

// ----------------------------------------------------------------------
// Shared by the on/off overhead experiments (E14, E16, E17, E21)
// ----------------------------------------------------------------------

/// Timing repetitions per (size, configuration) in the overhead
/// experiments; best-of is reported. Generous because each rep is only
/// milliseconds and the best-of floor is what the comparison hinges on.
pub const OVERHEAD_REPS: usize = 15;

/// Best-of-[`OVERHEAD_REPS`] over `rep`, which runs one repetition and
/// returns its own timed nanoseconds (setup and teardown stay outside
/// the clock) plus an output; the last repetition's output is kept for
/// the experiment's parity check.
pub fn time_ingest<T>(mut rep: impl FnMut() -> (u128, T)) -> (u128, T) {
    let mut best = u128::MAX;
    let mut last = None;
    for _ in 0..OVERHEAD_REPS {
        let (ns, out) = rep();
        best = best.min(ns);
        last = Some(out);
    }
    (best, last.expect("OVERHEAD_REPS > 0"))
}

/// Relative cost of `on` over `off`, in percent.
pub fn overhead_pct(on: u128, off: u128) -> f64 {
    (on as f64 - off as f64) / off.max(1) as f64 * 100.0
}

/// The overhead experiments' workload: conflict-heavy, aborts in the
/// mix, bounded concurrency — the regime where checker hot-path costs
/// show.
pub fn overhead_history(txns: usize, seed: u64) -> adya_history::History {
    let cfg = adya_workloads::histgen::HistGenConfig {
        txns,
        objects: 8,
        ops_per_txn: 4,
        write_prob: 0.5,
        dirty_read_prob: 0.1,
        abort_prob: 0.1,
        shuffle_order_prob: 0.0,
        max_concurrent: 8,
    };
    adya_workloads::histgen::random_history(&cfg, seed)
}

// ----------------------------------------------------------------------
// Shared by the experiments that drive a real `adya-serve` (E18, E20,
// E21)
// ----------------------------------------------------------------------

/// `adya-serve` lands in the same target directory as the bench
/// binaries, so the sibling path is the default; `ADYA_SERVE_BIN`
/// overrides it for out-of-tree runs.
pub fn serve_bin() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("ADYA_SERVE_BIN") {
        return p.into();
    }
    let mut p = std::env::current_exe().expect("current_exe");
    p.pop();
    p.push("adya-serve");
    p
}

/// [`harness::spawn_server`] at the experiments' log cadence.
pub fn spawn_server(
    bin: &std::path::Path,
    data: &std::path::Path,
    listen: &str,
    extra: &[&str],
) -> (Server, String) {
    let cadence = ["--snapshot-every", "32", "--rotate-events", "64"];
    harness::spawn_server(bin, data, listen, &[&cadence[..], extra].concat())
}

/// Field `key` of the `replication` object in a fleet `/health` body.
pub fn replication_health(health: &str, key: &str) -> Option<u64> {
    adya_obs::json::parse(health)
        .ok()?
        .get("replication")?
        .u64_at(key)
}

/// A deterministic token stream for one session: interleaved begins,
/// version-correct reads, writes and commits over eight objects. The
/// seed perturbs the object choices so sessions diverge run to run
/// while staying reproducible.
pub fn session_tokens(session: u64, seed: u64, txns: u64) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut last_writer = [None::<u64>; 8];
    let obj = |i: usize| (b'a' + i as u8) as char;
    let salt = (seed ^ session.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize;
    for t in 1..=txns {
        let wobj = ((t as usize) * 7 + salt) % 8;
        let robj = ((t as usize) * 3 + salt / 8) % 8;
        tokens.push(format!("b{t}"));
        if let Some(w) = last_writer[robj] {
            tokens.push(format!("r{t}(k{}{w})", obj(robj)));
        }
        tokens.push(format!("w{t}(k{},{t})", obj(wobj)));
        tokens.push(format!("c{t}"));
        last_writer[wobj] = Some(t);
    }
    tokens
}

/// One session's outcome in a kill-and-resume experiment.
pub struct SessionRun {
    /// Session name.
    pub name: String,
    /// Event tokens sent.
    pub events: u64,
    /// Verdict lines received.
    pub verdicts: u64,
    /// Resumes (after a restart, or failing over to another endpoint).
    pub resumes: u32,
    /// Client-observed recovery latency — reconnect backoff, endpoint
    /// rotation, redirects and promotion included — summed over all
    /// resumes.
    pub resume_micros: u128,
    /// The verdict ledger matched the uninterrupted reference.
    pub stream_ok: bool,
    /// So did the final verdict.
    pub final_ok: bool,
}

impl SessionRun {
    /// Byte-identical to the reference, final verdict included.
    pub fn ok(&self) -> bool {
        self.stream_ok && self.final_ok
    }
}

/// Streams a whole session around a server kill: half the tokens, two
/// waits on `barrier` while the caller kills (and maybe replaces) the
/// server, the rest, then close. Transport errors anywhere turn into a
/// timed resume against `endpoints`.
pub fn run_session(
    endpoints: &str,
    session: u64,
    seed: u64,
    txns: u64,
    barrier: &std::sync::Barrier,
) -> SessionRun {
    use adya_workloads::{ClientError, RetryPolicy, ServeClient};
    let tokens = session_tokens(session, seed, txns);
    let name = format!("tenant-{session}");
    let mut client = ServeClient::hello(endpoints, &name).expect("hello");
    let mut resumes = 0u32;
    let mut resume_micros = 0u128;
    let policy = RetryPolicy {
        deadline_ops: Some(4_000),
        ..RetryPolicy::default()
    };
    let mut send = |client: &mut ServeClient, tok: &str| match client.send_token(tok) {
        Ok(()) => {}
        Err(ClientError::Io(_)) => {
            let t0 = std::time::Instant::now();
            client
                .resume(&policy, seed ^ session)
                .unwrap_or_else(|e| panic!("{name}: resume failed: {e}"));
            resume_micros += t0.elapsed().as_micros();
            resumes += 1;
        }
        Err(e) => panic!("{name}: protocol error on {tok:?}: {e}"),
    };

    let half = tokens.len() / 2;
    for tok in &tokens[..half] {
        send(&mut client, tok);
    }
    barrier.wait(); // everyone is mid-stream
    barrier.wait(); // the server has been killed
    for tok in &tokens[half..] {
        send(&mut client, tok);
    }

    let (want_verdicts, want_final) = reference(&tokens);
    let stream_ok = client.verdicts() == &want_verdicts[..];
    let events = client.tokens_sent() as u64;
    let verdicts = client.verdicts().len() as u64;
    let fin = client.close().expect("close");
    SessionRun {
        name,
        events,
        verdicts,
        resumes,
        resume_micros,
        stream_ok,
        final_ok: fin == want_final,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["level", "ok"]);
        t.row(&["PL-1", "yes"]);
        t.row(&["PL-2.99", "-"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(s.contains("PL-2.99"));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&["x"]);
        assert!(t.render().contains("x"));
    }

    #[test]
    fn marks() {
        assert_eq!(mark(true), "yes");
        assert_eq!(mark(false), "-");
    }

    #[test]
    fn report_header_is_uniform() {
        let mut w = adya_obs::json::JsonWriter::new();
        report_header(&mut w, "demo", 7, &[("reps", 3), ("txns", 128)]);
        w.close_object();
        let s = w.finish();
        let want = format!(
            "{{\n  \"report\": \"demo\",\n  \"seed\": 7,\n  \"cores\": {},\n  \"reps\": 3,\n  \"txns\": 128\n}}",
            cores()
        );
        assert_eq!(s, want);
        assert!(cores() >= 1);
    }
}
