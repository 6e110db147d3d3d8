//! End-to-end tests of the `adya-check` CLI.

use std::io::Write as _;
use std::process::{Command, Stdio};

mod common;

fn run(args: &[&str], stdin: &str) -> (String, String, Option<i32>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_adya-check"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn adya-check");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn analyzes_clean_history() {
    let (stdout, _, code) = run(&[], "w1(x,1) c1 r2(x1) c2");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("phenomena: none"), "{stdout}");
    assert!(stdout.contains("PL-3: ok"));
}

#[test]
fn level_gate_fails_on_violation() {
    let h = "r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(y1,9) c2";
    let (stdout, _, code) = run(&["--level", "PL-3"], h);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("PL-3: VIOLATED"));
    // …but the same history passes PL-2.
    let (stdout, _, code) = run(&["--level", "PL-2"], h);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("PL-2: SATISFIED"));
}

#[test]
fn dot_output_and_comments() {
    let input = "# a comment line\nw1(x,1) c1\n# another\nr2(x1) c2\n";
    let (stdout, _, code) = run(&["--dot"], input);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("digraph history"));
    assert!(stdout.contains("T1") && stdout.contains("T2"));
}

#[test]
fn predicate_histories_parse() {
    let input = "#pred(POS,1,100) w0(x,10) c0 rp1(POS: x0) w2(z,10) c2 c1";
    let (stdout, _, code) = run(&["--dot"], input);
    assert_eq!(code, Some(0), "{stdout}");
    // The phantom insert creates a predicate anti-dependency edge
    // (visible in the DOT), but no cycle: the history stays PL-3.
    assert!(stdout.contains("rw(pred)"), "{stdout}");
    assert!(stdout.contains("PL-3: ok"), "{stdout}");
}

#[test]
fn invalid_history_reports_cleanly() {
    let (_, stderr, code) = run(&[], "r2(x1) c2");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("invalid history"), "{stderr}");
}

#[test]
fn uncommitted_transactions_are_completed() {
    // T2 left open: the completion rule appends an abort, and the
    // analysis proceeds.
    let (stdout, _, code) = run(&[], "w1(x,1) c1 r2(x1)");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("(1 committed)"), "{stdout}");
}

#[test]
fn json_output_is_parseable_shape() {
    let h = "r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(y1,9) c2";
    let (stdout, _, code) = run(&["--json"], h);
    assert_eq!(code, Some(0));
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.trim_end().ends_with('}'));
    assert!(stdout.contains("\"strongest_ansi\": \"PL-2\""), "{stdout}");
    assert!(stdout.contains("\"PL-3\": false"));
    assert!(stdout.contains("\"kind\": \"G2\""));
    // Balanced quotes (even count) — a cheap well-formedness check.
    assert_eq!(stdout.matches('"').count() % 2, 0);
}

#[test]
fn metrics_json_has_phase_timings_and_graph_stats() {
    let (stdout, _, code) = run(&["--metrics", "--json"], "w1(x,1) c1 r2(x1) c2");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"metrics\": {"), "{stdout}");
    // Checker phase timing histograms, all with one nonzero sample.
    for phase in ["dsg_build", "detect_all", "classify", "mixing", "total"] {
        let key = format!("\"checker.phase.{phase}_ns\": {{");
        assert!(stdout.contains(&key), "missing {key} in:\n{stdout}");
    }
    assert!(stdout.contains("\"count\": 1"), "{stdout}");
    // The total phase covers the others, so its sum must be nonzero.
    let total = stdout
        .split("\"checker.phase.total_ns\": {")
        .nth(1)
        .and_then(|rest| rest.split("\"sum\": ").nth(1))
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse::<u64>().ok())
        .expect("total_ns sum present");
    assert!(total > 0, "phase timing recorded:\n{stdout}");
    // Graph-shape stats for this two-transaction history.
    assert!(stdout.contains("\"checker.dsg.nodes\": 2"), "{stdout}");
    assert!(stdout.contains("\"checker.dsg.edges\": 1"), "{stdout}");
    assert!(stdout.contains("\"checker.dsg.sccs\": 2"), "{stdout}");
    assert!(
        stdout.contains("\"checker.history.committed\": 2"),
        "{stdout}"
    );
    assert!(stdout.contains("\"checker.analyses\": 1"), "{stdout}");
    // Still one well-formed JSON object.
    assert!(stdout.trim_start().starts_with('{'));
    assert!(stdout.trim_end().ends_with('}'));
    assert_eq!(stdout.matches('{').count(), stdout.matches('}').count());
}

#[test]
fn metrics_text_block() {
    let (stdout, _, code) = run(&["--metrics"], "w1(x,1) c1 r2(x1) c2");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("metrics:"), "{stdout}");
    assert!(stdout.contains("checker.dsg.nodes = 2"), "{stdout}");
    assert!(
        stdout.contains("checker.phase.total_ns: count=1"),
        "{stdout}"
    );
}

#[test]
fn json_with_level_gate() {
    let (stdout, _, code) = run(&["--json", "--level", "PL-3"], "w1(x,1) c1");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"PL-3\": true"));
    let (_, _, code) = run(
        &["--json", "--level", "PL-1"],
        "w1(x,2) w2(x,5) w2(y,5) c2 w1(y,8) c1 [x1 << x2, y2 << y1]",
    );
    assert_eq!(code, Some(1));
}

#[test]
fn unknown_flag_and_bad_level() {
    let (_, stderr, code) = run(&["--bogus"], "");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown flag"));
    let (_, stderr, code) = run(&["--level", "PL-9"], "");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown level"));
}

#[test]
fn paper_history_reports_match_their_goldens() {
    // Every named history of the paper, in CLI notation, with the text
    // and `--json` reports the checker printed for it before the
    // analysis became one pass. A refactoring of the checker leaves
    // these bytes alone; a deliberate change of the report regenerates
    // them with `REGEN_GOLDEN=1 cargo test --test cli`.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/paper");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("tests/data/paper") {
        let hist = entry.expect("dir entry").path();
        if hist.extension().is_none_or(|e| e != "hist") {
            continue;
        }
        seen += 1;
        let input = std::fs::read_to_string(&hist).expect("read history");
        for (flags, suffix) in [(&[][..], "report.golden"), (&["--json"][..], "json.golden")] {
            let (stdout, stderr, code) = run(flags, &input);
            assert_eq!(code, Some(0), "{}: {stderr}", hist.display());
            let golden = hist.with_extension(suffix);
            if std::env::var_os("REGEN_GOLDEN").is_some() {
                std::fs::write(&golden, &stdout).expect("write golden");
                continue;
            }
            let want = std::fs::read_to_string(&golden).expect("read golden");
            assert_eq!(stdout, want, "{} drifted", golden.display());
        }
    }
    assert_eq!(seen, 11, "one history per entry of core::paper::all()");
}

#[test]
fn stream_verdicts_match_their_goldens() {
    // `--stream --dot` over each committed stream: the NDJSON verdict
    // lines on stdout (provenance is on, so cycles and their `via`
    // chains are in them) and the cycle-scoped DOTs on stderr, as the
    // binary printed them before the streaming checker was taken apart
    // into modules. Regenerate with `REGEN_GOLDEN=1 cargo test --test cli`.
    for name in common::STREAM_FIXTURES {
        let input = common::stream_fixture(name);
        let (stdout, stderr, code) = run(&["--stream", "--dot"], &input);
        assert_eq!(code, Some(0), "{name}: {stderr}");
        common::check_stream_golden(&format!("{name}.verdicts.golden"), &stdout);
        common::check_stream_golden(&format!("{name}.dot.golden"), &stderr);
    }
}

#[test]
fn a_stream_that_reuses_ids_under_2pl_is_pl3() {
    // `reused_ids` comes from a strict-2PL generator, so every prefix is
    // serializable; its sixteen ids only come round again. Each holder
    // of an id numbers its writes from 1 — the parser forgets a pruned
    // transaction's counters — so no verdict sees an intermediate read.
    let (stdout, stderr, code) = run(&["--stream"], &common::stream_fixture("reused_ids"));
    assert_eq!(code, Some(0), "{stderr}");
    let last = stdout.lines().last().expect("a final verdict");
    assert!(last.contains("\"final\": true"), "{last}");
    for line in stdout.lines() {
        assert!(common::is_clean_verdict(line), "{line}");
    }
}

#[test]
fn a_stream_refuses_an_event_of_tinit_as_batch_does() {
    // T_init installs the initial versions (§4.1); no event may name it.
    // Mid-stream, the refusal is a hard error after what came before.
    let input = "b1 w1(x,1) c1\nb4294967295 w4294967295(x,1) c4294967295\nb2 r2(x1) c2\n";
    let (stdout, stderr, code) = run(&["--stream"], input);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(
        stderr.contains("line 2: \"b4294967295\": Tinit may not appear as an explicit event"),
        "{stderr}"
    );
    assert_eq!(stdout.lines().count(), 1, "T1's verdict only: {stdout}");
    assert!(stdout.contains("\"txn\": 1"), "{stdout}");
    // Batch refuses the same history with the same words.
    let (_, stderr, code) = run(&[], input);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("Tinit may not appear as an explicit event"),
        "{stderr}"
    );
}

/// Reads one line from `from` on a helper thread, so a program that
/// never writes it fails the test after `secs` instead of hanging it.
fn read_line_within<R: std::io::BufRead + Send + 'static>(mut from: R, secs: u64) -> (R, String) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = from.read_line(&mut line);
        let _ = tx.send((from, line));
    });
    rx.recv_timeout(std::time::Duration::from_secs(secs))
        .expect("a verdict line within the timeout")
}

#[test]
fn stream_refuses_a_last_token_for_what_it_means_not_as_a_torn_tail() {
    // Complete tokens the streaming parser refuses — an explicit version
    // order, a predicate read, an event of Tinit — are damage even as
    // the input's last token: exit 2, no `truncated_input`.
    for last in ["[x1]", "rp1(P:x1)", "c4294967295"] {
        let (out, err, code) = run(&["--stream"], &format!("b1 w1(x,1) c1 {last}\n"));
        assert_eq!(code, Some(2), "{last}: {out}{err}");
        assert!(!out.contains("truncated_input"), "{last}: {out}");
        assert!(err.contains(last), "{last}: {err}");
    }
}

#[test]
fn stream_calls_a_cut_off_last_token_a_torn_tail() {
    let (out, _, code) = run(&["--stream"], "b1 w1(x,1) c1 b2 w2(x,");
    assert_eq!(code, Some(3), "{out}");
    assert!(out.contains("\"error\": \"truncated_input\""), "{out}");
    assert!(out.contains("\"final\": true"), "{out}");
}

#[test]
fn stream_flushes_verdicts_before_waiting_for_input() {
    // A live pipe: each verdict must be readable while stdin is still
    // open and the checker is blocked reading it — the sink's "flush
    // before every wait" rule. Without it the line would sit in the
    // buffer until EOF and the read below would time out.
    let mut child = Command::new(env!("CARGO_BIN_EXE_adya-check"))
        .arg("--stream")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn adya-check");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    for (tokens, txn) in [("b1 w1(x,1) c1\n", 1), ("b2 r2(x1) c2\n", 2)] {
        stdin.write_all(tokens.as_bytes()).expect("write stdin");
        stdin.flush().expect("flush stdin");
        let (back, line) = read_line_within(stdout, 5);
        stdout = back;
        assert!(
            line.starts_with(&format!("{{\"txn\": {txn}, \"final\": false")),
            "{line:?}"
        );
    }
    drop(stdin); // EOF: the final verdict, then exit
    let (_, line) = read_line_within(stdout, 5);
    assert!(
        line.starts_with("{\"txn\": null, \"final\": true"),
        "{line:?}"
    );
    assert_eq!(child.wait().expect("wait").code(), Some(0));
}

#[test]
fn stream_ends_quietly_when_its_reader_goes_away() {
    // `adya-check --stream big.events | head -1`: far more verdicts than
    // a pipe and the sink's buffer hold, and a reader that takes one
    // line and leaves. That is the reader's business, not an error —
    // exit 0, nothing on stderr (it used to be a `println!` panic with
    // a backtrace, exit 101).
    let dir = common::data_dir("cli-broken-pipe");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("big.events");
    let mut text = String::new();
    for t in 1..=20_000 {
        text.push_str(&format!("b{t} w{t}(x,{t}) c{t}\n"));
    }
    std::fs::write(&path, text).expect("write input");
    let mut child = Command::new(env!("CARGO_BIN_EXE_adya-check"))
        .arg("--stream")
        .arg(&path)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn adya-check");
    let stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let (stdout, line) = read_line_within(stdout, 5);
    assert!(line.starts_with("{\"txn\": 1, "), "{line:?}");
    drop(stdout); // the pipe closes with most of the verdicts unwritten
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr, "", "nothing to report");
    assert_eq!(out.status.code(), Some(0));
}

/// Runs `adya-check --stream --trace-out <dir>/t` over `input` and
/// returns the files it left in `dir`, sorted by name, with their text.
fn stream_trace_files(dir: &str, input: &str) -> Vec<(String, String)> {
    let dir = common::data_dir(dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("input.events");
    std::fs::write(&path, input).expect("write input");
    let base = dir.join("t");
    let (_, stderr, code) = run(
        &[
            "--stream",
            "--trace-out",
            base.to_str().expect("utf-8 path"),
            path.to_str().expect("utf-8 path"),
        ],
        "",
    );
    assert_eq!(code, Some(0), "{stderr}");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p != &path)
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read_to_string(&p).expect("read trace file"))
        })
        .collect();
    files.sort();
    files
}

/// A trace file is a Chrome trace of stage slices that also carries
/// its segment for `trace-merge`.
fn assert_stage_trace(name: &str, doc: &str, slices: &[&str]) {
    assert!(adya_obs::json::parse(doc).is_ok(), "{name}: {doc}");
    assert!(doc.contains("\"traceEvents\""), "{name}: {doc}");
    for slice in slices {
        let named = format!("\"name\": \"{slice}\"");
        assert!(
            doc.lines()
                .any(|l| l.contains("\"ph\": \"X\"") && l.contains(&named)),
            "{name} has no X slice {slice}: {doc}"
        );
    }
    let seg = adya_obs::parse_segment(doc).expect("the segment is embedded");
    assert!(!seg.stamps.is_empty(), "{name}");
}

#[test]
fn stream_trace_out_writes_stage_slices_even_for_one_commit() {
    // Event 0 is sampled, so even a one-commit stream has stamps: b1's
    // tap, ring, seq and apply.
    let files = stream_trace_files("cli-trace-out-one", "b1 w1(x,1) c1\n");
    let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["t.0"]);
    assert_stage_trace(
        "t.0",
        &files[0].1,
        &["tap->ring", "ring->seq", "seq->apply"],
    );
}

#[test]
fn stream_trace_out_keeps_four_rotating_segments() {
    // 36 000 events: four rotations at 8 192-event boundaries plus the
    // final one, so the fifth segment overwrites `t.0`. Three events a
    // transaction make every third sampled event (seq 32k) a commit,
    // so every segment has verdict stamps.
    let mut input = String::new();
    for t in 1..=12_000 {
        input.push_str(&format!("b{t} w{t}(x,{t}) c{t}\n"));
    }
    let files = stream_trace_files("cli-trace-out-ring", &input);
    let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["t.0", "t.1", "t.2", "t.3"]);
    for (name, doc) in &files {
        let slices = ["tap->ring", "ring->seq", "seq->apply", "apply->verdict"];
        assert_stage_trace(name, doc, &slices);
    }
}
