//! End-to-end tests of `adya-check --stream` crash recovery: binary
//! event logs are auto-detected, torn tails are reported as structured
//! `truncated_input` records with exit code 3 (the intact prefix still
//! gets its verdict), and mid-file damage stays a hard error.

use std::path::PathBuf;
use std::process::Command;

use adya::history::Event;
use adya::online::{encode_log, OnlineChecker, StreamFeed};

const HIST: &str = "b1 w1(x,1) c1 b2 r2(x1) w2(y,2) c2 b3 r3(y2) w3(x,3) c3";

fn events() -> Vec<Event> {
    let mut feed = StreamFeed::new(OnlineChecker::new());
    HIST.split_whitespace()
        .map(|t| {
            let ev = feed.parse(t).expect("fixture history parses");
            feed.ingest(&ev);
            ev
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs `adya-check --stream` on `input` written to a scratch file;
/// returns (stdout, stderr, exit code).
fn run_stream(name: &str, input: &[u8]) -> (String, String, i32) {
    let path = tmp(name);
    std::fs::write(&path, input).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_adya-check"))
        .arg("--stream")
        .arg(&path)
        .output()
        .expect("adya-check runs");
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn binary_log_is_detected_and_matches_text_verdicts() {
    let (text_out, _, text_code) = run_stream("sr_text.txt", HIST.as_bytes());
    let (bin_out, _, bin_code) = run_stream("sr_bin.log", &encode_log(&events()));
    assert_eq!(text_code, 0);
    assert_eq!(bin_code, 0);
    assert_eq!(
        text_out, bin_out,
        "binary log must yield the identical verdict stream"
    );
    assert!(text_out.contains("\"final\": true"));
}

#[test]
fn torn_binary_tail_reports_truncated_input_and_exits_3() {
    let full = encode_log(&events());
    let torn = &full[..full.len() - 3];
    let (out, _, code) = run_stream("sr_torn.log", torn);
    assert_eq!(code, 3, "torn tail must use the distinct exit code");
    assert!(
        out.contains("\"error\": \"truncated_input\""),
        "stdout: {out}"
    );
    assert!(
        out.contains("\"final\": true"),
        "the intact prefix still gets its final verdict: {out}"
    );
}

#[test]
fn corrupt_mid_log_is_a_hard_error() {
    let mut bytes = encode_log(&events());
    // Damage the payload of the first record (well before the tail).
    bytes[17] ^= 0x40;
    let (out, err, code) = run_stream("sr_corrupt.log", &bytes);
    assert_eq!(code, 2, "mid-file damage is corruption, not truncation");
    assert!(!out.contains("truncated_input"));
    assert!(err.contains("corrupt"), "stderr: {err}");
}

#[test]
fn torn_text_tail_reports_truncated_input_and_exits_3() {
    // The history cut mid-token, as a killed writer would leave it.
    let torn = "b1 w1(x,1) c1 b2 r2(x";
    let (out, _, code) = run_stream("sr_torn.txt", torn.as_bytes());
    assert_eq!(code, 3);
    assert!(
        out.contains("\"error\": \"truncated_input\""),
        "stdout: {out}"
    );
    assert!(out.contains("\"final\": true"));
}

#[test]
fn garbage_before_more_input_is_a_hard_error() {
    let (_, err, code) = run_stream("sr_garbage.txt", b"b1 w1(x,1) zzz c1\n");
    assert_eq!(code, 2, "damage followed by more input is not a torn tail");
    assert!(err.contains("zzz"), "stderr: {err}");
}

/// A binary log's object ids are whatever its writer chose: the largest
/// there is, beside a small one, gets the verdicts it always got — the
/// same bytes as the build whose object table was a hash map — and its
/// witness names it.
#[test]
fn a_binary_log_naming_the_largest_object_id_gets_its_verdicts() {
    use adya::history::{ObjectId, ReadEvent, TxnId, VersionId, VersionKind, WriteEvent};
    const BIG: ObjectId = ObjectId(u32::MAX - 1);
    let w = |txn, object, seq| {
        Event::Write(WriteEvent {
            txn: TxnId(txn),
            object,
            seq,
            kind: VersionKind::Visible,
            value: None,
        })
    };
    let r = |txn, object, writer, seq| {
        Event::Read(ReadEvent {
            txn: TxnId(txn),
            object,
            version: VersionId::new(TxnId(writer), seq),
            through_cursor: false,
        })
    };
    let events = [
        Event::Begin(TxnId(1)),
        w(1, BIG, 1),
        w(1, ObjectId(0), 1),
        w(1, BIG, 2),
        Event::Commit(TxnId(1)),
        Event::Begin(TxnId(2)),
        r(2, BIG, 1, 1),
        r(2, ObjectId(0), 1, 1),
        w(2, BIG, 1),
        Event::Commit(TxnId(2)),
    ];
    let (out, err, code) = run_stream("sr_big_ids.log", &encode_log(&events));
    assert_eq!((code, err.as_str()), (0, ""));
    assert_eq!(out, BIG_IDS_VERDICTS);
}

const BIG_IDS_VERDICTS: &str = concat!(
    "{\"txn\": 1, \"final\": false, \"committed\": 1, \"strongest_ansi\": \"PL-3\", \"fired\": [], \"new\": [], \"witness\": null, \"witness_id\": null, \"cycle\": null, \"pruned\": 0, \"stale_refs\": 0, \"live_txns\": 1}\n",
    "{\"txn\": 2, \"final\": false, \"committed\": 2, \"strongest_ansi\": \"PL-1\", \"fired\": [\"G1b\"], \"new\": [\"G1b\"], \"witness\": \"T2 read intermediate version obj4294967294[1] of T1 (final seq 2)\", \"witness_id\": \"wcf71fb87\", \"cycle\": null, \"pruned\": 0, \"stale_refs\": 0, \"live_txns\": 2}\n",
    "{\"txn\": null, \"final\": true, \"committed\": 2, \"strongest_ansi\": \"PL-1\", \"fired\": [\"G1b\"], \"new\": [], \"witness\": null, \"witness_id\": null, \"cycle\": null, \"pruned\": 1, \"stale_refs\": 0, \"live_txns\": 1}\n",
);
