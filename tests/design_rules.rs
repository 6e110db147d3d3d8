//! The design rules: one row per rule, each a pattern, the files it is
//! looked for in, and how often it may appear there. Most say that a
//! format, one of the paper's rules or a piece of the substrate has one
//! owner (DESIGN.md, "Formats and their owners"): a second copy is how
//! batch and streaming, or two servers, drift. The rest keep a deleted
//! shape from coming back.
//!
//! Every row carries a fixture, a small tree of `(path, text)` that
//! breaks it, so each rule is shown to fail as well as to hold. Where a
//! rule's symbol is gone from the code, its fixture is the line the
//! rule was written against.
//!
//! Patterns are literal. An alternative is a list of pieces that must
//! appear in this order on one line, with anything between them. A
//! rule reads the whole file, or its non-test part: the file cut at its
//! first line that starts `#[cfg(test)]`. The tree is read from
//! `CARGO_MANIFEST_DIR`, without `target/`, `.git/` and this file.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// The files a rule reads, by kind.
#[derive(Clone, Copy)]
enum Only {
    /// `.rs` files.
    Rs,
    /// Every file.
    Any,
    /// Files named `Cargo.toml`.
    CargoToml,
}

/// The lines of a file a rule reads.
#[derive(Clone, Copy)]
enum Scope {
    /// All of them.
    Whole,
    /// Those before the first line that starts `#[cfg(test)]`.
    NonTest,
    /// From each line that starts with the first string through the
    /// next line after it that starts with the second.
    Block(&'static str, &'static str),
}

/// What a rule allows.
#[derive(Clone, Copy)]
enum Limit {
    /// At most this many matching lines.
    Lines(usize),
    /// Matching lines in at most this many files.
    Files(usize),
    /// At least one matching line.
    Present,
    /// The names after `--test` on the matching lines are the stems of
    /// `tests/*_bound.rs`, no more and no fewer.
    EveryBoundTest,
}

/// One search: the lines that match one of `alts`, in the files under
/// `paths` but for those in `except`. A path is a file, a directory
/// (read all the way down; `.` is the root) or `dir/*.rs` (its `.rs`
/// files, one level).
#[derive(Clone, Copy)]
struct Grep {
    alts: &'static [&'static [&'static str]],
    paths: &'static [&'static str],
    except: &'static [&'static str],
    /// The last piece ends a word: no letter, digit or `_` follows it.
    word_end: bool,
    /// No `/` comes before the first piece (no comment holds it).
    no_slash_before: bool,
    /// Only spaces lie between the pieces.
    spaces_between: bool,
}

struct Rule {
    name: &'static str,
    why: &'static str,
    greps: &'static [Grep],
    only: Only,
    scope: Scope,
    limit: Limit,
    /// A tree that breaks the rule.
    fixture: &'static [(&'static str, &'static str)],
}

const GREP: Grep = Grep {
    alts: &[],
    paths: &[],
    except: &[],
    word_end: false,
    no_slash_before: false,
    spaces_between: false,
};

const fn grep(alts: &'static [&'static [&'static str]], paths: &'static [&'static str]) -> Grep {
    Grep {
        alts,
        paths,
        ..GREP
    }
}

/// At most one matching line in the `.rs` files.
const ONE: Rule = Rule {
    name: "",
    why: "",
    greps: &[],
    only: Only::Rs,
    scope: Scope::Whole,
    limit: Limit::Lines(1),
    fixture: &[],
};

/// At most one `.rs` file with matching lines.
const ONE_FILE: Rule = Rule {
    limit: Limit::Files(1),
    ..ONE
};

/// No matching line in any file.
const NONE: Rule = Rule {
    only: Only::Any,
    limit: Limit::Lines(0),
    ..ONE
};

const CRATES_SRC: &[&str] = &["crates", "src"];
const CRATES_SRC_TESTS: &[&str] = &["crates", "src", "tests"];
const SERVE: &[&str] = &["crates/serve/src"];
const ONLINE: &[&str] = &["crates/online/src"];
const ENGINE: &[&str] = &["crates/engine/src"];

static RULES: &[Rule] = &[
    // Formats.
    Rule {
        name: "json-escaper",
        why: "the JSON escaper is adya_obs::json::esc",
        greps: &[grep(&[&["fn esc("]], CRATES_SRC)],
        fixture: &[
            ("crates/obs/src/json.rs", "pub fn esc(s: &str) -> String {\n"),
            ("crates/serve/src/proto.rs", "fn esc(s: &str) -> String {\n"),
        ],
        ..ONE
    },
    Rule {
        name: "json-escaper-into",
        why: "the JSON escaper into a buffer is adya_obs::json::write_escaped",
        greps: &[grep(&[&["fn write_escaped("]], CRATES_SRC)],
        fixture: &[
            (
                "crates/obs/src/json.rs",
                "pub fn write_escaped(out: &mut String, s: &str) {\n",
            ),
            (
                "crates/online/src/verdict.rs",
                "fn write_escaped(out: &mut String, s: &str) {\n",
            ),
        ],
        ..ONE
    },
    Rule {
        name: "http-response-writer",
        why: "one HTTP response writer, adya_obs::http",
        greps: &[grep(&[&["\"HTTP/1.1 {}"]], CRATES_SRC)],
        fixture: &[
            (
                "crates/obs/src/http.rs",
                r#"    let head = format!("HTTP/1.1 {} {}\r\n", status, reason);"#,
            ),
            (
                "crates/serve/src/health.rs",
                r#"    write!(out, "HTTP/1.1 {} OK\r\n", code)?;"#,
            ),
        ],
        ..ONE
    },
    Rule {
        name: "version-target-lexer",
        why: "one lexer of a read's version target, for the batch and the stream notation",
        greps: &[grep(&[&["fn split_version_target"]], CRATES_SRC)],
        fixture: &[
            (
                "crates/history/src/lexer.rs",
                "pub fn split_version_target(s: &str) -> Option<(&str, &str)> {\n",
            ),
            (
                "crates/online/src/feed.rs",
                "fn split_version_target(tok: &str) -> Option<(&str, &str)> {\n",
            ),
        ],
        ..ONE
    },
    Rule {
        name: "no-lock-free-stamp-ring",
        why: "stage stamps live under the trace plane's one lock: no lock-free ring beside it",
        greps: &[grep(
            &[&["compare_exchange"], &["SeqRing"], &["StampRing"]],
            &["crates/obs/src"],
        )],
        fixture: &[(
            "crates/obs/src/ring.rs",
            "pub struct SeqRing<const W: usize> {\n",
        )],
        ..NONE
    },
    // The session directory and its log.
    Rule {
        name: "session-file-names",
        why: "session file names are built and taken apart in serve::dir alone; \
              a test spells the whole literal or asks serve::dir",
        greps: &[grep(
            &[
                &["\"seg-{"],
                &["\"seg-\""],
                &["\"snap-{"],
                &["\"snap-\""],
                &["\"names-{"],
                &["\"names-\""],
            ],
            SERVE,
        )],
        fixture: &[
            (
                "crates/serve/src/dir.rs",
                "    dir.join(format!(\"seg-{start:020}.log\"))\n",
            ),
            (
                "crates/serve/src/mirror.rs",
                "    let start = name.strip_prefix(\"seg-\")?;\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "session-file-truncation",
        why: "truncating a session file and tmp+rename belong to serve::dir",
        greps: &[grep(&[&["set_len("], &["fs::rename("]], SERVE)],
        fixture: &[
            ("crates/serve/src/dir.rs", "    file.set_len(len)?;\n"),
            ("crates/serve/src/compact.rs", "    fs::rename(&tmp, &path)?;\n"),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "one-heal-caller",
        why: "a leader's directory is repaired where recovery reads it; SessionDir::heal \
              is a follower mirror's repair, asked by ReplicaSink::inventory alone",
        greps: &[grep(&[&[".heal()"]], &["crates/serve/src/*.rs"])],
        scope: Scope::NonTest,
        fixture: &[
            ("crates/serve/src/replica.rs", "        let healed = dir.heal()?;\n"),
            (
                "crates/serve/src/log.rs",
                "        let dir = SessionDir::open(path)?\n            .heal()?\n",
            ),
        ],
        ..ONE
    },
    Rule {
        name: "session-snapshot-magics",
        why: "a session snapshot's magics are recognised in serve::log alone",
        greps: &[grep(&[&["ADYASRV"], &["SNAP_MAGIC"]], SERVE)],
        fixture: &[
            (
                "crates/serve/src/log.rs",
                "const SNAP_MAGIC: [u8; 8] = *b\"ADYASRV\\x02\";\n",
            ),
            (
                "crates/serve/src/dir.rs",
                "    if bytes.starts_with(b\"ADYASRV\") {\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "session-image-in-place",
        why: "a session snapshot is written in place, into one buffer of its exact size: \
              no image of the parser or the checker made on its own, no payload sealed beside it",
        greps: &[grep(
            &[
                &[".parser().snapshot()"],
                &[".checker().snapshot()"],
                &["wire::seal("],
            ],
            &["crates/serve/src/*.rs"],
        )],
        scope: Scope::NonTest,
        fixture: &[(
            "crates/serve/src/log.rs",
            "        for part in [feed.parser().snapshot(), feed.checker().snapshot()] {\n",
        )],
        ..NONE
    },
    Rule {
        name: "resume-reply-rendered-once",
        why: "a resume's reply is rendered once, into one buffer: no window rendered \
              line by line, no Vec<String> handed back",
        greps: &[
            Grep {
                word_end: true,
                ..grep(&[&["fn since"]], SERVE)
            },
            grep(
                &[&["fn resume(", "Vec<String>"]],
                &["crates/serve/src/session.rs"],
            ),
        ],
        fixture: &[(
            "crates/serve/src/verdict_log.rs",
            "    pub fn since(&self, have: u64, checker: &OnlineChecker) \
             -> Result<Vec<String>, ResumeError> {\n",
        )],
        ..NONE
    },
    Rule {
        name: "replication-shipping-walk",
        why: "replication ships one way, the walk over the leader's session directory",
        greps: &[grep(&[&["proto::append_frame("]], SERVE)],
        fixture: &[
            (
                "crates/serve/src/replica.rs",
                "            } => proto::append_frame(&self.session, *file, *off, bytes, self.trace),\n\
                 \x20               proto::append_frame(&session, file, start, chunk, None);\n",
            ),
        ],
        ..ONE
    },
    Rule {
        name: "socket-line-one-write",
        why: "a line goes onto a socket in one write that already ends in its newline \
              (adya_obs::write_line)",
        greps: &[grep(
            &[&["writeln!("], &["write_all(b\"\\n\")"]],
            &[
                "crates/serve/src/server.rs",
                "crates/serve/src/replica.rs",
                "crates/workloads/src/client.rs",
            ],
        )],
        scope: Scope::NonTest,
        fixture: &[(
            "crates/workloads/src/client.rs",
            "        stream.write_all(line.as_bytes())?;\n        stream.write_all(b\"\\n\")\n",
        )],
        ..NONE
    },
    Rule {
        name: "accepted-connections-nodelay",
        why: "the server's accepted connections run with Nagle off, or each verdict waits \
              out the peer's delayed ACK",
        greps: &[grep(&[&["set_nodelay(true)"]], &["crates/serve/src/server.rs"])],
        scope: Scope::Block("fn handle_conn(", "}"),
        limit: Limit::Present,
        fixture: &[(
            "crates/serve/src/server.rs",
            "fn handle_conn(stream: TcpStream, shared: Arc<Shared>) {\n    \
             stream.set_nodelay(false).ok();\n}\n\nfn other(s: &TcpStream) {\n    \
             s.set_nodelay(true).ok();\n}\n",
        )],
        ..NONE
    },
    Rule {
        name: "chrome-trace-writer",
        why: "one writer opens the traceEvents array, obs::chrome",
        greps: &[Grep {
            no_slash_before: true,
            ..grep(
                &[
                    &["open_array(", "\"traceEvents"],
                    &["push_str(", "\"traceEvents"],
                    &["write_str(", "\"traceEvents"],
                    &["write!(", "\"traceEvents"],
                    &["writeln!(", "\"traceEvents"],
                    &["format!(", "\"traceEvents"],
                ],
                CRATES_SRC,
            )
        }],
        fixture: &[
            (
                "crates/obs/src/chrome.rs",
                "    w.open_array(Some(\"traceEvents\"));\n",
            ),
            (
                "crates/online/src/trace.rs",
                "    out.push_str(\"{\\\"traceEvents\\\": [\");\n",
            ),
        ],
        ..ONE_FILE
    },
    // The streaming checker and the paper's rules.
    Rule {
        name: "gc-release-rule",
        why: "the GC's release rule is spelled once, gc::may_leave",
        greps: &[grep(&[&["passed && !held"]], ONLINE)],
        fixture: &[(
            "crates/online/src/gc.rs",
            "fn may_leave(passed: bool, held: bool) -> bool {\n    passed && !held\n}\n\
             fn check_the_rule(passed: bool, held: bool) {\n    \
             assert!(!(passed && !held));\n}\n",
        )],
        ..ONE
    },
    Rule {
        name: "direct-conflicts-derivation",
        why: "Figure 2's conflicts are derived in one place, Dsg::build; conflicts.rs holds \
              the definition and its unit tests",
        greps: &[Grep {
            except: &["crates/core/src/conflicts.rs"],
            ..grep(&[&["direct_conflicts("]], &["crates/core/src/*.rs"])
        }],
        fixture: &[
            (
                "crates/core/src/conflicts.rs",
                "pub fn direct_conflicts(h: &History) -> Vec<Conflict> {\n",
            ),
            (
                "crates/core/src/dsg.rs",
                "        let conflicts = direct_conflicts(h);\n",
            ),
            (
                "crates/core/src/phenomena.rs",
                "    for c in direct_conflicts(h) {\n",
            ),
        ],
        ..ONE
    },
    Rule {
        name: "level-admission-rule",
        why: "Figure 6's \"admitted iff no proscribed kind is present\" is \
              IsolationLevel::admits, for batch and streaming",
        greps: &[grep(
            &[&["proscribes().iter().all("]],
            &["crates/core/src", "crates/online/src"],
        )],
        fixture: &[
            (
                "crates/core/src/levels.rs",
                "        self.proscribes().iter().all(|k| !present(*k))\n",
            ),
            (
                "crates/online/src/checker.rs",
                "        level.proscribes().iter().all(|p| !self.fired.contains(p))\n",
            ),
        ],
        ..ONE
    },
    Rule {
        name: "cycle-graph-insert",
        why: "the cycle rule runs over one lane table: one site inserts into a graph",
        greps: &[grep(&[&["add_edge("]], ONLINE)],
        fixture: &[
            ("crates/online/src/lanes.rs", "        g.add_edge(from, to)\n"),
            ("crates/online/src/checker.rs", "        self.g2.add_edge(from, to);\n"),
        ],
        ..ONE
    },
    Rule {
        name: "g1a-latch",
        why: "a read is judged for G1a in one place, OnlineChecker::judge",
        greps: &[grep(&[&[".aborted_read("]], ONLINE)],
        fixture: &[(
            "crates/online/src/checker.rs",
            "            self.latch.aborted_read(reader, writer);\n\
             \x20           self.latch.aborted_read(t, w);\n",
        )],
        ..ONE
    },
    Rule {
        name: "g1b-latch",
        why: "a read is judged for G1b in one place, OnlineChecker::judge",
        greps: &[grep(&[&[".intermediate_read("]], ONLINE)],
        fixture: &[(
            "crates/online/src/checker.rs",
            "            self.latch.intermediate_read(reader, writer);\n\
             \x20           self.latch.intermediate_read(t, w);\n",
        )],
        ..ONE
    },
    Rule {
        name: "g1c-graph-shed",
        why: "G1c's graph is emptied in one place, Lanes::shed, between events while no \
              read is parked",
        greps: &[grep(&[&["replace(g, Dag::new())"]], ONLINE)],
        fixture: &[
            (
                "crates/online/src/lanes.rs",
                "            std::mem::replace(g, Dag::new());\n",
            ),
            ("crates/online/src/gc.rs", "        mem::replace(g, Dag::new())\n"),
        ],
        ..ONE
    },
    Rule {
        name: "cycle-edge-label",
        why: "a cycle edge's label is spelled once",
        greps: &[grep(&[&["\"ww/wr\""]], CRATES_SRC)],
        fixture: &[
            ("crates/online/src/lanes.rs", "    Filter::Dep => \"ww/wr\",\n"),
            ("crates/online/src/verdict.rs", "        label: \"ww/wr\",\n"),
        ],
        ..ONE
    },
    Rule {
        name: "verdict-line-writer",
        why: "a verdict line has one writer, verdict::Line::write",
        greps: &[grep(&[&["\"{\\\"txn\\\": \""]], ONLINE)],
        fixture: &[
            (
                "crates/online/src/verdict.rs",
                "        out.push_str(\"{\\\"txn\\\": \");\n",
            ),
            (
                "crates/online/src/checker.rs",
                "        let mut s = String::from(\"{\\\"txn\\\": \");\n",
            ),
        ],
        ..ONE
    },
    Rule {
        name: "checker-image-magic",
        why: "the checker image's magic is one module's business",
        greps: &[grep(&[&["SNAP_MAGIC"]], ONLINE)],
        fixture: &[
            (
                "crates/online/src/snapshot.rs",
                "const SNAP_MAGIC: [u8; 8] = *b\"ADYACKP\\x03\";\n",
            ),
            (
                "crates/online/src/image.rs",
                "    if !bytes.starts_with(&SNAP_MAGIC) {\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "forget-released-txn",
        why: "a parser forgets a released transaction's counters in one place, StreamFeed's",
        greps: &[grep(&[&[".forget_txn("]], CRATES_SRC)],
        fixture: &[
            ("crates/online/src/feed.rs", "            self.parser.forget_txn(t);\n"),
            (
                "crates/serve/src/session.rs",
                "            self.feed.parser_mut().forget_txn(t);\n",
            ),
        ],
        ..ONE
    },
    Rule {
        name: "drain-released-ids",
        why: "the released ids are drained once, by StreamFeed after the ingest that \
              released them",
        greps: &[grep(&[&[".drain_released("]], CRATES_SRC)],
        fixture: &[
            (
                "crates/online/src/feed.rs",
                "        for t in self.checker.drain_released() {\n",
            ),
            (
                "src/bin/adya-check.rs",
                "        for t in checker.drain_released() {\n",
            ),
        ],
        ..ONE
    },
    Rule {
        name: "no-stray-writes-for-parser",
        why: "the checker tells the feed which ids it released and nothing more: nothing \
              files writes made after a terminal event for a parser's sake",
        greps: &[grep(&[&["note_stray"], &["strays"]], ONLINE)],
        fixture: &[(
            "crates/online/src/gc.rs",
            "    strays: BTreeMap<TxnId, Vec<ObjectId>>,\n",
        )],
        ..NONE
    },
    Rule {
        name: "checker-off-snapshot-internals",
        why: "checker.rs does not reach into the snapshot's internals",
        greps: &[grep(&[&["SNAP_MAGIC"]], &["crates/online/src/checker.rs"])],
        fixture: &[(
            "crates/online/src/checker.rs",
            "        let image = wire::seal(&SNAP_MAGIC, &payload);\n",
        )],
        ..NONE
    },
    Rule {
        name: "provenance-no-node-index",
        why: "a pruned transaction's provenance chains are found through its edges in the \
              graphs: no map keyed by one transaction in provenance.rs",
        greps: &[Grep {
            spaces_between: true,
            ..grep(&[&["Map<TxnId", ","]], &["crates/online/src/provenance.rs"])
        }],
        fixture: &[(
            "crates/online/src/provenance.rs",
            "    prov_out: IdMap<TxnId , Vec<TxnId>>,\n",
        )],
        ..NONE
    },
    Rule {
        name: "no-g0-lane",
        why: "commit-order installs make every ww edge ascend, so the online lane table \
              has no G0 row",
        greps: &[grep(
            &[&["PhenomenonKind::G0"]],
            &["crates/online/src/lanes.rs"],
        )],
        fixture: &[(
            "crates/online/src/lanes.rs",
            "    (PhenomenonKind::G0, Filter::Write),\n",
        )],
        ..NONE
    },
    Rule {
        name: "id-maps-in-tables",
        why: "a transaction or an object is found by hash in one module, online::tables",
        greps: &[grep(
            &[&["HashMap<"], &["HashSet<"]],
            &["crates/online/src/checker.rs", "crates/online/src/gc.rs"],
        )],
        fixture: &[(
            "crates/online/src/checker.rs",
            "    pub(crate) txns: HashMap<TxnId, TxnState>,\n",
        )],
        ..NONE
    },
    Rule {
        name: "stream-stdout-sink",
        why: "--stream has one owner of stdout, which renders into a reused buffer",
        greps: &[grep(
            &[&["println!(", ".to_json()"]],
            &["src/bin/adya-check.rs"],
        )],
        fixture: &[(
            "src/bin/adya-check.rs",
            "            println!(\"{}\", v.to_json());\n",
        )],
        ..NONE
    },
    Rule {
        name: "one-way-into-checker",
        why: "one way into the checker, OnlineChecker::ingest, one event at a time: no \
              batching entry point, batch-size knob or second --stream driver",
        greps: &[grep(
            &[
                &["ingest_batch"],
                &["max_batch"],
                &["pipeline-threads"],
                &["pipeline_threads"],
            ],
            CRATES_SRC_TESTS,
        )],
        fixture: &[(
            "crates/online/src/checker.rs",
            "    pub fn ingest_batch(&mut self, events: &[Event]) -> Vec<Verdict> {\n",
        )],
        ..NONE
    },
    // The engines' shared substrate, engine::store.
    Rule {
        name: "engine-txn-status",
        why: "the transaction lifecycle lives in engine::store",
        greps: &[grep(&[&["enum TxnStatus"]], ENGINE)],
        fixture: &[
            ("crates/engine/src/store.rs", "pub enum TxnStatus {\n"),
            ("crates/engine/src/locking.rs", "enum TxnStatus {\n"),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "engine-op-prelude",
        why: "the operation prelude lives in engine::store",
        greps: &[grep(&[&["fn check_active"]], ENGINE)],
        fixture: &[
            (
                "crates/engine/src/store.rs",
                "    pub fn check_active(&self, txn: TxnId) -> Result<(), EngineError> {\n",
            ),
            (
                "crates/engine/src/occ.rs",
                "    fn check_active(&self, txn: TxnId) -> Result<(), EngineError> {\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "engine-incarnation-rule",
        why: "the incarnation rule lives in engine::store",
        greps: &[grep(&[&["let needs_new"]], ENGINE)],
        fixture: &[
            (
                "crates/engine/src/store.rs",
                "        let needs_new = row.deleted || row.is_none();\n",
            ),
            (
                "crates/engine/src/sgt.rs",
                "        let needs_new = entry.deleted;\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "engine-table-registration",
        why: "the table registration lives in engine::store",
        greps: &[grep(&[&["known_tables"]], ENGINE)],
        fixture: &[
            ("crates/engine/src/store.rs", "    known_tables: BTreeSet<TableId>,\n"),
            (
                "crates/engine/src/mvcc.rs",
                "        if inner.known_tables.insert(table) {\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "engine-incarnation-counters",
        why: "the incarnation counters live in engine::store",
        greps: &[grep(&[&["incarnations:"]], ENGINE)],
        fixture: &[
            (
                "crates/engine/src/store.rs",
                "    incarnations: HashMap<ObjectId, u32>,\n",
            ),
            (
                "crates/engine/src/locking.rs",
                "    incarnations: HashMap<ObjectId, u32>,\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "engine-version-set-builder",
        why: "the recording of a predicate read's version set lives in engine::store; \
              MVTO keeps its own timestamp-ordered chains",
        greps: &[grep(&[&["vset.push("]], ENGINE)],
        limit: Limit::Files(2),
        fixture: &[
            ("crates/engine/src/store.rs", "            vset.push((obj, v));\n"),
            ("crates/engine/src/mvto.rs", "            vset.push((obj, v));\n"),
            ("crates/engine/src/mvcc.rs", "            vset.push((obj, v));\n"),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "engine-version-order-handoff",
        why: "the version order is handed to the recorder by engine::store, and by MVTO \
              for its own chains; the recorder defines set_version_order",
        greps: &[Grep {
            except: &["crates/engine/src/recorder.rs"],
            ..grep(&[&["set_version_order("]], &["crates/engine/src/*.rs"])
        }],
        limit: Limit::Files(2),
        fixture: &[
            (
                "crates/engine/src/recorder.rs",
                "    pub fn set_version_order(&self, order: VersionOrder) {\n",
            ),
            (
                "crates/engine/src/store.rs",
                "        rec.set_version_order(self.order());\n",
            ),
            ("crates/engine/src/mvto.rs", "        rec.set_version_order(order);\n"),
            ("crates/engine/src/sgt.rs", "        rec.set_version_order(order);\n"),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "engine-substrate-in-store",
        why: "a scheme's file holds what the scheme decides, not a piece of the substrate",
        greps: &[grep(
            &[
                &["fn ensure_table"],
                &["fn buffered"],
                &["fn set_event_tap"],
            ],
            &[
                "crates/engine/src/locking.rs",
                "crates/engine/src/sgt.rs",
                "crates/engine/src/occ.rs",
                "crates/engine/src/mvcc.rs",
                "crates/engine/src/mvto.rs",
            ],
        )],
        fixture: &[(
            "crates/engine/src/mvcc.rs",
            "    fn ensure_table(&self, inner: &mut Inner, table: TableId) {\n",
        )],
        ..NONE
    },
    // Measurement.
    Rule {
        name: "overhead-comparator",
        why: "the on/off overhead sweep is adya_bench::overhead; E16/E17/E21 are its closures",
        greps: &[grep(&[&["overhead_bp"]], &["crates/bench/src"])],
        fixture: &[
            (
                "crates/bench/src/overhead.rs",
                "    pub overhead_bp: i64,\n",
            ),
            (
                "crates/bench/src/bin/telemetry_overhead.rs",
                "    let overhead_bp = (on - off) * 10_000 / off;\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "no-bench-framework",
        why: "timing belongs to the ledger (benchmark/): no crate depends on a bench framework",
        greps: &[grep(&[&["criterion"]], &["."])],
        only: Only::CargoToml,
        fixture: &[(
            "crates/bench/Cargo.toml",
            "[dev-dependencies]\ncriterion = \"0.5\"\n",
        )],
        ..NONE
    },
    // The control plane.
    Rule {
        name: "dot-header",
        why: "a DOT graph is written by adya_graph::dot's writer",
        greps: &[grep(&[&["digraph {"]], CRATES_SRC)],
        fixture: &[
            (
                "crates/graph/src/dot.rs",
                "    out.push_str(\"digraph {\\n\");\n",
            ),
            (
                "crates/forensics/src/render.rs",
                "    writeln!(out, \"digraph {{\")?;\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "dot-name-sanitiser",
        why: "a graph name is sanitised by adya_graph::dot (obs::registry's sanitize is for \
              Prometheus names)",
        greps: &[grep(
            &[&["fn sanitize("]],
            &["crates/graph", "crates/forensics", "crates/online", "src"],
        )],
        fixture: &[
            ("crates/graph/src/dot.rs", "fn sanitize(name: &str) -> String {\n"),
            (
                "crates/online/src/lanes.rs",
                "fn sanitize(name: &str) -> String {\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "accept-poll",
        why: "the accept loop is adya_obs::http::Listener's: no second loop polls every 25 ms",
        greps: &[grep(&[&["from_millis(25)"]], CRATES_SRC)],
        fixture: &[
            (
                "crates/obs/src/http.rs",
                "                    thread::sleep(Duration::from_millis(25));\n",
            ),
            (
                "crates/serve/src/accept.rs",
                "                thread::sleep(Duration::from_millis(25));\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "blocking-accept",
        why: "the accept loop sleeps in a blocking accept, woken for shutdown by a \
              connection of its own: no nonblocking listener or poll interval",
        greps: &[grep(
            &[&["set_nonblocking(true)"], &["ACCEPT_POLL"]],
            &["crates/obs/src/http.rs"],
        )],
        scope: Scope::NonTest,
        fixture: &[(
            "crates/obs/src/http.rs",
            "        listener.set_nonblocking(true)?;\n",
        )],
        ..NONE
    },
    Rule {
        name: "one-step-interpreter",
        why: "Step is interpreted by Program::exec_step: a driver's non-test code has no \
              Step::Select arm",
        greps: &[grep(
            &[&["Step::Select"]],
            &[
                "crates/workloads/src/driver.rs",
                "crates/workloads/src/concurrent.rs",
            ],
        )],
        scope: Scope::NonTest,
        fixture: &[(
            "crates/workloads/src/concurrent.rs",
            "            Step::Select { table, pred } => {\n",
        )],
        ..NONE
    },
    Rule {
        name: "sampling-in-trace-plane",
        why: "an event's sampling decision is taken by TracePlane::begin, not by a stamping \
              path, nor by a countdown in the checker monitor",
        greps: &[
            grep(
                &[&[".sample("]],
                &[
                    "src/bin/adya-check.rs",
                    "crates/serve/src/session.rs",
                    "crates/online/src/pipeline.rs",
                    "crates/online/src/monitor.rs",
                    "crates/bench/src/bin/trace_provenance.rs",
                    "crates/bench/src/bin/telemetry_overhead.rs",
                ],
            ),
            grep(&[&["sample_countdown"]], &["crates/online/src/monitor.rs"]),
        ],
        fixture: &[(
            "crates/online/src/monitor.rs",
            "    sample_countdown: AtomicU64,\n",
        )],
        ..NONE
    },
    Rule {
        name: "no-span-ring",
        why: "one sampled-event plane: the stage stamps; no span ring sampling the same \
              events beside them",
        greps: &[grep(
            &[
                &["SpanRing"],
                &["WideSpan"],
                &["wide_span"],
                &["span_records"],
                &["macro_rules! span"],
            ],
            CRATES_SRC,
        )],
        fixture: &[("crates/obs/src/lib.rs", "macro_rules! span {\n")],
        ..NONE
    },
    Rule {
        name: "counters-one-event-record",
        why: "counters are the one event record: no journal keeps a second copy",
        greps: &[grep(&[&["fn event("], &["Journal"]], &["crates/obs/src"])],
        fixture: &[("crates/obs/src/journal.rs", "pub struct Journal {\n")],
        ..NONE
    },
    Rule {
        name: "trace-plane-presence-switch",
        why: "a trace plane's presence is its only switch: no flag turns a plane its caller \
              holds into one that stamps nothing",
        greps: &[grep(&[&["set_enabled"]], &["crates/obs/src/trace.rs"])],
        fixture: &[(
            "crates/obs/src/trace.rs",
            "    pub fn set_enabled(&self, on: bool) {\n",
        )],
        ..NONE
    },
    Rule {
        name: "verdict-log-is-the-count",
        why: "a session's verdicts are one serve::VerdictLog, whose length is the count: no \
              counter or mark beside it",
        greps: &[grep(
            &[
                &["recent_base"],
                &["last_snap_verdicts"],
                &["verdicts: u64"],
            ],
            &["crates/serve/src/session.rs"],
        )],
        fixture: &[("crates/serve/src/session.rs", "    recent_base: u64,\n")],
        ..NONE
    },
    Rule {
        name: "checker-rows-at-size",
        why: "the checker's long-lived rows are at their size: a u32 version position, an \
              inline reader list, a boxed provenance spill",
        greps: &[
            grep(
                &[&["pos: usize"], &["anchored: Vec<"]],
                &["crates/online/src/checker.rs"],
            ),
            grep(&[&["Many(Vec<"]], &["crates/online/src/provenance.rs"]),
        ],
        fixture: &[(
            "crates/online/src/provenance.rs",
            "    Many(Vec<ProvStep>),\n",
        )],
        ..NONE
    },
    // The batch checker.
    Rule {
        name: "no-whole-history-scan",
        why: "per-transaction code asks the history for that transaction's events \
              (History::events_of), never scans the event sequence",
        greps: &[grep(
            &[&["events().iter()"], &["events()["]],
            &[
                "crates/core/src/conflicts.rs",
                "crates/core/src/phenomena.rs",
                "crates/core/src/usg.rs",
            ],
        )],
        scope: Scope::NonTest,
        fixture: &[(
            "crates/core/src/phenomena.rs",
            "    for e in h.events().iter().filter(|e| e.txn() == t) {\n",
        )],
        ..NONE
    },
    Rule {
        name: "no-stored-start-dependency",
        why: "a start-dependency is Ssg's time test, never a stored edge",
        greps: &[grep(
            &[&["add_edge(", "StartDep"], &["add_edge_dedup(", "StartDep"]],
            &["crates/core/src/*.rs"],
        )],
        scope: Scope::NonTest,
        fixture: &[(
            "crates/core/src/ssg.rs",
            "                    graph.add_edge_dedup(ti, tj, DepKind::StartDep);\n",
        )],
        ..NONE
    },
    Rule {
        name: "no-scc-per-dsg-search",
        why: "a full-graph SCC is the one labelling Dsg::build stores, not one per search",
        greps: &[grep(&[&["find_cycle(|_| true,"]], &["crates/core/src/dsg.rs"])],
        fixture: &[(
            "crates/core/src/dsg.rs",
            "        self.graph.find_cycle(|_| true, |k| k.is_anti_dep())\n",
        )],
        ..NONE
    },
    Rule {
        name: "one-scc-in-analysis",
        why: "the analysis pass reads the DSG's one labelling, not a labelling per \
              detector or per gauge",
        greps: &[grep(
            &[&[".sccs()"], &[".components(|"], &["label_components("]],
            &["crates/core/src/analysis.rs"],
        )],
        scope: Scope::NonTest,
        fixture: &[(
            "crates/core/src/analysis.rs",
            "    let sccs = pass.dsg.graph().sccs();\n",
        )],
        ..NONE
    },
    // One graph kernel, one hasher, one tap.
    Rule {
        name: "tarjan-labelling",
        why: "Tarjan's labelling is adya_graph::label_components",
        greps: &[grep(&[&["low["], &["lowlink["]], CRATES_SRC)],
        fixture: &[
            (
                "crates/graph/src/scc.rs",
                "            low[v] = low[v].min(low[w]);\n",
            ),
            (
                "crates/core/src/dsg.rs",
                "            lowlink[v] = lowlink[v].min(index[w]);\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "back-path-bfs",
        why: "the back-path BFS is adya_graph::BackPaths",
        greps: &[grep(
            &[&["VecDeque"]],
            &["crates/graph/src/*.rs", "crates/core/src/*.rs"],
        )],
        scope: Scope::NonTest,
        fixture: &[
            (
                "crates/graph/src/paths.rs",
                "use std::collections::VecDeque;\n",
            ),
            (
                "crates/core/src/dsg.rs",
                "        let mut queue = std::collections::VecDeque::new();\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "fxhash-multiplier",
        why: "one hasher for id-keyed maps, adya_history's IdHasher",
        greps: &[grep(&[&["0x517c_c1b7_2722_0a95"]], CRATES_SRC)],
        fixture: &[
            (
                "crates/history/src/ids.rs",
                "const SEED: u64 = 0x517c_c1b7_2722_0a95;\n",
            ),
            (
                "crates/online/src/provenance.rs",
                "        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);\n",
            ),
        ],
        ..ONE
    },
    Rule {
        name: "unsafe-code-files",
        why: "no unsafe outside the signal handler",
        greps: &[grep(&[&["unsafe"]], CRATES_SRC)],
        fixture: &[
            (
                "crates/faults/src/signal.rs",
                "    unsafe { libc::signal(sig, handler as usize) };\n",
            ),
            (
                "crates/engine/src/ring.rs",
                "unsafe impl<T: Send> Sync for EventRing<T> {}\n",
            ),
        ],
        ..ONE_FILE
    },
    Rule {
        name: "no-yield-spin-on-queue",
        why: "bounded std channels under the pipeline: no yield-spin on an event queue",
        greps: &[grep(
            &[&["yield_now"]],
            &["crates/online/src/pipeline.rs", "crates/engine/src/ring.rs"],
        )],
        scope: Scope::NonTest,
        fixture: &[(
            "crates/engine/src/ring.rs",
            "            std::thread::yield_now();\n",
        )],
        ..NONE
    },
    Rule {
        name: "one-tap-kind",
        why: "one tap kind on the recorder, and a stream that ends when its producers are \
              dropped: no second tap kind or closer handle",
        greps: &[grep(
            &[
                &["SeqEventTap"],
                &["buffering_tap"],
                &["set_seq_event_tap"],
                &["RingCloser"],
                &["PipelineCloser"],
                &["queue_depth"],
            ],
            CRATES_SRC_TESTS,
        )],
        fixture: &[(
            "crates/engine/src/recorder.rs",
            "pub type SeqEventTap = Box<dyn Fn(u64, &Event) + Send + Sync>;\n",
        )],
        ..NONE
    },
    Rule {
        name: "no-engine-attached-pipeline",
        why: "a pipeline is driven by hand (EventPipeline::manual): no engine-attached \
              pipeline or live driver that nothing runs",
        greps: &[
            grep(
                &[&["run_concurrent_live"], &["LiveConfig"]],
                CRATES_SRC_TESTS,
            ),
            grep(&[&["fn attach"]], &["crates/online/src/pipeline.rs"]),
        ],
        fixture: &[("crates/workloads/src/live.rs", "pub struct LiveConfig {\n")],
        ..NONE
    },
    Rule {
        name: "no-json-field-scanner",
        why: "frames are read with adya_obs::json::parse, not a hand-rolled field scanner",
        greps: &[grep(
            &[
                &["find(\"\\\""],
                &["find(&\"\\\""],
                &["find(format!(\"\\\""],
                &["find(&format!(\"\\\""],
                &["format!(\"\\\"{key}\\\": "],
            ],
            CRATES_SRC,
        )],
        only: Only::Rs,
        fixture: &[(
            "crates/serve/src/proto.rs",
            "    let at = line.find(&format!(\"\\\"{key}\\\": \"))?;\n",
        )],
        ..NONE
    },
    // CI.
    Rule {
        name: "work-bound-list",
        why: "every tests/*_bound.rs runs alone in its process, in release, in CI's \
              \"Work bounds (release)\" step, and that step runs nothing else",
        greps: &[grep(&[&["--test "]], &[".github/workflows/ci.yml"])],
        scope: Scope::Block("      - name: Work bounds (release)", "      - name:"),
        limit: Limit::EveryBoundTest,
        fixture: &[
            (
                ".github/workflows/ci.yml",
                "      - name: Work bounds (release)\n        \
                 run: cargo test --release -q --test gone_bound --test kept_bound\n      \
                 - name: Test (workspace)\n        run: cargo test --test new_bound\n",
            ),
            ("tests/kept_bound.rs", ""),
            ("tests/new_bound.rs", ""),
        ],
        ..NONE
    },
];

/// Files by path from the root, `/`-separated.
type Tree = BTreeMap<String, String>;

/// This file: it spells every pattern.
const SELF: &str = "tests/design_rules.rs";

fn read_tree(root: &Path) -> Tree {
    let mut tree = Tree::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("read a directory of the tree") {
            let entry = entry.expect("a directory entry");
            let path = entry.path();
            let kind = entry.file_type().expect("a file type");
            let rel = path.strip_prefix(root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            if kind.is_dir() {
                if !matches!(entry.file_name().to_str(), Some("target" | ".git")) {
                    dirs.push(path);
                }
            } else if kind.is_file() && rel != SELF {
                // A file no rule reads is kept by name only.
                let text = if RULES.iter().any(|r| r.reads(&rel)) {
                    String::from_utf8_lossy(&fs::read(&path).expect("read a file")).into_owned()
                } else {
                    String::new()
                };
                tree.insert(rel, text);
            }
        }
    }
    tree
}

/// Whether `path` is `p`, under `p`, or one of `dir/*.rs`.
fn under(path: &str, p: &str) -> bool {
    if let Some(dir) = p.strip_suffix("/*.rs") {
        return path
            .strip_prefix(dir)
            .and_then(|rest| rest.strip_prefix('/'))
            .is_some_and(|name| !name.contains('/') && name.ends_with(".rs"));
    }
    p == "."
        || path == p
        || path
            .strip_prefix(p)
            .is_some_and(|rest| rest.starts_with('/'))
}

/// Every start of `piece` in `hay` at or after `from`, overlaps
/// included.
fn starts<'a>(hay: &'a str, piece: &'a str, from: usize) -> impl Iterator<Item = usize> + 'a {
    let mut at = from;
    std::iter::from_fn(move || {
        let found = at + hay.get(at..)?.find(piece)?;
        at = found + hay[found..].chars().next().map_or(1, char::len_utf8);
        Some(found)
    })
}

impl Grep {
    fn reads(&self, path: &str, only: Only) -> bool {
        let kind = match only {
            Only::Rs => path.ends_with(".rs"),
            Only::Any => true,
            Only::CargoToml => path.rsplit('/').next() == Some("Cargo.toml"),
        };
        kind && !self.except.contains(&path) && self.paths.iter().any(|p| under(path, p))
    }

    fn matches(&self, line: &str) -> bool {
        self.alts
            .iter()
            .any(|pieces| self.fits(line, 0, pieces, true))
    }

    /// Whether `pieces` appear in order in `line` from `from`.
    fn fits(&self, line: &str, from: usize, pieces: &[&str], first: bool) -> bool {
        let Some((piece, rest)) = pieces.split_first() else {
            return !self.word_end
                || !line[from..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
        };
        starts(line, piece, from).any(|at| {
            let gap_ok = if first {
                !(self.no_slash_before && line[..at].contains('/'))
            } else {
                !self.spaces_between || line[from..at].bytes().all(|b| b == b' ')
            };
            gap_ok && self.fits(line, at + piece.len(), rest, false)
        })
    }
}

/// A matching line: its file, its number and its text.
type Hit<'t> = (&'t str, usize, &'t str);

impl Rule {
    fn reads(&self, path: &str) -> bool {
        self.greps.iter().any(|g| g.reads(path, self.only))
    }

    /// The lines of `text` this rule reads, numbered from 1.
    fn lines<'t>(&self, text: &'t str) -> Vec<(usize, &'t str)> {
        let mut inside = false;
        let numbered = text.split('\n').enumerate().map(|(i, l)| (i + 1, l));
        match self.scope {
            Scope::Whole => numbered.collect(),
            Scope::NonTest => numbered
                .take_while(|(_, l)| !l.starts_with("#[cfg(test)]"))
                .collect(),
            Scope::Block(start, end) => numbered
                .filter(|(_, l)| {
                    let keep = inside || l.starts_with(start);
                    inside = if inside { !l.starts_with(end) } else { keep };
                    keep
                })
                .collect(),
        }
    }

    fn hits<'t>(&self, tree: &'t Tree) -> Vec<Hit<'t>> {
        let mut hits = Vec::new();
        for g in self.greps {
            for (path, text) in tree {
                if !g.reads(path, self.only) || !g.alts.iter().any(|a| text.contains(a[0])) {
                    continue;
                }
                for (n, line) in self.lines(text) {
                    if g.matches(line) {
                        hits.push((path.as_str(), n, line));
                    }
                }
            }
        }
        hits
    }

    /// `Err` with what breaks the rule in `tree`.
    fn check(&self, tree: &Tree) -> Result<(), String> {
        let hits = self.hits(tree);
        let shown = || -> String {
            hits.iter()
                .map(|(path, n, line)| format!("\n    {path}:{n}: {line}"))
                .collect()
        };
        let broken = match self.limit {
            Limit::Lines(max) if hits.len() > max => {
                format!("{} lines, at most {max} allowed:{}", hits.len(), shown())
            }
            Limit::Files(max) => {
                let files: BTreeSet<_> = hits.iter().map(|h| h.0).collect();
                if files.len() <= max {
                    return Ok(());
                }
                format!("{} files, at most {max} allowed:{}", files.len(), shown())
            }
            Limit::Present if hits.is_empty() => "no line has it".to_string(),
            Limit::EveryBoundTest => {
                let listed: BTreeSet<&str> = hits
                    .iter()
                    .flat_map(|(_, _, line)| {
                        let words: Vec<&str> = line.split_whitespace().collect();
                        let names = words.windows(2).filter(|w| w[0] == "--test");
                        names.map(|w| w[1]).collect::<Vec<_>>()
                    })
                    .collect();
                let files: BTreeSet<&str> = tree
                    .keys()
                    .filter_map(|p| p.strip_prefix("tests/")?.strip_suffix(".rs"))
                    .filter(|stem| !stem.contains('/') && stem.ends_with("_bound"))
                    .collect();
                if listed == files {
                    return Ok(());
                }
                format!(
                    "listed but no file: {:?}; a file but not listed: {:?}",
                    listed.difference(&files).collect::<Vec<_>>(),
                    files.difference(&listed).collect::<Vec<_>>()
                )
            }
            _ => return Ok(()),
        };
        Err(format!("{}: {}\n  {broken}", self.name, self.why))
    }
}

fn fixture_tree(rule: &Rule) -> Tree {
    (rule.fixture.iter())
        .map(|&(path, text)| (path.to_string(), text.to_string()))
        .collect()
}

#[test]
fn the_tree_keeps_every_rule() {
    let tree = read_tree(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(
        tree.contains_key("crates/core/src/dsg.rs"),
        "not the repository's root"
    );
    let broken: Vec<String> = RULES.iter().filter_map(|r| r.check(&tree).err()).collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn every_rule_trips_on_its_fixture() {
    let mut names = BTreeSet::new();
    for rule in RULES {
        assert!(names.insert(rule.name), "two rules named {}", rule.name);
        assert!(
            rule.fixture.iter().any(|(path, _)| rule.reads(path)),
            "{}: no fixture file is one the rule reads",
            rule.name
        );
        assert!(
            rule.check(&fixture_tree(rule)).is_err(),
            "{}: its fixture keeps the rule",
            rule.name
        );
    }
}

#[test]
fn the_work_bound_list_is_checked_both_ways() {
    let rule = RULES.iter().find(|r| r.name == "work-bound-list").unwrap();
    let ci = |tests: &str| {
        format!("      - name: Work bounds (release)\n        run: cargo test {tests}\n")
    };
    let tree = |tests: &str, files: &[&str]| -> Tree {
        let mut t = Tree::from([(".github/workflows/ci.yml".to_string(), ci(tests))]);
        t.extend(
            files
                .iter()
                .map(|f| (format!("tests/{f}.rs"), String::new())),
        );
        t
    };
    let both = ["a_bound", "b_bound"];
    assert!(rule
        .check(&tree("--test a_bound --test b_bound", &both))
        .is_ok());
    assert!(rule.check(&tree("--test a_bound", &both)).is_err());
    assert!(rule
        .check(&tree("--test a_bound --test b_bound --test c_bound", &both))
        .is_err());
}
