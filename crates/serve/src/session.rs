//! One checker session: a [`StreamFeed`] (parser + checker) bound to a
//! [`SessionLog`], with the durability ordering that makes resumed
//! verdict streams byte-identical.
//!
//! The invariant: *an event is durable before its effects are
//! observable.* `apply_line` checks every token of a line first (the
//! check needs no parser state, so a bad token poisons nothing), then
//! per token: parse, persist any newly interned name, append the event
//! to the log, consult the tap crash plane, ingest, emit. A token is
//! parsed only after the one before it was ingested, so a transaction
//! pruned mid-line is forgotten before the next token is numbered. A
//! kill anywhere leaves the log a prefix of the applied stream, and
//! recovery replays exactly the suffix the client never saw.
//!
//! The session's verdicts are one [`VerdictLog`]: its count, and the
//! replay window a resuming client gets its missing tail from. The
//! window holds each verdict as its 40-byte [`VerdictFact`], not its
//! line; [`Session::resume`] renders the missing lines through the
//! session's checker, byte for byte the ones `apply_line` returned,
//! into one reply behind its ack.
//!
//! [`VerdictFact`]: adya_online::VerdictFact

use std::path::Path;
use std::sync::Arc;

use adya_faults::TapCrashPlane;
use adya_history::ObjectId;
use adya_obs::{labeled, trace::Stage, Counter, Gauge, TracePlane, Traced};
use adya_online::{check_token, GcConfig, OnlineChecker, StreamFeed};

use crate::log::{LogConfig, RecoverError, SessionLog};
use crate::proto;
use crate::replica::LogPublisher;
use crate::verdict_log::{Replay, VerdictLog};

/// Checker + durability configuration shared by every session of a
/// server.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionConfig {
    /// Rotation/snapshot cadence.
    pub log: LogConfig,
    /// Watermark GC policy for each session's checker.
    pub gc: GcConfig,
    /// Track cycle provenance in verdicts.
    pub provenance: bool,
}

/// Why a line could not be applied.
#[derive(Debug)]
pub enum ApplyError {
    /// A token failed to parse; nothing from the line was applied.
    Parse(String),
    /// The session is closed; its final verdict line is attached.
    Closed(String),
    /// Durability failure — the session can no longer promise
    /// recovery, so the connection must drop.
    Io(std::io::Error),
}

/// Why a resume was refused.
#[derive(Debug)]
pub enum ResumeError {
    /// Closed session; the final verdict line is attached.
    Closed(String),
    /// The client claims fewer verdicts than the replay window holds:
    /// it missed more than one snapshot interval of output.
    Unrecoverable {
        /// Oldest replayable verdict index.
        base: u64,
    },
    /// The client claims more verdicts than are durable.
    Ahead {
        /// Total durable verdicts.
        durable: u64,
    },
}

/// A live (attached or parked) checker session.
pub struct Session {
    name: String,
    feed: StreamFeed,
    log: SessionLog,
    /// Every commit verdict of the session's life, and the lines a
    /// resuming client can still be re-sent.
    verdicts: VerdictLog,
    /// Final verdict line once closed.
    closed: Option<String>,
    /// Notice of recovery's repair of the open segment, reported once
    /// on the next resume.
    pub truncated: Option<String>,
    /// Per-verdict latency provenance: sampled events (by dense
    /// durable record number) are stamped through every stage of
    /// `apply_line`, and their ids ride the replication frames. Set
    /// via [`Session::set_trace`] — `SessionConfig` stays `Copy`.
    trace: Option<Arc<TracePlane>>,
    m_events: Arc<Counter>,
    m_verdicts: Arc<Counter>,
    m_staleness: Arc<Gauge>,
    m_live: Arc<Gauge>,
}

impl Session {
    fn metrics(name: &str) -> (Arc<Counter>, Arc<Counter>, Arc<Gauge>, Arc<Gauge>) {
        let reg = adya_obs::global();
        let l = |base: &str| labeled(base, &[("session", name)]);
        (
            reg.counter(&l("serve.session_events")),
            reg.counter(&l("serve.session_verdicts")),
            reg.gauge(&l("sli.session_watermark_staleness")),
            // Rows the checker holds (`OnlineChecker::live_txns`).
            reg.gauge(&l("sli.session_live_txns")),
        )
    }

    /// Creates a brand-new durable session under `data_dir`. When
    /// `repl` is set, every durable byte the log writes is mirrored to
    /// the replication hub.
    pub fn create(
        data_dir: &Path,
        name: &str,
        cfg: SessionConfig,
        repl: Option<LogPublisher>,
    ) -> std::io::Result<Session> {
        let log = SessionLog::create(&data_dir.join(name), cfg.log, repl)?;
        let mut checker = OnlineChecker::with_gc(cfg.gc);
        checker.set_provenance(cfg.provenance);
        let (m_events, m_verdicts, m_staleness, m_live) = Session::metrics(name);
        Ok(Session {
            name: name.to_string(),
            feed: StreamFeed::new(checker),
            log,
            verdicts: VerdictLog::default(),
            closed: None,
            truncated: None,
            trace: None,
            m_events,
            m_verdicts,
            m_staleness,
            m_live,
        })
    }

    /// Recovers a session from its directory: snapshot + log tail,
    /// with the replayed verdict tail as the initial replay window.
    pub fn recover(
        data_dir: &Path,
        name: &str,
        cfg: SessionConfig,
        repl: Option<LogPublisher>,
    ) -> Result<Session, RecoverError> {
        let r = SessionLog::recover(&data_dir.join(name), cfg.log, cfg.gc, cfg.provenance, repl)?;
        let (m_events, m_verdicts, m_staleness, m_live) = Session::metrics(name);
        adya_obs::counter!("serve.recoveries").inc();
        Ok(Session {
            name: name.to_string(),
            feed: r.feed,
            log: r.log,
            verdicts: r.verdict_log,
            closed: r.closed,
            truncated: r.truncated,
            trace: None,
            m_events,
            m_verdicts,
            m_staleness,
            m_live,
        })
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total durable event records.
    pub fn records(&self) -> u64 {
        self.log.records()
    }

    /// Total commit verdicts emitted.
    pub fn verdicts(&self) -> u64 {
        self.verdicts.count()
    }

    /// The session's verdicts: their count and the replay window.
    pub fn verdict_log(&self) -> &VerdictLog {
        &self.verdicts
    }

    /// The final verdict line, once closed.
    pub fn closed(&self) -> Option<&str> {
        self.closed.as_deref()
    }

    /// Enables latency-provenance stamping: events sampled by the
    /// plane's cadence (over their dense durable record numbers, so
    /// leader and follower derive identical ids from the replicated
    /// stream) are stamped at every `apply_line` stage, and their ids
    /// are handed to the replication publisher for cross-node joins.
    pub fn set_trace(&mut self, plane: Arc<TracePlane>) {
        self.trace = Some(plane);
    }

    /// Applies one line of whitespace-separated event tokens,
    /// returning the verdict lines it produced, in order, each paired
    /// with the trace id of its commit event when that event was
    /// sampled for latency provenance (`None` otherwise — and always
    /// `None` when tracing is off). Verdict lines themselves stay
    /// canonical; the id is for wire-level annotation only. All-or-
    /// nothing per line: a parse error applies none of it.
    pub fn apply_line(
        &mut self,
        line: &str,
        tap: &TapCrashPlane,
    ) -> Result<Vec<(Option<u64>, String)>, ApplyError> {
        if let Some(fin) = &self.closed {
            return Err(ApplyError::Closed(fin.clone()));
        }
        // Whether a token parses depends on the token alone, so the
        // whole line is checked before the session's parser sees any
        // of it: a refused line leaves no trace.
        for tok in line.split_whitespace() {
            check_token(tok).map_err(ApplyError::Parse)?;
        }
        // Trace ids key off the dense durable record number, so a
        // follower replaying the same records derives the same ids.
        let base = self.log.records();
        let mut out = Vec::new();
        for (tok, seq) in line.split_whitespace().zip(base..) {
            let known = self.feed.parser().interned();
            let ev = (self.feed.parse(tok)).expect("check_token accepted every token of the line");
            let traced =
                (self.trace.as_deref()).map_or(Traced::OFF, |plane| plane.begin(&self.name, seq));
            traced.stamp(Stage::Tap);
            let parser = self.feed.parser();
            if parser.interned() > known {
                // Names first: recovery re-interns before replaying events.
                let fresh = known..parser.interned();
                self.log
                    .append_names(fresh.map(|i| parser.object_name(ObjectId(i as u32))))
                    .map_err(ApplyError::Io)?;
            }
            // The serve path has no real ring/sequencer hop — the line
            // buffer plays both roles.
            traced.stamp(Stage::Ring);
            traced.stamp(Stage::Seq);
            self.log
                .append_traced(&ev, traced.id())
                .map_err(ApplyError::Io)?;
            traced.stamp(Stage::Log);
            // Tap-side crash point: the event is durable, its effects
            // are not — the exact window recovery must close.
            if tap.crash_due(ev.is_terminal()) {
                std::process::abort();
            }
            self.m_events.inc();
            let verdict = self.feed.ingest(&ev);
            traced.stamp(Stage::Apply);
            if let Some(v) = verdict {
                traced.stamp(Stage::Verdict);
                self.verdicts.push(&v, self.feed.checker());
                out.push((traced.id(), v.to_json()));
                self.m_verdicts.inc();
            }
        }
        if self.log.snapshot_due() {
            self.snapshot().map_err(ApplyError::Io)?;
        }
        self.m_staleness
            .set(self.feed.checker().watermark_staleness() as i64);
        self.m_live.set(self.feed.checker().live_txns() as i64);
        Ok(out)
    }

    /// Writes a snapshot now: the post-GC checker state is what lands
    /// on disk, so the watermark GC bounds both the snapshot and
    /// (through compaction) the log. The verdict log rides inside the
    /// snapshot and is trimmed after it ([`VerdictLog::snapshot`]).
    pub fn snapshot(&mut self) -> std::io::Result<()> {
        self.verdicts
            .snapshot(|v| self.log.write_snapshot(&self.feed, v).map(drop))?;
        self.m_staleness
            .set(self.feed.checker().watermark_staleness() as i64);
        adya_obs::counter!("serve.snapshots").inc();
        Ok(())
    }

    /// Validates a resume at `have` client-held verdicts and returns
    /// `(records, total_verdicts, reply)`: the reply is the `resume`
    /// ack, then every line the client is missing, rendered from the
    /// window's facts now into one buffer ([`VerdictLog::reply`]).
    pub fn resume(&mut self, have: u64) -> Result<(u64, u64, Replay), ResumeError> {
        if let Some(fin) = &self.closed {
            return Err(ResumeError::Closed(fin.clone()));
        }
        let (records, count) = (self.log.records(), self.verdicts.count());
        let ack = |replay| proto::ok_frame("resume", &self.name, records, count, replay);
        let reply = self.verdicts.reply(have, self.feed.checker(), ack)?;
        Ok((records, count, reply))
    }

    /// Closes the session: snapshot, final verdict, durable `closed`
    /// marker. Returns the final verdict line.
    pub fn close(&mut self) -> std::io::Result<String> {
        if let Some(fin) = &self.closed {
            return Ok(fin.clone());
        }
        self.snapshot()?;
        let fin = self.feed.finish().to_json();
        self.log.mark_closed(&fin)?;
        self.closed = Some(fin.clone());
        adya_obs::counter!("serve.closes").inc();
        Ok(fin)
    }

    /// Parks the session (connection gone): best-effort snapshot so a
    /// later restart replays little. The whole verdict log is stored
    /// with it and kept live ([`VerdictLog::park`]) — the departed
    /// client may not have read its last verdicts, and both a live
    /// resume and a post-restart resume must still be able to re-send
    /// them.
    pub fn park(&mut self) {
        if self.closed.is_none() {
            let _ = self
                .verdicts
                .park(|v| self.log.write_snapshot(&self.feed, v).map(drop));
        }
    }

    /// One fleet-health JSON object for this session; `attached` says
    /// whether a connection has it checked out. Its `live_txns` is the
    /// rows the checker holds — the running transactions and the
    /// finished ones the watermark has not let go, not the history.
    pub fn health_entry(&self, attached: bool) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"session\": \"{}\", \"records\": {}, \"verdicts\": {}, \"attached\": {}, \
             \"closed\": {}, \"live_txns\": {}, \"staleness\": {}, \"stale_refs\": {}",
            adya_obs::json::esc(&self.name),
            self.log.records(),
            self.verdicts.count(),
            attached,
            self.closed.is_some(),
            self.feed.checker().live_txns(),
            self.feed.checker().watermark_staleness(),
            self.feed.checker().stale_refs(),
        );
        match self.feed.checker().strongest_ansi() {
            Some(l) => {
                let _ = write!(s, ", \"strongest_ansi\": \"{l}\"}}");
            }
            None => s.push_str(", \"strongest_ansi\": null}"),
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::FsyncPolicy;
    use adya_faults::TapCrashConfig;

    /// Fires G1a and G1b at one commit (T3 read T2's version, T2
    /// aborted, and T1's intermediate one), G2-item and G2 at another
    /// (write skew), and reads a writer the stream never began.
    const DIRTY: [&str; 5] = [
        "b1 w1(x,1) w1(x,2) c1 b2 w2(y,1) b3 r3(y2:1) a2 r3(x1:1) c3",
        "b4 b5 r4(pinit) r5(qinit) w4(q,4) w5(p,5) c4",
        "c5 b6 r6(z9:1) c6",
        "b7 r7(x1:2) w7(x,7) c7",
        "b8 r8(x7:1) c8",
    ];

    #[test]
    fn a_resume_re_sends_the_lines_apply_line_returned_witnesses_included() {
        let data = std::env::temp_dir().join(format!("adya-session-window-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data);
        let cfg = SessionConfig {
            log: LogConfig {
                rotate_events: 8,
                snapshot_every: 24, // one snapshot, after the third line
                fsync: FsyncPolicy::Never,
            },
            provenance: true,
            ..SessionConfig::default()
        };
        let tap = TapCrashPlane::new(TapCrashConfig::default());
        let mut s = Session::create(&data, "s", cfg, None).expect("create");
        let mut sent = Vec::new();
        for line in DIRTY {
            let out = s.apply_line(line, &tap).expect("apply");
            sent.extend(out.into_iter().map(|(_, l)| l));
        }
        for new in [r#""new": ["G1a", "G1b"]"#, r#""new": ["G2-item", "G2"]"#] {
            assert!(sent.iter().any(|l| l.contains(new)), "{new}: {sent:#?}");
        }
        assert!(!sent.last().unwrap().contains(r#""stale_refs": 0"#));
        let (_, count, reply) = s.resume(0).expect("resume");
        assert_eq!(reply.lines().collect::<Vec<_>>(), sent);
        let ack = proto::ok_frame("resume", "s", s.records(), count, sent.len() as u64);
        assert_eq!(
            reply.text().lines().next(),
            Some(&*ack),
            "the ack goes first"
        );
        assert_eq!(s.verdict_log().base(), 0);
        drop(s); // a kill: the snapshot holds the first verdicts' facts

        let mut s = Session::recover(&data, "s", cfg, None).expect("recover");
        let reply = s.resume(0).expect("resume").2;
        assert_eq!(reply.lines().collect::<Vec<_>>(), sent);
        let _ = std::fs::remove_dir_all(&data);
    }

    #[test]
    fn a_line_naming_tinit_is_refused_and_logs_nothing() {
        let data = std::env::temp_dir().join(format!("adya-session-tinit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data);
        let tap = TapCrashPlane::new(TapCrashConfig::default());
        let mut s = Session::create(&data, "s", SessionConfig::default(), None).expect("create");
        s.apply_line("b1 w1(x,1) c1", &tap).expect("apply");
        let before = s.resume(0).expect("resume").2.text().to_string();
        for line in ["b4294967295 w4294967295(x,1) c4294967295", "b2 c4294967295"] {
            match s.apply_line(line, &tap) {
                Err(ApplyError::Parse(msg)) => assert!(
                    msg.contains("Tinit may not appear as an explicit event"),
                    "{msg}"
                ),
                other => panic!("{line}: {other:?}"),
            }
        }
        let after = s.resume(0).expect("resume").2;
        assert_eq!(after.text(), before, "nothing logged");
        let _ = std::fs::remove_dir_all(&data);
    }
}
