//! A session's verdicts, kept once: one index-ordered log whose length
//! is the session's verdict count and whose retained lines are the ones
//! a resuming client may still be missing.
//!
//! The replay window reaches one full snapshot interval back. A
//! snapshot keeps every line since the *previous* snapshot (the
//! `mark`), not just since itself: a client killed at the worst moment
//! (this snapshot durable, its triggering verdicts never delivered)
//! cannot hold fewer verdicts than the previous snapshot's count,
//! because those were delivered before the line that triggered this
//! one was accepted. The snapshot cadence is therefore also the bound
//! on the window, which is what keeps it from growing on long streams.
//!
//! In a snapshot payload the count follows the record count and the
//! window (`base`, the lines) ends the payload; decoding derives the
//! count from the window and refuses a payload whose stored count
//! disagrees.

use adya_online::wire;

use crate::session::ResumeError;

/// The verdict lines of one session that can still be re-sent.
#[derive(Debug, Default, PartialEq)]
pub struct VerdictLog {
    /// Verdict index of `lines[0]`.
    base: u64,
    /// The re-sendable lines: verdicts `base..count()`.
    lines: Vec<String>,
    /// The verdict count in the last durable snapshot; never below
    /// `base`.
    mark: u64,
}

impl VerdictLog {
    /// Total verdicts over the session's life.
    pub fn count(&self) -> u64 {
        self.base + self.lines.len() as u64
    }

    /// Index of the oldest verdict that can still be re-sent.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Appends the next verdict line.
    pub fn push(&mut self, line: String) {
        self.lines.push(line);
    }

    /// The lines a client holding `have` verdicts is missing.
    pub fn since(&self, have: u64) -> Result<&[String], ResumeError> {
        if have < self.base {
            return Err(ResumeError::Unrecoverable { base: self.base });
        }
        if have > self.count() {
            return Err(ResumeError::Ahead {
                durable: self.count(),
            });
        }
        Ok(&self.lines[(have - self.base) as usize..])
    }

    /// Writes a snapshot that carries this log with `write`, then
    /// trims: the lines before the previous snapshot's count go, and
    /// the mark moves to the count. A failed write trims nothing.
    pub fn snapshot<E>(
        &mut self,
        write: impl FnOnce(&VerdictLog) -> Result<(), E>,
    ) -> Result<(), E> {
        write(self)?;
        self.lines.drain(..(self.mark - self.base) as usize);
        self.base = self.mark;
        self.mark = self.count();
        Ok(())
    }

    /// Writes a park's snapshot with `write`. Every line stays, since
    /// the departed client may not have read them; the mark moves to
    /// the count only if the write succeeded, because a later
    /// snapshot trims to the mark, and a mark past every durable
    /// snapshot would make a resume within one interval spuriously
    /// unrecoverable.
    pub fn park<E>(&mut self, write: impl FnOnce(&VerdictLog) -> Result<(), E>) -> Result<(), E> {
        write(self)?;
        self.mark = self.count();
        Ok(())
    }

    /// Writes the count (its place in the payload: after `records`).
    pub(crate) fn write_count(&self, e: &mut wire::Enc) {
        e.u64(self.count());
    }

    /// Writes the window (its place in the payload: the end).
    pub(crate) fn write_window(&self, e: &mut wire::Enc) {
        e.u64(self.base);
        e.len(self.lines.len());
        for line in &self.lines {
            e.str(line);
        }
    }

    /// Reads the window written by [`write_window`](Self::write_window)
    /// of a snapshot whose stored count is `count`; `None` unless the
    /// window ends exactly at `count`. The snapshot is the mark.
    pub(crate) fn read(count: u64, d: &mut wire::Dec) -> Option<VerdictLog> {
        let base = d.u64().ok()?;
        let n = d.len().ok()?;
        if base.checked_add(n as u64) != Some(count) {
            return None;
        }
        let mut lines = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            lines.push(d.str().ok()?);
        }
        Some(VerdictLog {
            base,
            lines,
            mark: count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(n: u64) -> VerdictLog {
        let mut log = VerdictLog::default();
        for i in 0..n {
            log.push(format!("v{i}"));
        }
        log
    }

    fn ok(_: &VerdictLog) -> Result<(), ()> {
        Ok(())
    }

    fn lines(log: &VerdictLog, have: u64) -> Vec<String> {
        log.since(have).expect("resumable").to_vec()
    }

    #[test]
    fn since_answers_at_both_edges_of_the_window() {
        let mut log = log_of(3);
        log.snapshot(ok).unwrap(); // mark 3
        log.push("v3".into());
        log.push("v4".into());
        log.snapshot(ok).unwrap(); // base 3, mark 5
        assert_eq!((log.base(), log.count()), (3, 5));
        assert_eq!(lines(&log, 3), ["v3", "v4"]);
        assert!(lines(&log, 5).is_empty());
        assert!(matches!(
            log.since(2),
            Err(ResumeError::Unrecoverable { base: 3 })
        ));
        assert!(matches!(
            log.since(6),
            Err(ResumeError::Ahead { durable: 5 })
        ));
    }

    #[test]
    fn snapshot_park_snapshot_trims_to_the_first_snapshots_count() {
        let mut log = log_of(2);
        log.snapshot(ok).unwrap(); // mark 2
        log.park(ok).unwrap(); // the client left at once
        assert_eq!(log.base(), 0, "a park drops nothing");
        log.push("v2".into());
        log.snapshot(ok).unwrap();
        assert_eq!(log.base(), 2);
        assert_eq!(lines(&log, 2), ["v2"]);
        // Verdicts before the park: its snapshot is durable, so the
        // next one trims to the park's count.
        let mut log = log_of(2);
        log.snapshot(ok).unwrap();
        log.push("v2".into());
        log.park(ok).unwrap(); // mark 3
        log.push("v3".into());
        log.snapshot(ok).unwrap();
        assert_eq!(log.base(), 3);
        assert_eq!(lines(&log, 3), ["v3"]);
    }

    #[test]
    fn a_failed_park_leaves_the_mark_where_it_was() {
        let mut log = log_of(2);
        log.snapshot(ok).unwrap(); // mark 2
        log.push("v2".into());
        assert_eq!(log.park(|_| Err("disk full")), Err("disk full"));
        log.push("v3".into());
        log.snapshot(ok).unwrap();
        assert_eq!(log.base(), 2, "trimmed only to the last durable count");
        assert_eq!(lines(&log, 2), ["v2", "v3"]);
        // A failed snapshot trims nothing either.
        assert_eq!(log.snapshot(|_| Err(())), Err(()));
        assert_eq!(log.base(), 2);
    }

    #[test]
    fn a_window_round_trips_and_a_disagreeing_count_is_refused() {
        let mut log = log_of(4);
        log.snapshot(ok).unwrap();
        log.push("v4".into());
        log.snapshot(ok).unwrap(); // base 4, one line
        let mut e = wire::Enc::new();
        log.write_window(&mut e);
        let bytes = e.into_bytes();
        let back = VerdictLog::read(log.count(), &mut wire::Dec::new(&bytes)).expect("decodes");
        assert_eq!((back.base(), back.count()), (4, 5));
        assert_eq!(lines(&back, 4), ["v4"]);
        for count in [0, 4, 6, u64::MAX] {
            assert_eq!(VerdictLog::read(count, &mut wire::Dec::new(&bytes)), None);
        }
    }
}
