//! A session's verdicts, kept once: one index-ordered log whose length
//! is the session's verdict count and whose retained entries are the
//! verdicts a resuming client may still be missing.
//!
//! An entry is a [`VerdictFact`] — 40 bytes, no heap — not its line:
//! a line is rendered only when it is re-sent, by the session's checker
//! ([`OnlineChecker::write_verdict_line`]), whose latch record holds the
//! one part of a line a fact does not (the first witness, witness id and
//! cycle of each kind, written once when the kind fires). A resume's
//! lines are rendered straight into its one reply buffer
//! ([`VerdictLog::reply`]). Debug builds check every push: the fact
//! must render to the line its verdict did.
//!
//! The replay window reaches one full snapshot interval back. A
//! snapshot keeps every verdict since the *previous* snapshot (the
//! `mark`), not just since itself: a client killed at the worst moment
//! (this snapshot durable, its triggering verdicts never delivered)
//! cannot hold fewer verdicts than the previous snapshot's count,
//! because those were delivered before the line that triggered this
//! one was accepted. The snapshot cadence is therefore also the bound
//! on the window, which is what keeps it from growing on long streams.
//!
//! In a snapshot payload the count follows the record count and the
//! window ends the payload: `base`, `n`, then `n` facts of
//! [`FACT_BYTES`] each. A snapshot an earlier build wrote holds the
//! lines themselves instead (`log::open_snapshot` tells the two
//! apart by their magic); each is read back into its fact, and refused
//! unless the fact renders to it byte for byte. Decoding derives the
//! count from the window and refuses a payload whose stored count
//! disagrees.

use std::fmt;

use adya_online::{wire, OnlineChecker, Verdict, VerdictFact};

use crate::session::ResumeError;

/// Bytes one fact takes in a snapshot: `txn` (u32), `committed`,
/// `pruned`, `stale_refs`, `live_txns` (u64 each), `fired`, `new` (u8
/// each), little-endian.
pub const FACT_BYTES: usize = 38;

/// A resume's reply, one buffer: the ack line, then the line of every
/// verdict the client is missing, in order, each line ended by a
/// newline — what a server writes in one go.
#[derive(Debug)]
pub struct Replay {
    text: String,
    /// Where the verdict lines start: past the ack's newline.
    lines_at: usize,
    /// How many verdict lines.
    len: usize,
}

impl Replay {
    /// The whole reply, ack first.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The verdict lines, without their newlines.
    pub fn lines(&self) -> std::str::Lines<'_> {
        self.text[self.lines_at..].lines()
    }

    /// How many verdict lines the reply re-sends.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the reply re-sends no verdict.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A reply equals the verdict lines it re-sends, in order.
impl<S: AsRef<str>> PartialEq<[S]> for Replay {
    fn eq(&self, lines: &[S]) -> bool {
        self.len == lines.len() && self.lines().eq(lines.iter().map(AsRef::as_ref))
    }
}

impl<S: AsRef<str>> PartialEq<Vec<S>> for Replay {
    fn eq(&self, lines: &Vec<S>) -> bool {
        *self == lines[..]
    }
}

/// The verdicts of one session that can still be re-sent.
#[derive(Debug, Default, PartialEq)]
pub struct VerdictLog {
    /// Verdict index of `facts[0]`.
    base: u64,
    /// The re-sendable verdicts: `base..count()`.
    facts: Vec<VerdictFact>,
    /// The verdict count in the last durable snapshot; never below
    /// `base`.
    mark: u64,
}

impl VerdictLog {
    /// Total verdicts over the session's life.
    pub fn count(&self) -> u64 {
        self.base + self.facts.len() as u64
    }

    /// Index of the oldest verdict that can still be re-sent.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Heap bytes the window holds.
    pub fn heap_bytes(&self) -> usize {
        self.facts.capacity() * std::mem::size_of::<VerdictFact>()
    }

    /// Appends commit verdict `v`, which `checker` just returned. Debug
    /// builds check that its fact renders, through `checker`, to `v`'s
    /// line.
    pub fn push(&mut self, v: &Verdict, checker: &OnlineChecker) {
        let fact = v.fact().expect("a commit verdict");
        debug_assert_eq!(
            checker.verdict_line(&fact),
            v.to_json(),
            "a verdict's fact renders to its line"
        );
        self.facts.push(fact);
    }

    /// The verdicts a client holding `have` is missing.
    fn window(&self, have: u64) -> Result<&[VerdictFact], ResumeError> {
        if have < self.base {
            return Err(ResumeError::Unrecoverable { base: self.base });
        }
        if have > self.count() {
            return Err(ResumeError::Ahead {
                durable: self.count(),
            });
        }
        Ok(&self.facts[(have - self.base) as usize..])
    }

    /// The reply to a client holding `have` verdicts, rendered once, into
    /// one buffer of its exact size: the line `ack` returns for the
    /// number of verdicts the client is missing, then each of their
    /// lines, rendered by the session's `checker`. One writer runs
    /// twice over the window: into a [`wire::ByteCount`], then into the
    /// buffer.
    pub fn reply(
        &self,
        have: u64,
        checker: &OnlineChecker,
        ack: impl FnOnce(u64) -> String,
    ) -> Result<Replay, ResumeError> {
        let facts = self.window(have)?;
        let ack = ack(facts.len() as u64);
        let write = |out: &mut dyn fmt::Write| -> fmt::Result {
            writeln!(out, "{ack}")?;
            for f in facts {
                checker.write_verdict_line(f, out)?;
                out.write_char('\n')?;
            }
            Ok(())
        };
        let mut count = wire::ByteCount::default();
        write(&mut count).expect("a ByteCount takes any write");
        let len = wire::Sink::written(&count);
        let mut text = String::with_capacity(len);
        write(&mut text).expect("a String takes any write");
        debug_assert_eq!(text.len(), len, "measured and written replies differ");
        Ok(Replay {
            text,
            lines_at: ack.len() + 1,
            len: facts.len(),
        })
    }

    /// Writes a snapshot that carries this log with `write`, then
    /// trims: the verdicts before the previous snapshot's count go, and
    /// the mark moves to the count. A failed write trims nothing.
    pub fn snapshot<E>(
        &mut self,
        write: impl FnOnce(&VerdictLog) -> Result<(), E>,
    ) -> Result<(), E> {
        write(self)?;
        self.facts.drain(..(self.mark - self.base) as usize);
        self.base = self.mark;
        self.mark = self.count();
        Ok(())
    }

    /// Writes a park's snapshot with `write`. Every verdict stays,
    /// since the departed client may not have read them; the mark moves
    /// to the count only if the write succeeded, because a later
    /// snapshot trims to the mark, and a mark past every durable
    /// snapshot would make a resume within one interval spuriously
    /// unrecoverable.
    pub fn park<E>(&mut self, write: impl FnOnce(&VerdictLog) -> Result<(), E>) -> Result<(), E> {
        write(self)?;
        self.mark = self.count();
        Ok(())
    }

    /// Writes the count (its place in the payload: after `records`).
    pub(crate) fn write_count<S: wire::Sink>(&self, e: &mut wire::Enc<S>) {
        e.u64(self.count());
    }

    /// Writes the window (its place in the payload: the end).
    pub(crate) fn write_window<S: wire::Sink>(&self, e: &mut wire::Enc<S>) {
        e.u64(self.base);
        e.len(self.facts.len());
        for f in &self.facts {
            e.u32(f.txn);
            for n in [f.committed, f.pruned, f.stale_refs, f.live_txns] {
                e.u64(n);
            }
            e.u8(f.fired);
            e.u8(f.new);
        }
    }

    /// Reads the window written by [`write_window`](Self::write_window)
    /// of a snapshot whose stored count is `count`; `None` unless the
    /// window ends exactly at `count` and at the end of `d`. The
    /// snapshot is the mark.
    pub(crate) fn read(count: u64, d: &mut wire::Dec) -> Option<VerdictLog> {
        let base = d.u64().ok()?;
        let n = d.u64().ok()?;
        // Before anything is reserved: the facts fill what is left.
        if n.checked_mul(FACT_BYTES as u64) != Some(d.remaining() as u64)
            || base.checked_add(n) != Some(count)
        {
            return None;
        }
        let mut facts = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let txn = d.u32().ok()?;
            let mut counts = [0u64; 4];
            for c in &mut counts {
                *c = d.u64().ok()?;
            }
            let [committed, pruned, stale_refs, live_txns] = counts;
            facts.push(VerdictFact {
                txn,
                committed,
                pruned,
                stale_refs,
                live_txns,
                fired: d.u8().ok()?,
                new: d.u8().ok()?,
            });
        }
        Some(VerdictLog {
            base,
            facts,
            mark: count,
        })
    }

    /// Reads an earlier build's window — `base`, then the lines — of a
    /// snapshot whose stored count is `count`, each line into its fact;
    /// `None` unless every line is exactly what its fact renders to
    /// through `checker` (the snapshot's own), and the window ends at
    /// `count` and at the end of `d`.
    pub(crate) fn read_lines(
        count: u64,
        d: &mut wire::Dec,
        checker: &OnlineChecker,
    ) -> Option<VerdictLog> {
        let base = d.u64().ok()?;
        let n = d.len().ok()?;
        if base.checked_add(n as u64) != Some(count) {
            return None;
        }
        let mut facts = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let line = d.str().ok()?;
            let fact = VerdictFact::from_line(&line)?;
            if checker.verdict_line(&fact) != line {
                return None;
            }
            facts.push(fact);
        }
        (d.remaining() == 0).then_some(VerdictLog {
            base,
            facts,
            mark: count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A fact that stands for verdict `i` alone.
    fn fact(i: u64) -> VerdictFact {
        VerdictFact {
            txn: i as u32,
            committed: i,
            ..VerdictFact::default()
        }
    }

    fn log_of(n: u64) -> VerdictLog {
        let mut log = VerdictLog::default();
        (0..n).for_each(|i| log.facts.push(fact(i)));
        log
    }

    fn push(log: &mut VerdictLog, i: u64) {
        log.facts.push(fact(i));
    }

    fn ok(_: &VerdictLog) -> Result<(), ()> {
        Ok(())
    }

    /// The `committed` of each verdict a client holding `have` misses.
    fn missing(log: &VerdictLog, have: u64) -> Vec<u64> {
        let window = log.window(have).expect("resumable");
        window.iter().map(|f| f.committed).collect()
    }

    fn encode(log: &VerdictLog) -> Vec<u8> {
        let mut e = wire::Enc::new();
        log.write_window(&mut e);
        e.into_bytes()
    }

    #[test]
    fn a_fact_is_forty_bytes_in_memory() {
        assert_eq!(std::mem::size_of::<VerdictFact>(), 40);
        assert_eq!(encode(&log_of(1)).len(), 16 + FACT_BYTES);
    }

    #[test]
    fn since_answers_at_both_edges_of_the_window() {
        let mut log = log_of(3);
        log.snapshot(ok).unwrap(); // mark 3
        push(&mut log, 3);
        push(&mut log, 4);
        log.snapshot(ok).unwrap(); // base 3, mark 5
        assert_eq!((log.base(), log.count()), (3, 5));
        assert_eq!(missing(&log, 3), [3, 4]);
        assert!(missing(&log, 5).is_empty());
        assert!(matches!(
            log.window(2),
            Err(ResumeError::Unrecoverable { base: 3 })
        ));
        assert!(matches!(
            log.window(6),
            Err(ResumeError::Ahead { durable: 5 })
        ));
    }

    #[test]
    fn snapshot_park_snapshot_trims_to_the_first_snapshots_count() {
        let mut log = log_of(2);
        log.snapshot(ok).unwrap(); // mark 2
        log.park(ok).unwrap(); // the client left at once
        assert_eq!(log.base(), 0, "a park drops nothing");
        push(&mut log, 2);
        log.snapshot(ok).unwrap();
        assert_eq!(log.base(), 2);
        assert_eq!(missing(&log, 2), [2]);
        // Verdicts before the park: its snapshot is durable, so the
        // next one trims to the park's count.
        let mut log = log_of(2);
        log.snapshot(ok).unwrap();
        push(&mut log, 2);
        log.park(ok).unwrap(); // mark 3
        push(&mut log, 3);
        log.snapshot(ok).unwrap();
        assert_eq!(log.base(), 3);
        assert_eq!(missing(&log, 3), [3]);
    }

    #[test]
    fn a_failed_park_leaves_the_mark_where_it_was() {
        let mut log = log_of(2);
        log.snapshot(ok).unwrap(); // mark 2
        push(&mut log, 2);
        assert_eq!(log.park(|_| Err("disk full")), Err("disk full"));
        push(&mut log, 3);
        log.snapshot(ok).unwrap();
        assert_eq!(log.base(), 2, "trimmed only to the last durable count");
        assert_eq!(missing(&log, 2), [2, 3]);
        // A failed snapshot trims nothing either.
        assert_eq!(log.snapshot(|_| Err(())), Err(()));
        assert_eq!(log.base(), 2);
    }

    #[test]
    fn a_window_round_trips_and_a_disagreeing_count_is_refused() {
        let mut log = log_of(4);
        log.snapshot(ok).unwrap();
        push(&mut log, 4);
        log.snapshot(ok).unwrap(); // base 4, one verdict
        let bytes = encode(&log);
        let back = VerdictLog::read(log.count(), &mut wire::Dec::new(&bytes)).expect("decodes");
        assert_eq!((back.base(), back.count()), (4, 5));
        assert_eq!(missing(&back, 4), [4]);
        for count in [0, 4, 6, u64::MAX] {
            assert_eq!(VerdictLog::read(count, &mut wire::Dec::new(&bytes)), None);
        }
    }

    fn any_fact() -> impl Strategy<Value = VerdictFact> {
        let count = || 0u64..u64::MAX;
        let counts = (count(), count(), count(), count());
        (0u32..u32::MAX, counts, 0u8..64, 0u8..64).prop_map(
            |(txn, (committed, pruned, stale_refs, live_txns), fired, new)| VerdictFact {
                txn,
                committed,
                pruned,
                stale_refs,
                live_txns,
                fired,
                new: new & fired,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `read(write_window(w)) == w` over random windows; and a
        /// window cut short, a count larger than the bytes left, and
        /// bytes after the window are each refused without a panic.
        #[test]
        fn a_random_window_round_trips_and_hostile_bytes_are_refused(
            base in 0u64..1 << 40,
            facts in proptest::collection::vec(any_fact(), 0..40),
            cut in 1usize..FACT_BYTES * 2,
            extra in 1u64..1 << 20,
        ) {
            let log = VerdictLog { base, mark: base + facts.len() as u64, facts };
            let count = log.count();
            let bytes = encode(&log);
            let read = |b: &[u8], count| VerdictLog::read(count, &mut wire::Dec::new(b));
            prop_assert_eq!(read(&bytes, count), Some(log));

            let short = &bytes[..bytes.len().saturating_sub(cut).max(8)];
            prop_assert_eq!(read(short, count), None, "a truncated window");
            let mut long = bytes.clone();
            long.push(0);
            prop_assert_eq!(read(&long, count), None, "a trailing byte");
            for n in [count - base + extra, u64::MAX / FACT_BYTES as u64 + 1, u64::MAX] {
                let mut over = bytes.clone();
                over[8..16].copy_from_slice(&n.to_le_bytes());
                prop_assert_eq!(read(&over, base.wrapping_add(n)), None, "an over-long count {}", n);
            }
        }
    }
}
