//! Greedy history minimization (delta debugging over transactions and
//! events), in the spirit of Elle's minimal counterexamples.
//!
//! The shrinker works on [`HistoryParts`]: remove a candidate
//! transaction or event, re-validate through [`History::from_parts`]
//! (an invalid candidate — say, a removed writer whose version someone
//! still reads — is simply skipped), and re-run detection. A removal
//! is kept only when the detected **phenomenon-kind set is unchanged**,
//! which in particular keeps every phenomenon the caller cares about
//! while guaranteeing the shrunk witness never acquires anomalies the
//! original history did not have.

use std::collections::BTreeSet;

use adya_core::{detect_all, PhenomenonKind};
use adya_history::{Event, History, HistoryParts, TxnId};

/// The set of phenomenon kinds present in `h`.
pub fn detected_kinds(h: &History) -> BTreeSet<PhenomenonKind> {
    detect_all(h).iter().map(|p| p.kind()).collect()
}

/// Greedily shrinks `h` to a minimal sub-history with exactly the same
/// detected phenomenon set: first whole transactions, then individual
/// events, repeated to a fixpoint. Deterministic: candidates are tried
/// in ascending transaction-id order and descending event order.
///
/// "Minimal" is 1-minimal in the delta-debugging sense — no single
/// remaining transaction or event can be removed without changing the
/// phenomenon set — not globally minimum, which would be exponential.
pub fn minimize(h: &History) -> History {
    minimize_to(h, &detected_kinds(h))
}

/// [`minimize`], given `h`'s already-detected kind set.
pub(crate) fn minimize_to(h: &History, baseline: &BTreeSet<PhenomenonKind>) -> History {
    let mut cur = h.clone();
    loop {
        let mut changed = false;
        // Pass 1: whole transactions.
        let txn_ids: Vec<TxnId> = cur.txns().map(|(t, _)| t).collect();
        for t in txn_ids {
            let cand = without_txn(&cur.to_parts(), t);
            if let Some(next) = accept(cand, baseline) {
                cur = next;
                changed = true;
            }
        }
        // Pass 2: individual events, last first so indices of
        // still-unvisited candidates stay valid across removals.
        let mut i = cur.len();
        while i > 0 {
            i -= 1;
            if let Some(cand) = without_event(&cur.to_parts(), i) {
                if let Some(next) = accept(cand, baseline) {
                    cur = next;
                    changed = true;
                }
            }
            i = i.min(cur.len());
        }
        if !changed {
            return cur;
        }
    }
}

/// Validates a candidate and keeps it only if the phenomenon set is
/// untouched.
fn accept(cand: HistoryParts, baseline: &BTreeSet<PhenomenonKind>) -> Option<History> {
    let h = History::from_parts(cand).ok()?;
    (&detected_kinds(&h) == baseline).then_some(h)
}

/// `parts` with every trace of transaction `t` removed: its events,
/// its versions in every version order, and its level request.
fn without_txn(parts: &HistoryParts, t: TxnId) -> HistoryParts {
    let mut p = parts.clone();
    p.events.retain(|e| e.txn() != t);
    for order in p.version_orders.values_mut() {
        order.retain(|v| v.txn != t);
    }
    p.version_orders.retain(|_, order| !order.is_empty());
    p.levels.remove(&t);
    p
}

/// `parts` with the event at `idx` removed (plus, for a write, its
/// version's entry in the version order). Terminal events are never
/// candidates: removing a commit would silently abort the transaction
/// and change far more than one operation.
fn without_event(parts: &HistoryParts, idx: usize) -> Option<HistoryParts> {
    let ev = parts.events.get(idx)?;
    if ev.is_terminal() {
        return None;
    }
    let mut p = parts.clone();
    if let Event::Write(w) = ev {
        let vid = w.version();
        if let Some(order) = p.version_orders.get_mut(&w.object) {
            order.retain(|v| *v != vid);
            if order.is_empty() {
                p.version_orders.remove(&w.object);
            }
        }
    }
    p.events.remove(idx);
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::parse_history;

    #[test]
    fn wcycle_is_already_minimal() {
        // H_wcycle (§5.1): both transactions and all four writes are
        // needed for the G0 cycle.
        let h =
            parse_history("w1(x,2) w2(x,5) w2(y,5) c2 w1(y,8) c1 [x1 << x2, y2 << y1]").unwrap();
        let m = minimize(&h);
        assert_eq!(m.committed_txns().count(), 2);
        assert_eq!(detected_kinds(&m), detected_kinds(&h));
    }

    #[test]
    fn bystander_transaction_is_removed() {
        // T3 reads its own island and takes no part in the G0 cycle.
        let h = parse_history(
            "w1(x,2) w2(x,5) w2(y,5) c2 w1(y,8) c1 w3(z,1) c3 r4(z3) c4 [x1 << x2, y2 << y1]",
        )
        .unwrap();
        assert_eq!(h.committed_txns().count(), 4);
        let m = minimize(&h);
        assert_eq!(m.committed_txns().count(), 2, "{m}");
        assert_eq!(detected_kinds(&m), detected_kinds(&h));
    }

    #[test]
    fn irrelevant_read_is_removed() {
        // The read r2(y1) rides along but G1a needs only the aborted
        // read of x.
        let h = parse_history("w1(x,1) w1(y,1) r2(x1) r2(y1) a1 c2").unwrap();
        let m = minimize(&h);
        assert!(m.len() < h.len(), "{m}");
        assert_eq!(detected_kinds(&m), detected_kinds(&h));
    }

    #[test]
    fn clean_history_minimizes_to_nothing() {
        let h = parse_history("w1(x,1) c1 r2(x1) c2").unwrap();
        assert!(detected_kinds(&h).is_empty());
        let m = minimize(&h);
        // With no phenomena to preserve the whole history shrinks away.
        assert_eq!(m.committed_txns().count(), 0, "{m}");
    }
}
