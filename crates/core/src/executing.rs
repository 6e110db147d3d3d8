//! Guarantees for *executing* transactions.
//!
//! §5.6 of the paper: "these levels … do not constrain transactions as
//! they run, although if something bad happens (e.g., a PL-3
//! transaction observes an inconsistency), they do force aborts.
//! Analogs of the levels that constrain executing transactions are
//! given in [1]; these definitions use slightly different graphs,
//! containing nodes for committed transactions plus a node for the
//! executing transaction."
//!
//! This module implements that graph by *promotion*: the executing
//! transaction (present in the complete history as aborted, per the
//! completion rule) is hypothetically committed and its versions
//! appended to the relevant version orders; the ordinary level checks
//! then apply to the promoted history. A scheduler can ask, at any
//! point, "could this transaction still commit at level L?" and force
//! an early abort when the answer is no — exactly what the SGT engine
//! does with its own incremental edge set.

use adya_history::{History, TxnId};

use crate::{check_level, IsolationLevel, LevelCheck};

/// Checks whether the (aborted-in-`h`, i.e. still executing)
/// transaction `txn` could commit at `level`, given everything that
/// has happened in `h`.
///
/// Returns the level check of the promoted history; `ok()` means the
/// transaction is still viable at that level. Errors from promotion
/// (unknown transaction, already committed with `Ok(check)` semantics
/// handled upstream) surface as `None`.
pub fn check_running(h: &History, txn: TxnId, level: IsolationLevel) -> Option<LevelCheck> {
    let promoted = h.promote_to_committed(txn).ok()?;
    Some(check_level(&promoted, level))
}

/// True if `txn` is doomed at `level`: no continuation can make it
/// committable, because the phenomena already present among committed
/// transactions plus `txn`'s past operations violate the level.
///
/// (Sound but not complete as a death sentence for *other* levels:
/// future operations only ever add conflicts, never remove them, so a
/// violated check can never recover.)
pub fn is_doomed(h: &History, txn: TxnId, level: IsolationLevel) -> bool {
    check_running(h, txn, level)
        .map(|c| !c.ok())
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::parse_history_completed;

    #[test]
    fn clean_running_txn_is_viable() {
        // T2 is still executing (completed with an abort): reading
        // committed data keeps it viable at PL-3.
        let h = parse_history_completed("w1(x,1) c1 r2(x1)").unwrap();
        let check = check_running(&h, adya_history::TxnId(2), IsolationLevel::PL3).unwrap();
        assert!(check.ok(), "{check}");
    }

    #[test]
    fn read_skew_in_progress_dooms_pl3_but_not_pl2() {
        // T2 read old x and new y (both of T1's): the G2 cycle already
        // exists, so T2 can never commit at PL-3; PL-2 remains open.
        let h = parse_history_completed(
            "r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(y1,9)",
        )
        .unwrap();
        let t2 = adya_history::TxnId(2);
        assert!(is_doomed(&h, t2, IsolationLevel::PL3));
        assert!(!is_doomed(&h, t2, IsolationLevel::PL2));
    }

    #[test]
    fn dirty_reader_of_aborted_writer_is_doomed_at_pl2() {
        let h = parse_history_completed("w1(x,1) r2(x1) a1").unwrap();
        let t2 = adya_history::TxnId(2);
        assert!(
            is_doomed(&h, t2, IsolationLevel::PL2),
            "G1a is irreversible"
        );
        assert!(!is_doomed(&h, t2, IsolationLevel::PL1));
    }

    #[test]
    fn committed_txn_checks_apply_directly() {
        let h = parse_history_completed("w1(x,1) c1").unwrap();
        let check = check_running(&h, adya_history::TxnId(1), IsolationLevel::PL3).unwrap();
        assert!(check.ok());
    }

    #[test]
    fn unknown_txn_yields_none() {
        let h = parse_history_completed("w1(x,1) c1").unwrap();
        assert!(check_running(&h, adya_history::TxnId(42), IsolationLevel::PL3).is_none());
    }

    #[test]
    fn promotion_appends_version_order() {
        let h = parse_history_completed("w1(x,1) c1 w2(x,2)").unwrap();
        let t2 = adya_history::TxnId(2);
        let promoted = h.promote_to_committed(t2).unwrap();
        let x = promoted.object_by_name("x").unwrap();
        assert_eq!(promoted.version_order(x).len(), 3);
        assert!(promoted.is_committed(t2));
    }
}
