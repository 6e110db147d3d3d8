//! Per-transaction metadata: completion status and requested isolation
//! level (for the mixed-level histories of §5.5).

use std::fmt;

/// How a transaction ended. Histories are complete (§4.2), so every
/// transaction has exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnStatus {
    /// The transaction committed; its final versions are part of the
    /// committed state.
    Committed,
    /// The transaction aborted; none of its versions are committed.
    Aborted,
}

impl TxnStatus {
    /// True for [`TxnStatus::Committed`].
    pub fn is_committed(self) -> bool {
        self == TxnStatus::Committed
    }
}

impl fmt::Display for TxnStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnStatus::Committed => write!(f, "committed"),
            TxnStatus::Aborted => write!(f, "aborted"),
        }
    }
}

/// The isolation level a transaction *requested*, recorded in the
/// history for mixed-system analysis (§5.5).
///
/// This is deliberately distinct from the checker's richer level
/// lattice in `adya-core`: the Mixed Serialization Graph is defined by
/// the paper only over the four portable ANSI levels, and the requested
/// level is a property of the execution being recorded, not of the
/// analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestedLevel {
    /// PL-1 (proscribes G0).
    PL1,
    /// PL-2 (proscribes G1).
    PL2,
    /// PL-2.99, the locking REPEATABLE READ analogue (proscribes G1 and
    /// G2-item).
    PL299,
    /// PL-3, full serializability (proscribes G1 and G2). The default:
    /// an unmixed history is an all-PL-3 history.
    #[default]
    PL3,
}

impl RequestedLevel {
    /// All levels, weakest first.
    pub const ALL: [RequestedLevel; 4] = [
        RequestedLevel::PL1,
        RequestedLevel::PL2,
        RequestedLevel::PL299,
        RequestedLevel::PL3,
    ];
}

impl fmt::Display for RequestedLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestedLevel::PL1 => write!(f, "PL-1"),
            RequestedLevel::PL2 => write!(f, "PL-2"),
            RequestedLevel::PL299 => write!(f, "PL-2.99"),
            RequestedLevel::PL3 => write!(f, "PL-3"),
        }
    }
}

/// Resolved metadata for one transaction in a validated history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnInfo {
    /// Completion status.
    pub status: TxnStatus,
    /// Requested isolation level (PL-3 unless the history says
    /// otherwise).
    pub level: RequestedLevel,
    /// Index in the event sequence of the transaction's first event
    /// (its `Begin` event when present).
    pub first_event: usize,
    /// Index of the commit or abort event.
    pub end_event: usize,
    /// Index of the explicit `Begin` event, when one was recorded.
    ///
    /// Snapshot Isolation analysis needs begin points; when absent, the
    /// transaction is taken to begin at `first_event`.
    pub begin_event: Option<usize>,
}

impl TxnInfo {
    /// The event index at which the transaction (conceptually) started.
    pub fn begin_point(&self) -> usize {
        self.begin_event.unwrap_or(self.first_event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_matches_lattice() {
        // `core::mixing` compares requested levels with `>=`.
        use RequestedLevel::*;
        assert!(PL3 >= PL299);
        assert!(PL299 >= PL2);
        assert!(PL2 >= PL1);
        assert!(PL1 >= PL1);
        assert!(PL1 < PL2);
        assert!(PL299 < PL3);
    }

    #[test]
    fn default_level_is_pl3() {
        assert_eq!(RequestedLevel::default(), RequestedLevel::PL3);
    }

    #[test]
    fn display_names() {
        assert_eq!(RequestedLevel::PL299.to_string(), "PL-2.99");
        assert_eq!(TxnStatus::Aborted.to_string(), "aborted");
    }

    #[test]
    fn begin_point_prefers_explicit_begin() {
        let mut info = TxnInfo {
            status: TxnStatus::Committed,
            level: RequestedLevel::PL3,
            first_event: 4,
            end_event: 9,
            begin_event: None,
        };
        assert_eq!(info.begin_point(), 4);
        info.begin_event = Some(2);
        assert_eq!(info.begin_point(), 2);
    }
}
