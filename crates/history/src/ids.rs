//! Identifier newtypes for transactions, objects, relations, predicates
//! and versions.

use std::fmt;

/// Identifier of a transaction.
///
/// The paper's special initialization transaction `Tinit` — which
/// conceptually creates the unborn version of every object (and the
/// visible initial version of preloaded objects) — is
/// [`TxnId::INIT`]. Ordinary transaction numbers 0, 1, 2, … are free
/// for application use, matching the paper's `T0`, `T1`, … naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u32);

impl TxnId {
    /// The initialization transaction `Tinit` (§4.1).
    pub const INIT: TxnId = TxnId(u32::MAX);

    /// True for [`TxnId::INIT`].
    #[inline]
    pub fn is_init(self) -> bool {
        self == TxnId::INIT
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_init() {
            write!(f, "Tinit")
        } else {
            write!(f, "T{}", self.0)
        }
    }
}

/// Identifier of an object (a tuple, in the relational reading of §4.3).
///
/// A deleted-then-reinserted tuple is *two distinct objects* in the
/// model; builders enforce this by never reusing an `ObjectId` after a
/// committed dead version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Identifier of a relation (table). Every object belongs to exactly
/// one relation, fixed at creation — conceptually at `Tinit` time
/// (§4.3: "a tuple's relation is known in our model when the database
/// is initialized").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationId(pub u32);

impl fmt::Display for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rel{}", self.0)
    }
}

/// Identifier of a predicate instance (the boolean condition plus the
/// relations it ranges over, Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredicateId(pub u32);

impl fmt::Display for PredicateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of one version of one object: `x_{i:m}` in the paper —
/// the `seq`-th modification of the object by transaction `txn`.
///
/// The object itself is *not* part of the id (exactly as in the paper's
/// notation); a `VersionId` is always interpreted relative to an
/// [`ObjectId`]. The initial version `x_init` is
/// [`VersionId::INIT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionId {
    /// The writing transaction `Ti`.
    pub txn: TxnId,
    /// 1-based modification count of this object by `txn` (`m` in
    /// `x_{i:m}`).
    pub seq: u32,
}

impl VersionId {
    /// The initial version `x_init` installed by `Tinit`.
    pub const INIT: VersionId = VersionId {
        txn: TxnId::INIT,
        seq: 1,
    };

    /// Creates the version id for `txn`'s `seq`-th write of an object.
    pub fn new(txn: TxnId, seq: u32) -> Self {
        debug_assert!(seq >= 1, "version seq is 1-based");
        VersionId { txn, seq }
    }

    /// True for [`VersionId::INIT`].
    #[inline]
    pub fn is_init(self) -> bool {
        self.txn.is_init()
    }
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_init() {
            write!(f, "init")
        } else if self.seq == 1 {
            // Paper convention: x_i denotes T_i's (final) modification;
            // the :1 suffix is noise for single-write transactions.
            write!(f, "{}", self.txn.0)
        } else {
            write!(f, "{}:{}", self.txn.0, self.seq)
        }
    }
}

/// Multiplicative hasher (the FxHash recipe) for the maps keyed by the
/// ids above and by object names: small keys, no adversary, and SipHash
/// was most of the cost of building a history (and a measurable share
/// of the streaming checker's per-edge provenance work).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A hash map over [`IdHasher`].
pub type IdMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

/// A hash set over [`IdHasher`].
pub(crate) type IdSet<K> = std::collections::HashSet<K, std::hash::BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_txn_is_reserved() {
        assert!(TxnId::INIT.is_init());
        assert!(!TxnId(0).is_init());
        assert_eq!(TxnId::INIT.to_string(), "Tinit");
        assert_eq!(TxnId(3).to_string(), "T3");
    }

    #[test]
    fn version_display_matches_paper_notation() {
        assert_eq!(VersionId::new(TxnId(2), 1).to_string(), "2");
        assert_eq!(VersionId::new(TxnId(2), 3).to_string(), "2:3");
        assert_eq!(VersionId::INIT.to_string(), "init");
    }

    #[test]
    fn init_version_belongs_to_init_txn() {
        assert!(VersionId::INIT.is_init());
        assert_eq!(VersionId::INIT.txn, TxnId::INIT);
        assert_eq!(VersionId::INIT.seq, 1);
    }
}
