//! The portable isolation levels (§5, Figure 6) and the extension
//! levels of Adya's thesis, as checkable predicates over histories.

use std::fmt;

use crate::phenomena::{Phenomenon, PhenomenonKind};

/// An isolation level defined by the phenomena it proscribes.
///
/// The ANSI chain is `PL-1 ⊂ PL-2 ⊂ PL-2.99 ⊂ PL-3` (§5); the
/// extension levels slot in as `PL-2 ⊂ PL-CS ⊂ …`, `PL-2 ⊂ PL-2+ ⊂
/// PL-SI` and `PL-2+ ⊂ PL-3` — see [`IsolationLevel::implies`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IsolationLevel {
    /// Proscribes G0 — writes are completely isolated (§5.1).
    PL1,
    /// Proscribes G1 (= G1a ∧ G1b ∧ G1c) — no dirty reads (§5.2).
    PL2,
    /// Cursor Stability: PL-2 plus no G-cursor — protects
    /// read-modify-write through a cursor from lost updates (thesis
    /// §4.2; mentioned in §1/§6 of the paper).
    PLCS,
    /// Monotonic Atomic View: PL-2 plus no G-monotonic — other
    /// transactions' effects become visible atomically (thesis §4.2).
    PLMAV,
    /// PL-2+: PL-2 plus no G-single — the weakest level guaranteeing
    /// consistent reads (thesis §4.2; §1/§6 of the paper).
    PL2Plus,
    /// REPEATABLE READ analogue: PL-2 plus no G2-item (§5.4).
    PL299,
    /// Snapshot Isolation: PL-2 plus no G-SIa/G-SIb (thesis §4.3;
    /// §1/§6 of the paper).
    PLSI,
    /// Full (conflict-)serializability: PL-2 plus no G2 (§5.3).
    PL3,
}

impl IsolationLevel {
    /// All levels, in report order (weakest first along the ANSI
    /// chain, extensions in between).
    pub const ALL: [IsolationLevel; 8] = [
        IsolationLevel::PL1,
        IsolationLevel::PL2,
        IsolationLevel::PLCS,
        IsolationLevel::PLMAV,
        IsolationLevel::PL2Plus,
        IsolationLevel::PL299,
        IsolationLevel::PLSI,
        IsolationLevel::PL3,
    ];

    /// The ANSI chain of §5, weakest first.
    pub const ANSI: [IsolationLevel; 4] = [
        IsolationLevel::PL1,
        IsolationLevel::PL2,
        IsolationLevel::PL299,
        IsolationLevel::PL3,
    ];

    /// The phenomena this level proscribes (Figure 6, extended).
    pub fn proscribes(self) -> &'static [PhenomenonKind] {
        use PhenomenonKind::*;
        match self {
            IsolationLevel::PL1 => &[G0],
            IsolationLevel::PL2 => &[G1a, G1b, G1c],
            IsolationLevel::PLCS => &[G1a, G1b, G1c, GCursor],
            IsolationLevel::PLMAV => &[G1a, G1b, G1c, GMonotonic],
            IsolationLevel::PL2Plus => &[G1a, G1b, G1c, GSingle],
            IsolationLevel::PL299 => &[G1a, G1b, G1c, G2Item],
            IsolationLevel::PLSI => &[G1a, G1b, G1c, GSIa, GSIb],
            IsolationLevel::PL3 => &[G1a, G1b, G1c, G2],
        }
    }

    /// Figure 6 as a rule: a history is admitted at this level iff
    /// none of the proscribed phenomena is `present` in it. Batch
    /// report and streaming verdict both ask it, each of its own set.
    pub fn admits(self, present: impl Fn(PhenomenonKind) -> bool) -> bool {
        self.proscribes().iter().all(|&k| !present(k))
    }

    /// The strongest level of the ANSI chain (PL-1 → PL-2 → PL-2.99 →
    /// PL-3) that [`admits`](Self::admits) the `present` phenomena, or
    /// `None` if even PL-1 is violated (a "degree 0" history).
    pub fn strongest_ansi(present: impl Fn(PhenomenonKind) -> bool) -> Option<IsolationLevel> {
        Self::ANSI
            .iter()
            .rev()
            .copied()
            .find(|l| l.admits(&present))
    }

    /// True if satisfying `self` logically implies satisfying
    /// `weaker` — the level lattice of Adya's thesis (Figure 4-5
    /// there): every level above PL-1 implies PL-1 (G1c includes G0),
    /// PL-3 implies all but PL-SI and PL-CS's cursor clause…
    /// conservatively encoded from the proscription sets:
    /// `self ⊒ weaker` iff every phenomenon `weaker` proscribes is
    /// implied-proscribed by `self`'s set.
    pub fn implies(self, weaker: IsolationLevel) -> bool {
        weaker
            .proscribes()
            .iter()
            .all(|p| self.implied_proscribed(*p))
    }

    /// True if proscribing `self`'s set rules out phenomenon `p`:
    /// directly, or through the known implications
    /// `¬G1c ⇒ ¬G0`, `¬G2 ⇒ ¬G2-item ∧ ¬G-single ∧ ¬G-cursor`,
    /// `¬G2-item ⇒ ¬G-cursor`, `¬G-single ⇒ ¬G-cursor(single)`… only
    /// implications that hold for *all* histories are encoded.
    fn implied_proscribed(self, p: PhenomenonKind) -> bool {
        use PhenomenonKind::*;
        let set = self.proscribes();
        if set.contains(&p) {
            return true;
        }
        match p {
            // Any dependency cycle (G0 ⊆ G1c).
            G0 => set.contains(&G1c),
            // Any cycle with an item anti-dep is a cycle with an
            // anti-dep.
            G2Item => set.contains(&G2),
            // A single-anti DSG cycle is an anti cycle, and also an
            // SSG cycle with a single anti edge (DSG ⊆ SSG).
            GSingle => set.contains(&G2) || set.contains(&GSIb),
            // A cursor-labeled cycle is an item-anti cycle, hence also
            // an anti cycle.
            GCursor => set.contains(&G2) || set.contains(&G2Item),
            // A G-monotonic USG cycle folds to a DSG cycle with at
            // most one anti edge: G1c (zero) or G-single (one). Every
            // level proscribing G-single here also proscribes G1c.
            GMonotonic => set.contains(&GSingle) || set.contains(&G2) || set.contains(&GSIb),
            _ => false,
        }
    }
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsolationLevel::PL1 => write!(f, "PL-1"),
            IsolationLevel::PL2 => write!(f, "PL-2"),
            IsolationLevel::PLCS => write!(f, "PL-CS"),
            IsolationLevel::PLMAV => write!(f, "PL-MAV"),
            IsolationLevel::PL2Plus => write!(f, "PL-2+"),
            IsolationLevel::PL299 => write!(f, "PL-2.99"),
            IsolationLevel::PLSI => write!(f, "PL-SI"),
            IsolationLevel::PL3 => write!(f, "PL-3"),
        }
    }
}

/// The verdict of checking one history against one level.
#[derive(Debug, Clone)]
pub struct LevelCheck {
    /// The level checked.
    pub level: IsolationLevel,
    /// The proscribed phenomena that occurred (empty ⇒ the history is
    /// admitted at this level).
    pub violations: Vec<Phenomenon>,
}

impl LevelCheck {
    /// `level`'s proscribed kinds looked up, in proscription order,
    /// in `found`: one witness per phenomenon kind present.
    pub(crate) fn of(level: IsolationLevel, found: &[Phenomenon]) -> LevelCheck {
        let violations = level
            .proscribes()
            .iter()
            .filter_map(|&k| found.iter().find(|p| p.kind() == k).cloned())
            .collect();
        LevelCheck { level, violations }
    }

    /// True if the history satisfies the level.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for LevelCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            write!(f, "{}: ok", self.level)
        } else {
            write!(f, "{}: violated —", self.level)?;
            for v in &self.violations {
                write!(f, " [{v}]")?;
            }
            Ok(())
        }
    }
}

/// The full classification of a history against every level.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// One check per level, in [`IsolationLevel::ALL`] order.
    pub checks: Vec<LevelCheck>,
}

impl LevelReport {
    /// Every level's check read off `found`: a level is nothing but
    /// its proscription list, so classifying is a lookup.
    pub(crate) fn of(found: &[Phenomenon]) -> LevelReport {
        let checks = IsolationLevel::ALL
            .iter()
            .map(|&l| LevelCheck::of(l, found))
            .collect();
        LevelReport { checks }
    }

    /// True if some check cites a witness of `kind` — every kind is
    /// proscribed by some level, so: if it occurs in the history.
    fn present(&self, kind: PhenomenonKind) -> bool {
        self.checks
            .iter()
            .any(|c| c.violations.iter().any(|p| p.kind() == kind))
    }

    /// True if the history is admitted at `level`.
    pub fn satisfies(&self, level: IsolationLevel) -> bool {
        level.admits(|k| self.present(k))
    }

    /// The strongest satisfied level of the ANSI chain, if any.
    pub fn strongest_ansi(&self) -> Option<IsolationLevel> {
        IsolationLevel::strongest_ansi(|k| self.present(k))
    }
}

impl fmt::Display for LevelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;
    use adya_history::parse_history;

    #[test]
    fn serial_history_satisfies_everything() {
        let h = parse_history("b1 w1(x,1) c1 b2 r2(x1) w2(x,2) c2").unwrap();
        let r = classify(&h);
        for l in IsolationLevel::ALL {
            assert!(r.satisfies(l), "serial history must satisfy {l}");
        }
        assert_eq!(r.strongest_ansi(), Some(IsolationLevel::PL3));
    }

    #[test]
    fn wcycle_fails_even_pl1() {
        let h =
            parse_history("w1(x,2) w2(x,5) w2(y,5) c2 w1(y,8) c1 [x1 << x2, y2 << y1]").unwrap();
        let r = classify(&h);
        assert!(!r.satisfies(IsolationLevel::PL1));
        assert_eq!(r.strongest_ansi(), None);
    }

    #[test]
    fn dirty_read_cycle_is_pl1_not_pl2() {
        // Circular information flow via reads only.
        let h = parse_history("w1(x,1) w2(y,2) r1(y2) r2(x1) c1 c2").unwrap();
        let r = classify(&h);
        assert!(r.satisfies(IsolationLevel::PL1));
        assert!(!r.satisfies(IsolationLevel::PL2));
        assert_eq!(r.strongest_ansi(), Some(IsolationLevel::PL1));
    }

    #[test]
    fn read_skew_is_pl2_not_pl3() {
        // H2 of §3: single anti-dependency cycle.
        let h = parse_history("r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(y1,9) c2")
            .unwrap();
        let r = classify(&h);
        assert!(r.satisfies(IsolationLevel::PL2));
        assert!(!r.satisfies(IsolationLevel::PL2Plus), "G-single fires");
        assert!(!r.satisfies(IsolationLevel::PL299), "item anti cycle");
        assert!(!r.satisfies(IsolationLevel::PL3));
        assert_eq!(r.strongest_ansi(), Some(IsolationLevel::PL2));
    }

    #[test]
    fn write_skew_passes_si_fails_pl3() {
        let h = parse_history(
            "b1 b2 r1(xinit,5) r1(yinit,5) r2(xinit,5) r2(yinit,5) \
             w1(x,1) w2(y,1) c1 c2",
        )
        .unwrap();
        let r = classify(&h);
        assert!(r.satisfies(IsolationLevel::PLSI), "SI admits write skew");
        assert!(!r.satisfies(IsolationLevel::PL3));
        // The write-skew cycle has two anti-dependency edges
        // (T1 -rw-> T2 on y, T2 -rw-> T1 on x), so G-single does not
        // fire: both transactions read a consistent snapshot.
        assert!(r.satisfies(IsolationLevel::PL2Plus));
    }

    #[test]
    fn lattice_implications_hold() {
        use IsolationLevel::*;
        assert!(PL3.implies(PL299));
        assert!(PL3.implies(PL2Plus));
        assert!(PL3.implies(PLMAV));
        assert!(PL2Plus.implies(PLMAV));
        assert!(PLSI.implies(PLMAV));
        assert!(PLMAV.implies(PL2));
        assert!(!PLMAV.implies(PL2Plus));
        assert!(!PL299.implies(PLMAV), "2.99 does not proscribe G-single");
        assert!(PL3.implies(PLCS));
        assert!(PL3.implies(PL2));
        assert!(PL3.implies(PL1));
        assert!(PL299.implies(PL2));
        assert!(PL2Plus.implies(PL2));
        assert!(PLSI.implies(PL2));
        assert!(PL2.implies(PL1));
        assert!(!PL2.implies(PL3));
        assert!(!PL299.implies(PLSI));
        assert!(!PL1.implies(PL2));
    }

    #[test]
    fn display_report() {
        let h = parse_history("w1(x,1) c1").unwrap();
        let r = classify(&h);
        let s = r.to_string();
        assert!(s.contains("PL-3: ok"));
    }
}
