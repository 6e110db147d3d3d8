//! The roster of concurrency-control schemes the experiments run.

use adya_core::IsolationLevel;
use adya_engine::{
    CertifyLevel, Engine, LockConfig, LockingEngine, MvccEngine, MvccMode, MvtoEngine, OccEngine,
    SgtEngine,
};

/// One engine configuration and the isolation level every history it
/// commits must satisfy.
#[derive(Debug, Clone, Copy)]
pub struct Scheme {
    /// The engine's [`Engine::name`].
    pub name: &'static str,
    /// Builds a fresh, empty engine.
    pub make: fn() -> Box<dyn Engine>,
    /// The level the scheme promises.
    pub guarantees: IsolationLevel,
}

/// Every configuration that promises a level, strongest first within a
/// family: the locking rows of Figure 1 (Degree 0 is absent — it
/// proscribes nothing, so there is no level to hold it to), OCC, the
/// SGT certifier at its three levels, both MVCC modes, and MVTO. A site
/// that wants fewer filters by name or by level.
pub fn schemes() -> Vec<Scheme> {
    use IsolationLevel::*;
    fn scheme(name: &'static str, make: fn() -> Box<dyn Engine>, level: IsolationLevel) -> Scheme {
        Scheme {
            name,
            make,
            guarantees: level,
        }
    }
    vec![
        scheme(
            "2PL-serializable",
            || Box::new(LockingEngine::new(LockConfig::serializable())),
            PL3,
        ),
        scheme(
            "2PL-repeatable-read",
            || Box::new(LockingEngine::new(LockConfig::repeatable_read())),
            PL299,
        ),
        scheme(
            "2PL-read-committed",
            || Box::new(LockingEngine::new(LockConfig::read_committed())),
            PL2,
        ),
        scheme(
            "2PL-read-uncommitted",
            || Box::new(LockingEngine::new(LockConfig::read_uncommitted())),
            PL1,
        ),
        scheme("OCC", || Box::new(OccEngine::new()), PL3),
        scheme(
            "SGT-PL3",
            || Box::new(SgtEngine::new(CertifyLevel::PL3)),
            PL3,
        ),
        scheme(
            "SGT-PL2",
            || Box::new(SgtEngine::new(CertifyLevel::PL2)),
            PL2,
        ),
        scheme(
            "SGT-PL1",
            || Box::new(SgtEngine::new(CertifyLevel::PL1)),
            PL1,
        ),
        scheme(
            "MVCC-SI",
            || Box::new(MvccEngine::new(MvccMode::SnapshotIsolation)),
            PLSI,
        ),
        scheme(
            "MVCC-RC",
            || Box::new(MvccEngine::new(MvccMode::ReadCommitted)),
            PL2,
        ),
        scheme("MVTO", || Box::new(MvtoEngine::new()), PL3),
    ]
}

/// One scheme per concurrency-control family — locking, optimistic,
/// certifier, multi-version, timestamp ordering — each in its
/// strongest configuration.
pub fn families() -> Vec<Scheme> {
    const STRONGEST: [&str; 5] = ["2PL-serializable", "OCC", "SGT-PL3", "MVCC-SI", "MVTO"];
    let mut all = schemes();
    all.retain(|s| STRONGEST.contains(&s.name));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_engines_own_and_distinct() {
        let all = schemes();
        for s in &all {
            assert_eq!((s.make)().name(), s.name);
        }
        let mut names: Vec<_> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert_eq!(families().len(), 5);
    }
}
