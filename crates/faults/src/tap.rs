//! Tap-side crash points for the online ingest path.
//!
//! [`FaultPlane`](crate::FaultPlane) schedules crashes at *engine*
//! commit attempts — the PR-4 scenario where the system of record dies
//! mid-commit. The tap (the process feeding events into an
//! [`OnlineChecker`](../../adya_online/struct.OnlineChecker.html) — the
//! `adya-check --stream` pipe or an `adya-serve` session) can die at a
//! different, strictly nastier set of points: between appending an
//! event to its durable log and applying it, on *any* event, not just
//! commits. [`TapCrashPlane`] schedules those points deterministically
//! so recovery tests can kill the ingest path exactly where they mean
//! to.
//!
//! Non-commit events only: a crash scheduled on a commit would overlap
//! the engine-side schedule and test the same code twice. The counter
//! advances once per non-commit event observed, and the decision for
//! the k-th such event is pure in the configuration — no seed needed,
//! because unlike the probabilistic plane this one is an exact
//! schedule: `crash_at`, one kill point.

use std::sync::atomic::{AtomicU64, Ordering};

/// Crash schedule for a [`TapCrashPlane`]. `None` = never crash.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapCrashConfig {
    /// Crash immediately before applying the Nth non-commit event
    /// (1-based), once.
    pub crash_at: Option<u64>,
}

/// A deterministic crash clock for the ingest tap. Shared (`Arc`)
/// between the server's sessions so the schedule covers the whole
/// fleet's interleaved ingest order.
#[derive(Debug, Default)]
pub struct TapCrashPlane {
    cfg: TapCrashConfig,
    events: AtomicU64,
}

impl TapCrashPlane {
    /// A plane following `cfg`'s schedule.
    pub fn new(cfg: TapCrashConfig) -> TapCrashPlane {
        TapCrashPlane {
            cfg,
            ..TapCrashPlane::default()
        }
    }

    /// Advances the crash clock for one ingested event; true when the
    /// tap must crash *before applying* it. `is_terminal` events
    /// (commit/abort — the engine-side plane's territory) never crash
    /// and do not advance the clock.
    pub fn crash_due(&self, is_terminal: bool) -> bool {
        if is_terminal {
            return false;
        }
        let n = self.events.fetch_add(1, Ordering::Relaxed) + 1;
        let due = self.cfg.crash_at == Some(n);
        if due {
            adya_obs::counter!("faults.tap_crashes").inc();
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_crash_at_fires_exactly_once() {
        let p = TapCrashPlane::new(TapCrashConfig { crash_at: Some(3) });
        let fired: Vec<bool> = (0..6).map(|_| p.crash_due(false)).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
    }

    #[test]
    fn terminals_pass_through_without_advancing_the_clock() {
        let p = TapCrashPlane::new(TapCrashConfig { crash_at: Some(2) });
        assert!(!p.crash_due(false)); // event 1
        assert!(!p.crash_due(true)); // commit: not counted
        assert!(!p.crash_due(true)); // abort: not counted
        assert!(p.crash_due(false)); // event 2: crash point
        assert!(!p.crash_due(false)); // event 3: once only
    }

    #[test]
    fn default_plane_never_crashes() {
        let p = TapCrashPlane::default();
        assert!((0..100).all(|_| !p.crash_due(false)));
    }
}
