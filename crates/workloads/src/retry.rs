//! The drivers' shared retry discipline.
//!
//! Both drivers used to carry their own inline restart loops; under a
//! fault plane (`adya-faults`) those loops become the system's actual
//! recovery path, so they are factored into one explicit, metered
//! policy. A [`RetryPolicy`] bounds how hard a session fights for its
//! transaction: a restart budget, an optional per-transaction
//! operation deadline, and — for the threaded driver — bounded
//! exponential backoff with seeded jitter between `Blocked` retries.
//!
//! One deliberate asymmetry: a program's *own* `abort` step is
//! terminal and never reaches the policy — the drivers resolve it
//! directly. Every `Aborted(reason)` surfaced by an *operation* is
//! treated as restartable, including `Requested`: with an external
//! fault plane a transaction can be aborted out from under a thread
//! mid-operation, and the bookkeeping reason the engine attaches to
//! that race must not be confused with the program's intent.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bounds on a session's retry behaviour.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total transaction attempts per program (first try included).
    pub max_attempts: usize,
    /// Backoff spins (yields) after the first `Blocked` retry of an
    /// operation; doubles per consecutive retry.
    pub backoff_base: u32,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: u32,
    /// Fraction of the backoff drawn as seeded jitter (`0.0` = fixed
    /// schedule, `1.0` = up to double).
    pub jitter: f64,
    /// Operations one program may issue across all its attempts
    /// before the session gives up; `None` = unbounded.
    pub deadline_ops: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 25,
            backoff_base: 4,
            backoff_cap: 256,
            jitter: 0.5,
            deadline_ops: None,
        }
    }
}

/// Why a session stopped retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GiveUpCause {
    /// The restart budget ran out.
    Attempts,
    /// The per-transaction operation deadline ran out.
    Deadline,
}

impl RetryPolicy {
    /// Per-program retry state; `seed` feeds the jitter RNG so equal
    /// seeds replay equal backoff schedules.
    pub fn session(&self, seed: u64) -> RetrySession {
        RetrySession {
            policy: *self,
            rng: StdRng::seed_from_u64(seed),
            attempts: 1,
            ops: 0,
            streak: 0,
        }
    }
}

/// One program's retry state: attempt count, op deadline, and the
/// blocked-retry backoff streak.
#[derive(Debug)]
pub struct RetrySession {
    policy: RetryPolicy,
    rng: StdRng,
    attempts: usize,
    ops: u64,
    streak: u32,
}

impl RetrySession {
    /// Accounts one operation against the deadline. `false` means the
    /// deadline is exhausted and the session must give up.
    pub fn admit_op(&mut self) -> bool {
        self.ops += 1;
        match self.policy.deadline_ops {
            Some(d) if self.ops > d => {
                adya_obs::counter!("retry.deadline_giveups").inc();
                false
            }
            _ => true,
        }
    }

    /// Yields to spin before retrying a `Blocked` operation:
    /// exponential in the consecutive-block streak, capped, with
    /// seeded jitter.
    pub fn backoff_spins(&mut self) -> u32 {
        let exp = self.streak.min(16);
        self.streak += 1;
        let base = self
            .policy
            .backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.policy.backoff_cap);
        let jitter_max = ((base as f64) * self.policy.jitter) as u32;
        let spins = if jitter_max > 0 {
            base + self.rng.gen_range(0..=jitter_max)
        } else {
            base
        };
        adya_obs::histogram!("retry.backoff_spins").record(spins as u64);
        spins
    }

    /// An operation went through (or the attempt restarted): the
    /// consecutive-block streak is over.
    pub fn clear_backoff(&mut self) {
        self.streak = 0;
    }

    /// An attempt died. `Ok(())` means begin a fresh
    /// attempt; `Err` says why the session is done instead.
    pub fn should_restart(&mut self) -> Result<(), GiveUpCause> {
        self.streak = 0;
        if self.attempts >= self.policy.max_attempts {
            adya_obs::counter!("retry.giveups").inc();
            return Err(GiveUpCause::Attempts);
        }
        self.attempts += 1;
        adya_obs::counter!("retry.restarts").inc();
        Ok(())
    }

    /// Attempts begun so far (≥ 1).
    pub fn attempts(&self) -> usize {
        self.attempts
    }

    /// Operations accounted so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_budget_is_total_attempts() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..Default::default()
        };
        let mut s = p.session(0);
        assert!(s.should_restart().is_ok());
        assert!(s.should_restart().is_ok());
        assert_eq!(s.should_restart(), Err(GiveUpCause::Attempts));
        assert_eq!(s.attempts(), 3);
    }

    #[test]
    fn deadline_counts_ops_across_attempts() {
        let p = RetryPolicy {
            deadline_ops: Some(5),
            ..Default::default()
        };
        let mut s = p.session(0);
        for _ in 0..5 {
            assert!(s.admit_op());
        }
        s.should_restart().unwrap();
        assert!(!s.admit_op(), "deadline spans restarts");
    }

    #[test]
    fn backoff_grows_is_capped_and_replays_per_seed() {
        let p = RetryPolicy {
            backoff_base: 4,
            backoff_cap: 64,
            jitter: 0.5,
            ..Default::default()
        };
        let mut a = p.session(7);
        let mut b = p.session(7);
        let sa: Vec<u32> = (0..10).map(|_| a.backoff_spins()).collect();
        let sb: Vec<u32> = (0..10).map(|_| b.backoff_spins()).collect();
        assert_eq!(sa, sb, "jitter must replay from the seed");
        assert!(sa.windows(2).take(4).all(|w| w[1] >= w[0] || w[1] >= 64));
        // cap + max jitter
        assert!(sa.iter().all(|&s| (4..=96).contains(&s)), "{sa:?}");
        a.clear_backoff();
        let after = a.backoff_spins();
        assert!((4..=6).contains(&after), "streak resets: {after}");
    }
}
