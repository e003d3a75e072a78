//! Fault isolation vocabulary: per-session health phases, failure records,
//! step deadlines, and the restart/backoff policy.
//!
//! The state machine a session moves through:
//!
//! ```text
//!          deadline miss                 misses_to_quarantine
//! Nominal ───────────────► SlowSuspect ─────────────────────► Quarantined
//!    ▲                          │                                  │
//!    │   RECOVERY_STEPS clean   │          restart budget left     │
//!    └──────────────────────────┘     ┌────────────────────────────┘
//!                                     ▼
//!                                Restarting ──► Nominal (first clean step)
//! ```
//!
//! A panic quarantines immediately (no `SlowSuspect` detour). Quarantined
//! sessions with restart budget re-enter through admission control after a
//! capped exponential backoff measured in *scheduler rounds* — a unit that
//! is deterministic and seedable, unlike wall time.

/// Clean windows needed to demote `SlowSuspect` → `Nominal`.
const RECOVERY_STEPS: usize = 2;

/// Base restart backoff in scheduler rounds; doubles per restart.
const BACKOFF_BASE_ROUNDS: usize = 2;

/// Restart backoff ceiling in scheduler rounds.
const BACKOFF_CAP_ROUNDS: usize = 32;

/// Seed of the deterministic backoff jitter.
const BACKOFF_SEED: u64 = 0;

/// Where a session sits in the fault-isolation state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionPhase {
    /// Healthy, meeting its deadlines.
    Nominal,
    /// Missed a step deadline recently; still running, under observation.
    SlowSuspect,
    /// Isolated: panicked or exceeded the deadline-miss budget. No further
    /// steps execute unless the restart ladder revives it.
    Quarantined,
    /// Revived from its last checkpoint, not yet re-proven healthy.
    Restarting,
}

impl std::fmt::Display for SessionPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionPhase::Nominal => write!(f, "nominal"),
            SessionPhase::SlowSuspect => write!(f, "slow-suspect"),
            SessionPhase::Quarantined => write!(f, "quarantined"),
            SessionPhase::Restarting => write!(f, "restarting"),
        }
    }
}

/// Why a session was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCause {
    /// The step panicked (caught at the session boundary).
    Panic,
    /// The step-deadline watchdog exceeded its consecutive-miss budget.
    DeadlineMiss,
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Panic => write!(f, "panic"),
            FailureCause::DeadlineMiss => write!(f, "deadline-miss"),
        }
    }
}

/// Everything known about a session's (most recent) quarantine event.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// What went wrong.
    pub cause: FailureCause,
    /// Human-readable context: the panic payload string, or the watchdog's
    /// miss accounting.
    pub detail: String,
    /// Frame cursor at failure (index into the session's frame stream).
    pub frame: usize,
    /// Windows completed before the failure.
    pub window: usize,
    /// Restarts already consumed when this failure happened.
    pub restarts_before: usize,
}

/// Step-deadline policy: the soft deadline is the Eq. 13 modelled window
/// latency times `multiplier`.
///
/// Deadlines are measured on a logical clock: a window's cost is the number
/// of scheduler rounds it consumed (1 + stall rounds), and the deadline is
/// `multiplier` rounds. Both sides of the Eq. 13 comparison scale by the
/// modelled window latency, so the modelled budget cancels to a pure round
/// count — bit-reproducible at any pool size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlinePolicy {
    /// Deadline as a multiple of the modelled window latency: the round
    /// budget per window.
    pub multiplier: f64,
    /// Consecutive misses that escalate `SlowSuspect` → `Quarantined`.
    pub misses_to_quarantine: usize,
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        Self {
            multiplier: 8.0,
            misses_to_quarantine: 2,
        }
    }
}

/// Restart ladder: how many revivals a quarantined session gets. The
/// backoff between them is fixed (`backoff_rounds`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Maximum restarts per session (0 disables the ladder entirely —
    /// quarantine is then terminal and no checkpoints are taken).
    pub max_restarts: usize,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        Self { max_restarts: 1 }
    }
}

/// Backoff before restart number `restart_n` (0-based), in scheduler
/// rounds: capped exponential plus seeded jitter keyed by the session name
/// hash, so two sessions quarantined in the same round do not stampede the
/// admission queue together. Deterministic — no wall clock, no shared RNG
/// state.
pub(crate) fn backoff_rounds(name_hash: u64, restart_n: usize) -> usize {
    // Doublings that reach the cap. Later restarts stay at the cap: the
    // shift amount is saturated, so it never reaches the word width.
    const MAX_DOUBLINGS: usize = (BACKOFF_CAP_ROUNDS / BACKOFF_BASE_ROUNDS).ilog2() as usize;
    let exp = (BACKOFF_BASE_ROUNDS << restart_n.min(MAX_DOUBLINGS)).min(BACKOFF_CAP_ROUNDS);
    let jitter =
        splitmix64(BACKOFF_SEED ^ name_hash ^ restart_n as u64) as usize % BACKOFF_BASE_ROUNDS;
    exp + jitter
}

/// FNV-1a over a byte string — the session-name hash feeding backoff
/// jitter (same construction as `SessionReport::digest`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Verdict of one deadline observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineVerdict {
    /// Within deadline and not under observation.
    Ok,
    /// Missed recently (or just now); keep running under observation.
    Slow,
    /// Consecutive-miss budget exhausted: quarantine.
    Quarantine,
}

/// Streak accounting for the step-deadline watchdog. Lives *inside* the
/// checkpointed session core, so a restart also resets the miss streak the
/// failure accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineWatchdog {
    consecutive_misses: usize,
    clean_streak: usize,
    slow: bool,
}

impl DeadlineWatchdog {
    /// Folds one window's miss/clean observation into the streaks and
    /// returns the escalation verdict.
    pub fn observe(&mut self, missed: bool, policy: &DeadlinePolicy) -> DeadlineVerdict {
        if missed {
            self.consecutive_misses += 1;
            self.clean_streak = 0;
            self.slow = true;
            if self.consecutive_misses >= policy.misses_to_quarantine.max(1) {
                return DeadlineVerdict::Quarantine;
            }
            return DeadlineVerdict::Slow;
        }
        self.consecutive_misses = 0;
        if self.slow {
            self.clean_streak += 1;
            if self.clean_streak >= RECOVERY_STEPS {
                self.slow = false;
                self.clean_streak = 0;
                return DeadlineVerdict::Ok;
            }
            return DeadlineVerdict::Slow;
        }
        DeadlineVerdict::Ok
    }

    /// Miss streak accounting, for failure-record details.
    pub fn consecutive_misses(&self) -> usize {
        self.consecutive_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_escalates_and_recovers() {
        let policy = DeadlinePolicy {
            misses_to_quarantine: 2,
            ..DeadlinePolicy::default()
        };
        let mut w = DeadlineWatchdog::default();
        assert_eq!(w.observe(false, &policy), DeadlineVerdict::Ok);
        assert_eq!(w.observe(true, &policy), DeadlineVerdict::Slow);
        // One clean window interrupts the consecutive streak…
        assert_eq!(w.observe(false, &policy), DeadlineVerdict::Slow);
        // …so the next miss is again the first of a streak.
        assert_eq!(w.observe(true, &policy), DeadlineVerdict::Slow);
        assert_eq!(w.observe(true, &policy), DeadlineVerdict::Quarantine);
    }

    #[test]
    fn watchdog_needs_recovery_steps_to_clear() {
        let policy = DeadlinePolicy {
            misses_to_quarantine: 3,
            ..DeadlinePolicy::default()
        };
        let mut w = DeadlineWatchdog::default();
        assert_eq!(w.observe(true, &policy), DeadlineVerdict::Slow);
        assert_eq!(w.observe(false, &policy), DeadlineVerdict::Slow);
        assert_eq!(w.observe(false, &policy), DeadlineVerdict::Ok);
        assert_eq!(w.observe(false, &policy), DeadlineVerdict::Ok);
    }

    #[test]
    fn backoff_is_capped_exponential_with_deterministic_jitter() {
        let h = fnv1a(b"car-3");
        // Restarts past the shift width (63 and beyond) stay at the cap.
        let restarts = [0, 1, 2, 3, 4, 5, 6, 7, 63, 200];
        let rounds: Vec<usize> = restarts.iter().map(|&n| backoff_rounds(h, n)).collect();
        assert_eq!(
            rounds,
            restarts
                .iter()
                .map(|&n| backoff_rounds(h, n))
                .collect::<Vec<_>>()
        );
        // Exponential portion plus jitter < base.
        let exps = [2, 4, 8, 16, 32, 32, 32, 32, 32, 32];
        for ((&n, &r), exp) in restarts.iter().zip(&rounds).zip(exps) {
            assert!(r >= exp && r < exp + 2, "restart {n}: {r} vs exp {exp}");
        }
        // Different sessions de-synchronize.
        let other: Vec<usize> = restarts
            .iter()
            .map(|&n| backoff_rounds(fnv1a(b"drone-1"), n))
            .collect();
        assert_ne!(rounds, other);
    }
}
