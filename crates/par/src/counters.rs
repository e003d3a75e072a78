//! Feather-weight per-phase performance counters.
//!
//! The solver hot path is a handful of fixed phases (assembly, Schur product,
//! factorization, back-substitution, …) whose relative cost decides every
//! optimization, yet a profiler is rarely attached when a regression lands in
//! a BENCH file. These counters attribute wall time to [`Phase`]s with a cost
//! low enough to leave compiled into every binary:
//!
//! * **disabled** (the default): [`time`] is one relaxed atomic load and a
//!   branch — no clock read, no stores. Library code can wrap its hot phases
//!   unconditionally.
//! * **enabled** ([`enable`]): two monotonic clock reads per timed scope and
//!   two relaxed atomic adds (nanoseconds + call count). Accumulators are
//!   global atomics, so concurrently-solving threads (the fleet layer)
//!   aggregate into the same totals.
//!
//! Timed scopes may nest; each phase accumulates its *inclusive* time, so a
//! parent phase (e.g. a whole linear solve) can coexist with its children.
//! The bench bins call [`reset`] + [`enable`] around their measurement loop
//! and print the [`snapshot`] (as `archytas-telemetry` phase rows) in a
//! timing-only `REC` line of kind `phases`, which `scripts/bench_smoke.sh`
//! collects into `BENCH_criterion.jsonl`, giving every archived benchmark
//! run a per-phase cost table.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Pipeline phases the counters attribute time to.
///
/// The set mirrors the solver's fixed structure (one slot per phase keeps the
/// record path allocation- and lookup-free); [`Phase::Other`] is the spare
/// slot for ad-hoc attribution in experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Normal-equation assembly (linearization + scatter).
    Assembly = 0,
    /// Marquardt damping of the assembled system (at f32 precision, plus
    /// its cast into the f32 twin).
    Damp,
    /// Schur-complement product `S = V − W·U⁻¹·Wᵀ` and reduced RHS.
    SchurProduct,
    /// Cholesky factorization of the reduced system.
    Factorization,
    /// Triangular solves plus the landmark back-substitution.
    BackSubstitution,
    /// LM step-acceptance test (candidate window + cost evaluation).
    CostEvaluation,
    /// Sliding-window marginalization.
    Marginalization,
    /// Anything else worth attributing in a one-off experiment.
    Other,
}

/// Number of [`Phase`] slots.
pub const PHASE_COUNT: usize = 8;

/// Display names, indexed by the `Phase` discriminant.
const PHASE_NAMES: [&str; PHASE_COUNT] = [
    "assembly",
    "damp",
    "schur_product",
    "factorization",
    "back_substitution",
    "cost_evaluation",
    "marginalization",
    "other",
];

static ENABLED: AtomicBool = AtomicBool::new(false);
static NANOS: [AtomicU64; PHASE_COUNT] = [const { AtomicU64::new(0) }; PHASE_COUNT];
static CALLS: [AtomicU64; PHASE_COUNT] = [const { AtomicU64::new(0) }; PHASE_COUNT];

/// Whether counters are currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts recording. Accumulators keep their current totals; call [`reset`]
/// first for a fresh measurement window.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording. [`time`] reverts to its one-load fast path.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Zeroes every accumulator.
pub fn reset() {
    for i in 0..PHASE_COUNT {
        NANOS[i].store(0, Ordering::Relaxed);
        CALLS[i].store(0, Ordering::Relaxed);
    }
}

/// Runs `f`, attributing its wall time to `phase` when recording is enabled.
///
/// Disabled cost: one relaxed load and a branch around the plain call.
#[inline]
pub fn time<R>(phase: Phase, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    NANOS[phase as usize].fetch_add(ns, Ordering::Relaxed);
    CALLS[phase as usize].fetch_add(1, Ordering::Relaxed);
    out
}

/// Accumulated totals of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Display name (stable, snake_case).
    pub name: &'static str,
    /// Total attributed nanoseconds.
    pub ns: u64,
    /// Number of timed scopes.
    pub calls: u64,
}

/// Current totals for every phase, in declaration order.
pub fn snapshot() -> [PhaseTotal; PHASE_COUNT] {
    std::array::from_fn(|i| PhaseTotal {
        name: PHASE_NAMES[i],
        ns: NANOS[i].load(Ordering::Relaxed),
        calls: CALLS[i].load(Ordering::Relaxed),
    })
}

/// Total nanoseconds attributed across every phase — the denominator for
/// per-phase share computations (e.g. the telemetry layer's phase table).
pub fn attributed_total_ns() -> u64 {
    NANOS.iter().map(|n| n.load(Ordering::Relaxed)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The accumulators are process-global, so the tests below run under a
    // lock to keep `cargo test`'s parallel threads from interleaving.
    use std::sync::Mutex;
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _guard = LOCK.lock().unwrap();
        disable();
        reset();
        let v = time(Phase::Assembly, || 41 + 1);
        assert_eq!(v, 42);
        assert!(snapshot().iter().all(|t| t.ns == 0 && t.calls == 0));
    }

    #[test]
    fn enabled_accumulates_and_resets() {
        let _guard = LOCK.lock().unwrap();
        reset();
        enable();
        for _ in 0..3 {
            time(Phase::Factorization, || {
                std::hint::black_box((0..1000).sum::<u64>())
            });
        }
        disable();
        let snap = snapshot();
        let fact = snap[Phase::Factorization as usize];
        assert_eq!(fact.name, "factorization");
        assert_eq!(fact.calls, 3);
        assert_eq!(snap[Phase::Assembly as usize].calls, 0);
        reset();
        assert!(snapshot().iter().all(|t| t.ns == 0 && t.calls == 0));
    }

    #[test]
    fn nested_scopes_attribute_inclusively() {
        let _guard = LOCK.lock().unwrap();
        reset();
        enable();
        time(Phase::Other, || {
            time(Phase::BackSubstitution, || {
                std::hint::black_box((0..100).sum::<u64>())
            })
        });
        disable();
        let snap = snapshot();
        let outer = snap[Phase::Other as usize];
        let inner = snap[Phase::BackSubstitution as usize];
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.ns >= inner.ns);
        reset();
    }
}
