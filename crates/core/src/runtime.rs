//! The run-time system (paper Sec. 6).
//!
//! The environment dictates the workload: windows with few feature points
//! need *more* NLS iterations to hold accuracy (Figs. 11–12), so a static
//! design must provision for the worst case. At run time Archytas:
//!
//! 1. maps the front-end's feature count to an iteration budget through an
//!    offline-profiled lookup table, debounced by a 2-bit saturating counter;
//! 2. looks up the memoized power-optimal sub-configuration `(nd, nm, s)`
//!    for that budget (Eq. 18, solved exhaustively offline for all six
//!    `Iter` values);
//! 3. passes the three numbers to the FPGA, which clock-gates down to them —
//!    no reconfiguration, effectively zero overhead.

use archytas_hw::{AcceleratorConfig, FpgaPlatform, LatencyTables, PowerModel};
use archytas_mdfg::ProblemShape;
use std::sync::Arc;

/// The paper caps the iteration knob at 6: beyond that accuracy stops
/// improving (Sec. 6.2).
pub const ITER_CAP: usize = 6;

/// Offline-profiled mapping from feature count to NLS iteration budget.
#[derive(Debug, Clone, PartialEq)]
pub struct IterPolicy {
    /// `(min_features, iterations)` thresholds, highest feature count first.
    thresholds: Vec<(usize, usize)>,
}

impl Default for IterPolicy {
    fn default() -> Self {
        Self::default_table()
    }
}

impl IterPolicy {
    /// The default profile: rich windows converge in 3 iterations; feature
    /// droughts need the full cap (shape of Figs. 11–12).
    pub fn default_table() -> Self {
        Self {
            thresholds: vec![(210, 3), (160, 4), (110, 5), (0, ITER_CAP)],
        }
    }

    /// Builds a policy from profiling samples `(features, iterations, rmse)`
    /// collected offline: for each feature bucket, the fewest iterations
    /// whose RMSE stays within `tolerance` (relative) of the best observed
    /// for that bucket.
    pub fn from_profile(samples: &[(usize, usize, f64)], tolerance: f64) -> Self {
        let buckets = [220usize, 180, 140, 100, 0];
        let mut thresholds = Vec::new();
        for (idx, &lo) in buckets.iter().enumerate() {
            let hi = if idx == 0 {
                usize::MAX
            } else {
                buckets[idx - 1]
            };
            let in_bucket: Vec<&(usize, usize, f64)> = samples
                .iter()
                .filter(|(f, _, _)| *f >= lo && *f < hi)
                .collect();
            let best = in_bucket
                .iter()
                .map(|(_, _, e)| *e)
                .fold(f64::INFINITY, f64::min);
            // An empty bucket (or one with no finite RMSE) taught us
            // nothing: provision the worst case. Without this guard,
            // `best` stays INFINITY and `e <= ∞·(1+tol)` silently accepts
            // iteration 1 for any bucket whose runs all diverged.
            let chosen = if !best.is_finite() {
                ITER_CAP
            } else {
                (1..=ITER_CAP)
                    .find(|it| {
                        in_bucket
                            .iter()
                            .filter(|(_, i, _)| i == it)
                            .any(|(_, _, e)| *e <= best * (1.0 + tolerance))
                    })
                    .unwrap_or(ITER_CAP)
            };
            thresholds.push((lo, chosen));
        }
        Self { thresholds }
    }

    /// Iteration budget for a feature count.
    pub fn iterations_for(&self, features: usize) -> usize {
        self.thresholds
            .iter()
            .find(|(min_f, _)| features >= *min_f)
            .map_or(ITER_CAP, |(_, it)| *it)
            .clamp(1, ITER_CAP)
    }
}

/// The 2-bit saturating counter that debounces iteration changes
/// (Sec. 6.2): the budget moves one step toward the table's target only
/// after the target has disagreed with the current budget for two
/// consecutive windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterCounter {
    current: usize,
    /// 2-bit confidence state (0..=3); 2 = "weakly confident".
    state: u8,
}

impl IterCounter {
    /// Starts at the given budget with weak confidence.
    pub fn new(initial: usize) -> Self {
        Self {
            current: initial.clamp(1, ITER_CAP),
            state: 2,
        }
    }

    /// Current iteration budget.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Overrides the budget immediately, bypassing the debounce — used by
    /// the safety watchdog when the estimator reports a degraded window.
    /// Confidence resets to "weakly confident" so the ladder back down is
    /// still debounced after the override lifts.
    pub fn force(&mut self, budget: usize) {
        self.current = budget.clamp(1, ITER_CAP);
        self.state = 2;
    }

    /// Feeds one window's mapped target; returns the (possibly updated)
    /// budget.
    pub fn observe(&mut self, target: usize) -> usize {
        let target = target.clamp(1, ITER_CAP);
        if target == self.current {
            self.state = (self.state + 1).min(3);
        } else if self.state == 0 {
            // Two consecutive disagreements: take one step toward the target.
            self.current = if target > self.current {
                self.current + 1
            } else {
                self.current - 1
            };
            self.state = 2;
        } else {
            self.state -= 1;
        }
        self.current
    }
}

/// The memoized `Iter → (nd, nm, s)` table (Eq. 18 solved offline for every
/// iteration count).
#[derive(Debug, Clone, PartialEq)]
pub struct GatingTable {
    built: AcceleratorConfig,
    /// Entry `i` is the active configuration for `Iter = i + 1`.
    per_iter: Vec<AcceleratorConfig>,
}

impl GatingTable {
    /// Solves Eq. 18 for each `Iter ∈ 1..=6`: minimum power subject to the
    /// latency bound and `config ≤ built` (the clock-gating constraint).
    /// Iterations needing more than the built design can deliver fall back
    /// to the full configuration.
    pub fn build(
        built: &AcceleratorConfig,
        shape: &ProblemShape,
        latency_bound_ms: f64,
        platform: &FpgaPlatform,
    ) -> Self {
        let power = PowerModel::for_platform(platform);
        let clock_khz = platform.clock_mhz * 1e3;
        let mut per_iter = Vec::with_capacity(ITER_CAP);
        for iter in 1..=ITER_CAP {
            // Bit-identical to `window_cycles` at every point, at a few
            // flops each.
            let tables = LatencyTables::new(shape, iter, built.nd, built.nm, built.s);
            let mut best: Option<(f64, AcceleratorConfig)> = None;
            for nd in 1..=built.nd {
                for nm in 1..=built.nm {
                    for s in 1..=built.s {
                        let c = AcceleratorConfig::new(nd, nm, s);
                        let lat = tables.window_cycles_at(nd, nm, s) / clock_khz;
                        if lat > latency_bound_ms {
                            continue;
                        }
                        let p = power.gated_power_w(built, &c);
                        if best.as_ref().is_none_or(|(bp, _)| p < *bp) {
                            best = Some((p, c));
                        }
                    }
                }
            }
            per_iter.push(best.map_or(*built, |(_, c)| c));
        }
        Self {
            built: *built,
            per_iter,
        }
    }

    /// Active configuration for an iteration budget.
    pub fn active_for(&self, iterations: usize) -> AcceleratorConfig {
        let idx = iterations.clamp(1, ITER_CAP) - 1;
        self.per_iter[idx]
    }

    /// The instantiated (full) configuration.
    pub fn built(&self) -> AcceleratorConfig {
        self.built
    }
}

/// Safety watchdog over the run-time knob (the runtime half of the
/// degradation ladder).
///
/// While the estimator reports degraded windows, power optimization is the
/// wrong objective: the watchdog pins the iteration budget to [`ITER_CAP`]
/// and ungates the full built configuration, and only releases control back
/// to the policy after `hysteresis` consecutive healthy windows — so a
/// fault flickering at the health threshold cannot thrash the gating
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeWatchdog {
    hysteresis: usize,
    healthy_streak: usize,
    engaged: bool,
}

impl Default for RuntimeWatchdog {
    fn default() -> Self {
        Self::new(2)
    }
}

impl RuntimeWatchdog {
    /// Creates a disengaged watchdog requiring `hysteresis` consecutive
    /// healthy windows to release (values below 1 are treated as 1).
    pub fn new(hysteresis: usize) -> Self {
        Self {
            hysteresis: hysteresis.max(1),
            healthy_streak: 0,
            engaged: false,
        }
    }

    /// `true` while the watchdog holds the runtime pinned to full capacity.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// Feeds one window's health verdict; returns whether the watchdog is
    /// engaged for this window. Engages immediately on an unhealthy window;
    /// releases only after the configured streak of healthy ones.
    pub fn observe(&mut self, healthy: bool) -> bool {
        if !healthy {
            self.engaged = true;
            self.healthy_streak = 0;
        } else if self.engaged {
            self.healthy_streak += 1;
            if self.healthy_streak >= self.hysteresis {
                self.engaged = false;
                self.healthy_streak = 0;
            }
        }
        self.engaged
    }
}

/// One per-window decision of the run-time system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeDecision {
    /// NLS iteration budget for this window.
    pub iterations: usize,
    /// Clock-gated active configuration.
    pub active: AcceleratorConfig,
    /// Power under gating (W).
    pub gated_power_w: f64,
}

/// The assembled run-time system.
///
/// Mutable per-session state (the debounce counter and the watchdog) lives
/// inline; the immutable lookup structures (iteration policy and gating
/// table) are `Arc`-shared so a fleet of same-design sessions holds one
/// copy — see [`RuntimeSystem::with_shared_gating`].
#[derive(Debug, Clone)]
pub struct RuntimeSystem {
    policy: Arc<IterPolicy>,
    counter: IterCounter,
    gating: Arc<GatingTable>,
    power: PowerModel,
    watchdog: RuntimeWatchdog,
}

impl RuntimeSystem {
    /// Builds the run-time system for a deployed design. Accepts the policy
    /// by value or pre-shared (`IterPolicy` or `Arc<IterPolicy>`).
    pub fn new(
        built: AcceleratorConfig,
        shape: &ProblemShape,
        latency_bound_ms: f64,
        platform: &FpgaPlatform,
        policy: impl Into<Arc<IterPolicy>>,
    ) -> Self {
        Self::with_shared_gating(
            Arc::new(GatingTable::build(
                &built,
                shape,
                latency_bound_ms,
                platform,
            )),
            platform,
            policy,
        )
    }

    /// Assembles a run-time system around an existing (shared) gating
    /// table — the fleet path: M same-design sessions share one table and
    /// one policy, and still make bitwise the decisions of
    /// [`RuntimeSystem::new`] because both structures are immutable pure
    /// functions of the deployment.
    pub fn with_shared_gating(
        gating: Arc<GatingTable>,
        platform: &FpgaPlatform,
        policy: impl Into<Arc<IterPolicy>>,
    ) -> Self {
        Self {
            counter: IterCounter::new(ITER_CAP),
            gating,
            power: PowerModel::for_platform(platform),
            policy: policy.into(),
            watchdog: RuntimeWatchdog::default(),
        }
    }

    /// Per-window step: feature count and the estimator's health verdict
    /// in, decision out. Pure table lookups — the "effectively no
    /// overhead" of Sec. 6.2. While the watchdog is engaged the budget is
    /// pinned to [`ITER_CAP`] and the full built configuration is ungated —
    /// a degraded estimator gets maximum compute, not a power optimization
    /// tuned for clean data.
    pub fn step_with_health(&mut self, features: usize, healthy: bool) -> RuntimeDecision {
        let (iterations, active) = if self.watchdog.observe(healthy) {
            self.counter.force(ITER_CAP);
            (ITER_CAP, self.gating.built())
        } else {
            let iterations = self.counter.observe(self.policy.iterations_for(features));
            (iterations, self.gating.active_for(iterations))
        };
        RuntimeDecision {
            iterations,
            active,
            gated_power_w: self.power.gated_power_w(&self.gating.built(), &active),
        }
    }

    /// The safety watchdog (for reports).
    pub fn watchdog(&self) -> &RuntimeWatchdog {
        &self.watchdog
    }

    /// The gating table (for reports).
    pub fn gating(&self) -> &GatingTable {
        &self.gating
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archytas_hw::HIGH_PERF;

    #[test]
    fn shared_runtime_matches_owned_runtime_bitwise() {
        let shape = ProblemShape::typical();
        let platform = FpgaPlatform::zc706();
        let mut owned = RuntimeSystem::new(
            HIGH_PERF,
            &shape,
            2.5,
            &platform,
            IterPolicy::default_table(),
        );
        let mut shared = RuntimeSystem::with_shared_gating(
            Arc::new(GatingTable::build(&HIGH_PERF, &shape, 2.5, &platform)),
            &platform,
            IterPolicy::default_table(),
        );
        let features = [260usize, 40, 40, 40, 260, 260, 150, 20, 20, 260, 90, 260];
        let healthy = [
            true, true, false, true, true, true, false, false, true, true, true, true,
        ];
        for (&f, &h) in features.iter().zip(&healthy) {
            let a = owned.step_with_health(f, h);
            let b = shared.step_with_health(f, h);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.active, b.active);
            assert_eq!(a.gated_power_w.to_bits(), b.gated_power_w.to_bits());
        }
    }

    #[test]
    fn policy_maps_droughts_to_more_iterations() {
        let p = IterPolicy::default_table();
        assert_eq!(p.iterations_for(250), 3);
        assert_eq!(p.iterations_for(170), 4);
        assert_eq!(p.iterations_for(40), ITER_CAP);
        // Monotone: fewer features never means fewer iterations.
        let mut prev = 0;
        for f in (0..=300).rev().step_by(10) {
            let it = p.iterations_for(f);
            assert!(it >= prev, "features {f}: {it} < {prev}");
            prev = it;
        }
    }

    #[test]
    fn profile_learns_the_cap() {
        // Synthetic profile where accuracy saturates at 3 iterations for
        // rich windows and 6 for poor ones.
        let mut samples = Vec::new();
        for iter in 1..=6usize {
            let rich_err = if iter >= 3 { 1.0 } else { 3.0 / iter as f64 };
            samples.push((250usize, iter, rich_err));
            let poor_err = 6.0 / iter as f64;
            samples.push((50usize, iter, poor_err));
        }
        let p = IterPolicy::from_profile(&samples, 0.05);
        assert_eq!(p.iterations_for(250), 3);
        assert_eq!(p.iterations_for(50), 6);
    }

    #[test]
    fn profile_with_empty_bucket_provisions_the_cap() {
        // Samples exist only for rich windows; every other bucket is empty
        // and must fall back to the cap, not silently accept iteration 1.
        let samples: Vec<(usize, usize, f64)> =
            (1..=6usize).map(|it| (250usize, it, 1.0)).collect();
        let p = IterPolicy::from_profile(&samples, 0.05);
        assert_eq!(p.iterations_for(250), 1);
        for f in [180, 120, 60, 10] {
            assert_eq!(p.iterations_for(f), ITER_CAP, "features {f}");
        }
    }

    #[test]
    fn profile_with_diverged_bucket_provisions_the_cap() {
        // A bucket whose profiling runs all diverged (infinite RMSE) taught
        // us nothing about sufficiency.
        let mut samples: Vec<(usize, usize, f64)> = (1..=6usize)
            .map(|it| (50usize, it, f64::INFINITY))
            .collect();
        samples.extend((1..=6usize).map(|it| (250usize, it, 1.0)));
        let p = IterPolicy::from_profile(&samples, 0.05);
        assert_eq!(p.iterations_for(50), ITER_CAP);
        assert_eq!(p.iterations_for(250), 1);
    }

    #[test]
    fn counter_needs_two_consecutive_disagreements() {
        let mut c = IterCounter::new(4);
        // One disagreement: no change (confidence drops 2→1).
        assert_eq!(c.observe(6), 4);
        // Agreement resets confidence upward.
        assert_eq!(c.observe(4), 4);
        assert_eq!(c.observe(4), 4);
        // state saturated at 3: needs three disagreements to move.
        assert_eq!(c.observe(6), 4);
        assert_eq!(c.observe(6), 4);
        assert_eq!(c.observe(6), 4);
        // state hit 0 → next disagreement steps one toward the target.
        assert_eq!(c.observe(6), 5);
    }

    #[test]
    fn counter_moves_one_step_at_a_time() {
        let mut c = IterCounter::new(2);
        for _ in 0..20 {
            c.observe(6);
        }
        assert_eq!(c.current(), 6);
        let mut steps = Vec::new();
        for _ in 0..20 {
            steps.push(c.observe(1));
        }
        assert_eq!(*steps.last().unwrap(), 1);
        // No jump larger than one between consecutive windows.
        for w in steps.windows(2) {
            assert!(w[0].abs_diff(w[1]) <= 1);
        }
    }

    #[test]
    fn counter_debounces_flapping_feature_counts() {
        // A feature count flapping across a policy threshold every window
        // must not drag the budget (and hence the gating configuration)
        // back and forth with it.
        let shape = ProblemShape::typical();
        let platform = FpgaPlatform::zc706();
        let table = GatingTable::build(&HIGH_PERF, &shape, 2.5, &platform);
        let p = IterPolicy::default_table();
        let mut c = IterCounter::new(4);
        let mut budgets = Vec::new();
        for w in 0..40 {
            let features = if w % 2 == 0 { 260 } else { 40 };
            budgets.push(c.observe(p.iterations_for(features)));
        }
        // The budget moves at most one step per two windows…
        for i in 0..budgets.len() - 2 {
            assert!(
                budgets[i].abs_diff(budgets[i + 2]) <= 1,
                "window {i}: budget jumped {} → {}",
                budgets[i],
                budgets[i + 2]
            );
        }
        // …and the gating configuration never thrashes: no two consecutive
        // window-to-window configuration changes.
        let configs: Vec<_> = budgets.iter().map(|&b| table.active_for(b)).collect();
        for i in 0..configs.len() - 2 {
            let flip1 = configs[i] != configs[i + 1];
            let flip2 = configs[i + 1] != configs[i + 2];
            assert!(!(flip1 && flip2), "gating config thrashed at window {i}");
        }
    }

    #[test]
    fn watchdog_engages_immediately_and_releases_with_hysteresis() {
        let mut w = RuntimeWatchdog::new(2);
        assert!(!w.engaged());
        assert!(w.observe(false), "must engage on the first bad window");
        // One healthy window is not enough to release.
        assert!(w.observe(true));
        // A relapse resets the streak.
        assert!(w.observe(false));
        assert!(w.observe(true));
        assert!(!w.observe(true), "two clean windows must release");
        assert!(!w.engaged());
    }

    #[test]
    fn watchdog_pins_runtime_to_full_capacity() {
        let shape = ProblemShape::typical();
        let platform = FpgaPlatform::zc706();
        let mut rt = RuntimeSystem::new(
            HIGH_PERF,
            &shape,
            2.5,
            &platform,
            IterPolicy::default_table(),
        );
        // Settle into the power-saving configuration on rich windows.
        let mut nominal = rt.step_with_health(260, true);
        for _ in 0..10 {
            nominal = rt.step_with_health(260, true);
        }
        assert!(nominal.iterations <= 3);

        // A degraded window pins budget and configuration regardless of the
        // (still rich) feature count.
        let pinned = rt.step_with_health(260, false);
        assert_eq!(pinned.iterations, ITER_CAP);
        assert_eq!(pinned.active, rt.gating().built());
        assert!(pinned.gated_power_w >= nominal.gated_power_w);

        // Still pinned through the first healthy window (hysteresis 2)…
        assert_eq!(rt.step_with_health(260, true).iterations, ITER_CAP);
        // …then control returns to the policy, debounced from the cap.
        let released = rt.step_with_health(260, true);
        assert!(released.iterations <= ITER_CAP);
        assert!(!rt.watchdog().engaged());
        let mut d = released;
        for _ in 0..20 {
            d = rt.step_with_health(260, true);
        }
        assert!(d.iterations <= 3, "budget never laddered back down");
    }

    #[test]
    fn gating_table_monotone_in_iterations() {
        let shape = ProblemShape::typical();
        let platform = FpgaPlatform::zc706();
        let table = GatingTable::build(&HIGH_PERF, &shape, 2.5, &platform);
        let power = PowerModel::for_platform(&platform);
        let mut prev = 0.0;
        for iter in 1..=ITER_CAP {
            let active = table.active_for(iter);
            assert!(active.within(&HIGH_PERF));
            let p = power.gated_power_w(&HIGH_PERF, &active);
            assert!(p >= prev - 1e-9, "iter {iter}: power {p} < {prev}");
            prev = p;
        }
        // Fewer iterations must allow a meaningfully smaller configuration.
        let low = table.active_for(1);
        let high = table.active_for(ITER_CAP);
        assert!(low.nd < high.nd || low.s < high.s || low.nm < high.nm);
    }

    #[test]
    fn runtime_saves_power_in_rich_environments() {
        let shape = ProblemShape::typical();
        let platform = FpgaPlatform::zc706();
        let mut rt = RuntimeSystem::new(
            HIGH_PERF,
            &shape,
            2.5,
            &platform,
            IterPolicy::default_table(),
        );
        let full_power = PowerModel::for_platform(&platform).power_w(&HIGH_PERF);
        // Feed a long run of feature-rich windows.
        let mut last = None;
        for _ in 0..10 {
            last = Some(rt.step_with_health(260, true));
        }
        let d = last.unwrap();
        assert!(d.iterations <= 3);
        assert!(
            d.gated_power_w < full_power * 0.9,
            "gated {} vs full {full_power}",
            d.gated_power_w
        );
    }

    #[test]
    fn runtime_restores_capacity_in_droughts() {
        let shape = ProblemShape::typical();
        let platform = FpgaPlatform::zc706();
        let mut rt = RuntimeSystem::new(
            HIGH_PERF,
            &shape,
            2.5,
            &platform,
            IterPolicy::default_table(),
        );
        for _ in 0..10 {
            rt.step_with_health(260, true);
        }
        // Drought: the budget climbs back to the cap.
        let mut d = rt.step_with_health(30, true);
        for _ in 0..20 {
            d = rt.step_with_health(30, true);
        }
        assert_eq!(d.iterations, ITER_CAP);
    }
}
