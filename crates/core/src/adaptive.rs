//! Adaptive iteration policy — the paper's future-work extension
//! implemented (Sec. 6.2, "Discussion": *"We leave it to future work to
//! explore other mechanisms to tune the knob (e.g., training a machine
//! learning model)"*).
//!
//! Instead of an offline-profiled lookup table, this policy learns online:
//! each window's solver report reveals how many iterations the window
//! actually needed (where LM declared convergence, or that the budget ran
//! out), and an exponentially weighted average per feature-count bucket
//! tracks that requirement as the environment changes. No offline profiling
//! pass, no environment-specific tables — the knob tunes itself.

use crate::runtime::ITER_CAP;
use archytas_slam::SolveReport;

/// Feature-count bucket edges (lower bounds, descending).
const BUCKET_EDGES: [usize; 5] = [220, 170, 120, 70, 0];

/// Online-learning iteration policy.
#[derive(Debug, Clone)]
pub struct AdaptiveIterPolicy {
    /// EWMA of the required iteration count per bucket.
    estimate: [f64; BUCKET_EDGES.len()],
    /// Learning rate of the EWMA.
    alpha: f64,
    /// Safety margin added to the learned requirement.
    margin: f64,
    /// Step-norm threshold below which the final LM step counts as
    /// converged even without the (strict) relative-cost criterion.
    step_norm_tol: f64,
    observations: usize,
}

impl Default for AdaptiveIterPolicy {
    fn default() -> Self {
        Self::new(0.15, 1.0)
    }
}

impl AdaptiveIterPolicy {
    /// Creates a policy with learning rate `alpha` and safety `margin`
    /// (iterations added on top of the learned requirement).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha ≤ 1`.
    pub fn new(alpha: f64, margin: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self {
            // Start conservative: assume every bucket needs the cap until
            // evidence accumulates.
            estimate: [ITER_CAP as f64; BUCKET_EDGES.len()],
            alpha,
            margin,
            step_norm_tol: 0.008,
            observations: 0,
        }
    }

    fn bucket(features: usize) -> usize {
        BUCKET_EDGES
            .iter()
            .position(|&lo| features >= lo)
            .unwrap_or(BUCKET_EDGES.len() - 1)
    }

    /// Iteration budget for a feature count under the current estimates.
    pub fn iterations_for(&self, features: usize) -> usize {
        let est = self.estimate[Self::bucket(features)] + self.margin;
        (est.ceil() as usize).clamp(1, ITER_CAP)
    }

    /// Feeds back one window's outcome: the feature count it ran with and
    /// its solver report. A report that converged — by LM's relative-cost
    /// criterion *or* by its final step having shrunk below the step-norm
    /// tolerance — teaches "this bucket needed `report.iterations`"; an
    /// unconverged one teaches "more than the budget" (pushes the estimate
    /// up by one).
    pub fn observe(&mut self, features: usize, report: &SolveReport) {
        // Settle point: the first iteration whose accepted step fell below
        // the tolerance — everything after it refined noise.
        let settle = report
            .step_norms
            .iter()
            .position(|&n| n < self.step_norm_tol)
            .map(|i| i + 1);
        let required = match settle {
            Some(k) => k as f64,
            None if report.converged => report.iterations as f64,
            None => (report.iterations + 1) as f64,
        };
        let b = Self::bucket(features);
        self.estimate[b] += self.alpha * (required - self.estimate[b]);
        self.observations += 1;
    }

    /// Number of feedback observations consumed so far.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Current per-bucket estimates (diagnostic, bucket lower bounds paired
    /// with the learned requirement).
    pub fn estimates(&self) -> Vec<(usize, f64)> {
        BUCKET_EDGES
            .iter()
            .zip(&self.estimate)
            .map(|(&lo, &e)| (lo, e))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(iterations: usize, converged: bool) -> SolveReport {
        // Steps shrink to the settle tolerance exactly at `iterations`.
        let step_norms: Vec<f64> = (0..iterations)
            .map(|i| {
                if i + 1 >= iterations && converged {
                    0.01
                } else {
                    0.5
                }
            })
            .collect();
        SolveReport {
            iterations,
            initial_cost: 10.0,
            final_cost: 1.0,
            converged,
            lambda: 1e-4,
            last_step_norm: step_norms.last().copied().unwrap_or(0.1),
            step_norms,
            rejected: 0,
            outcome: archytas_slam::SolveOutcome::Converged,
        }
    }

    #[test]
    fn starts_conservative() {
        let p = AdaptiveIterPolicy::default();
        for f in [30usize, 130, 260] {
            assert_eq!(p.iterations_for(f), ITER_CAP);
        }
    }

    #[test]
    fn learns_down_in_easy_buckets() {
        let mut p = AdaptiveIterPolicy::new(0.3, 0.5);
        // Rich windows keep converging in 2 iterations.
        for _ in 0..30 {
            p.observe(260, &report(2, true));
        }
        assert!(
            p.iterations_for(260) <= 3,
            "learned {}",
            p.iterations_for(260)
        );
        // Poor windows were never observed: still at the cap.
        assert_eq!(p.iterations_for(30), ITER_CAP);
    }

    #[test]
    fn learns_up_after_non_convergence() {
        let mut p = AdaptiveIterPolicy::new(0.3, 0.5);
        for _ in 0..30 {
            p.observe(260, &report(2, true));
        }
        let low = p.iterations_for(260);
        // The environment changes: budget 3 stops sufficing.
        for _ in 0..30 {
            p.observe(260, &report(3, false));
        }
        assert!(p.iterations_for(260) > low);
    }

    #[test]
    fn buckets_are_independent() {
        let mut p = AdaptiveIterPolicy::new(0.5, 0.0);
        for _ in 0..20 {
            p.observe(260, &report(1, true));
            p.observe(30, &report(6, false));
        }
        assert!(p.iterations_for(260) <= 2);
        assert_eq!(p.iterations_for(30), ITER_CAP);
        assert_eq!(p.observations(), 40);
    }

    #[test]
    fn budget_stays_in_range() {
        let mut p = AdaptiveIterPolicy::new(1.0, 0.0);
        p.observe(100, &report(0, true)); // degenerate report
        assert!(p.iterations_for(100) >= 1);
        for _ in 0..10 {
            p.observe(100, &report(9, false)); // over-cap report
        }
        assert_eq!(p.iterations_for(100), ITER_CAP);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let _ = AdaptiveIterPolicy::new(0.0, 0.5);
    }
}
