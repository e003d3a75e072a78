//! End-to-end latency model of one sliding window (paper Eqs. 13–15).

use crate::blocks::{
    back_substitution_latency, cholesky_latency, dschur_feature_latency, jacobian_feature_latency,
    mschur_latency, AcceleratorConfig,
};
use archytas_mdfg::ProblemShape;

/// Host-interface overhead per window: trigger, feature upload and result
/// readback over the host bus (Sec. 7.1: "The FPGA is triggered by the host
/// for each sliding window").
pub const WINDOW_OVERHEAD_CYCLES: f64 = 10_000.0;

/// Per-iteration sequencing overhead (buffer swaps, block restarts).
pub const ITERATION_OVERHEAD_CYCLES: f64 = 2_000.0;

/// Latency of one NLS iteration in cycles (Eq. 14):
///
/// `L_NLS = Σᵢ₌₁ᵃ max(L_Jac, L_DSchur(nd)) + L_Cholesky(s) + L_sub`
///
/// The `max` captures the pipeline parallelism between the Jacobian unit and
/// the D-type Schur unit streaming across the `a` feature points (Sec. 4.1).
pub fn nls_iteration_cycles(shape: &ProblemShape, config: &AcceleratorConfig) -> f64 {
    let no = shape.obs_per_feature as f64;
    let per_feature = jacobian_feature_latency(no).max(dschur_feature_latency(no, config.nd));
    let reduced = shape.pose_block_dim();
    shape.features as f64 * per_feature
        + cholesky_latency(reduced, config.s)
        + back_substitution_latency(reduced)
        + ITERATION_OVERHEAD_CYCLES
}

/// Marginalization latency in cycles (Eq. 15):
///
/// `L_Marg = am·L_Jac + L_DSchur(nd) + L_Cholesky(s) + L_MSchur(nm)`
pub fn marginalization_cycles(shape: &ProblemShape, config: &AcceleratorConfig) -> f64 {
    let no = shape.obs_per_feature as f64;
    let am = shape.marginalized_features;
    // The marginalized block's D-type Schur (S′) runs once over the am
    // features being folded in.
    let dschur = am as f64 * dschur_feature_latency(no, config.nd);
    am as f64 * jacobian_feature_latency(no)
        + dschur
        + cholesky_latency(am + shape.states_per_keyframe, config.s)
        + mschur_latency(am, shape.keyframes, config.nm)
}

/// Total latency of one sliding window in cycles (Eq. 13):
/// `Iter × L_NLS + L_Marg`.
pub fn window_cycles(shape: &ProblemShape, config: &AcceleratorConfig, iterations: usize) -> f64 {
    iterations as f64 * nls_iteration_cycles(shape, config)
        + marginalization_cycles(shape, config)
        + WINDOW_OVERHEAD_CYCLES
}

/// Memoized per-knob evaluation tables for [`window_cycles`] over the
/// synthesizer's `(nd, nm, s)` lattice.
///
/// Eq. 13's summands each depend on a *single* knob: the per-feature
/// pipeline term and the marginalization D-Schur term on `nd`, the M-Schur
/// term on `nm`, and the two Cholesky terms on `s`. Building the tables
/// evaluates every distinct sub-term once (`nd_max + nm_max + 2·s_max`
/// model calls) instead of once per lattice point, and
/// [`LatencyTables::window_cycles_at`] then replays the **exact
/// floating-point summation order** of [`window_cycles`] — same operands,
/// same operation sequence — so the result is bit-identical to the direct
/// evaluation (asserted by `tables_replay_window_cycles_bitwise` below).
///
/// The tables also expose a *monotonicity-safe lower bound*
/// ([`LatencyTables::window_cycles_lower_bound`]): every per-knob term is
/// replaced by its minimum over the queried subrange (`nd` fixed per
/// stripe, M-Schur is non-increasing in `nm`, the Cholesky terms carry
/// prefix-minimum tables over `s`). Because IEEE-754 addition and
/// multiplication by a positive constant are monotone under
/// round-to-nearest, summing term-wise minima in the same expression shape
/// yields a value ≤ every actual latency in the subrange — a bound cut can
/// therefore never discard a candidate that ties or beats the incumbent.
#[derive(Debug, Clone)]
pub struct LatencyTables {
    iterations: f64,
    features: f64,
    backsub: f64,
    /// `am · L_Jac` — the nd/nm/s-independent marginalization prefix.
    am_jac: f64,
    /// `max(L_Jac, L_DSchur(nd))`, indexed by `nd - 1`.
    per_feature: Vec<f64>,
    /// `am · L_DSchur(nd)`, indexed by `nd - 1`.
    dschur_marg: Vec<f64>,
    /// `L_Cholesky(kb, s)` of the NLS reduced system, indexed by `s - 1`.
    chol_nls: Vec<f64>,
    /// `L_Cholesky(am + k, s)` of the marginalized block, indexed by `s - 1`.
    chol_marg: Vec<f64>,
    /// `L_MSchur(nm)`, indexed by `nm - 1`.
    mschur: Vec<f64>,
    /// `min(chol_nls[..=i])`, indexed by `s - 1`.
    chol_nls_prefix_min: Vec<f64>,
    /// `min(chol_marg[..=i])`, indexed by `s - 1`.
    chol_marg_prefix_min: Vec<f64>,
    /// Per-[`S_BLOCK`]-block minima of `chol_nls`, indexed by block.
    chol_nls_block_min: Vec<f64>,
    /// Per-[`S_BLOCK`]-block minima of `chol_marg`, indexed by block.
    chol_marg_block_min: Vec<f64>,
}

/// Granularity of [`LatencyTables::window_cycles_lower_bound_s_block`]'s
/// `s`-axis subrange bounds: the lattice's `s` range is tiled into blocks of
/// this many lane counts, each carrying its own Cholesky-term minima.
pub const S_BLOCK: usize = 16;

impl LatencyTables {
    /// Builds the tables for one workload/iteration budget over knob ranges
    /// `nd ∈ 1..=nd_max`, `nm ∈ 1..=nm_max`, `s ∈ 1..=s_max`.
    pub fn new(
        shape: &ProblemShape,
        iterations: usize,
        nd_max: usize,
        nm_max: usize,
        s_max: usize,
    ) -> Self {
        let no = shape.obs_per_feature as f64;
        let reduced = shape.pose_block_dim();
        let am = shape.marginalized_features;
        let jac = jacobian_feature_latency(no);
        let per_feature: Vec<f64> = (1..=nd_max)
            .map(|nd| jac.max(dschur_feature_latency(no, nd)))
            .collect();
        let dschur_marg: Vec<f64> = (1..=nd_max)
            .map(|nd| am as f64 * dschur_feature_latency(no, nd))
            .collect();
        let chol_nls: Vec<f64> = (1..=s_max).map(|s| cholesky_latency(reduced, s)).collect();
        let chol_marg: Vec<f64> = (1..=s_max)
            .map(|s| cholesky_latency(am + shape.states_per_keyframe, s))
            .collect();
        let mschur: Vec<f64> = (1..=nm_max)
            .map(|nm| mschur_latency(am, shape.keyframes, nm))
            .collect();
        let prefix_min = |v: &[f64]| {
            let mut out = Vec::with_capacity(v.len());
            let mut m = f64::INFINITY;
            for &x in v {
                m = m.min(x);
                out.push(m);
            }
            out
        };
        let block_min = |v: &[f64]| {
            v.chunks(S_BLOCK)
                .map(|c| c.iter().copied().fold(f64::INFINITY, f64::min))
                .collect::<Vec<f64>>()
        };
        Self {
            iterations: iterations as f64,
            features: shape.features as f64,
            backsub: back_substitution_latency(reduced),
            am_jac: am as f64 * jac,
            chol_nls_prefix_min: prefix_min(&chol_nls),
            chol_marg_prefix_min: prefix_min(&chol_marg),
            chol_nls_block_min: block_min(&chol_nls),
            chol_marg_block_min: block_min(&chol_marg),
            per_feature,
            dschur_marg,
            chol_nls,
            chol_marg,
            mschur,
        }
    }

    /// [`window_cycles`] at one lattice point, bit-identical to the direct
    /// evaluation (identical floating-point operation sequence).
    #[inline]
    pub fn window_cycles_at(&self, nd: usize, nm: usize, s: usize) -> f64 {
        let nls = self.features * self.per_feature[nd - 1]
            + self.chol_nls[s - 1]
            + self.backsub
            + ITERATION_OVERHEAD_CYCLES;
        let marg =
            self.am_jac + self.dschur_marg[nd - 1] + self.chol_marg[s - 1] + self.mschur[nm - 1];
        self.iterations * nls + marg + WINDOW_OVERHEAD_CYCLES
    }

    /// Lower bound on [`window_cycles`] over the subrange
    /// `{nd} × (1..=nm_hi) × (1..=s_hi)`: each per-knob term is replaced by
    /// its subrange minimum (M-Schur latency is non-increasing in `nm`, so
    /// `nm_hi` minimizes it) inside the same summation shape, which
    /// monotone rounding keeps ≤ every actual value in the subrange.
    #[inline]
    pub fn window_cycles_lower_bound(&self, nd: usize, nm_hi: usize, s_hi: usize) -> f64 {
        let nls = self.features * self.per_feature[nd - 1]
            + self.chol_nls_prefix_min[s_hi - 1]
            + self.backsub
            + ITERATION_OVERHEAD_CYCLES;
        let marg = self.am_jac
            + self.dschur_marg[nd - 1]
            + self.chol_marg_prefix_min[s_hi - 1]
            + self.mschur[nm_hi - 1];
        self.iterations * nls + marg + WINDOW_OVERHEAD_CYCLES
    }

    /// Lower bound on [`window_cycles`] over the `s`-axis block
    /// `{nd} × {nm} × (block·S_BLOCK + 1 ..= (block+1)·S_BLOCK)`: the two
    /// Cholesky terms take their block minima, everything else is exact.
    /// Valid for any truncation of the block (a superset minimum is still a
    /// lower bound).
    #[inline]
    pub fn window_cycles_lower_bound_s_block(&self, nd: usize, nm: usize, block: usize) -> f64 {
        let nls = self.features * self.per_feature[nd - 1]
            + self.chol_nls_block_min[block]
            + self.backsub
            + ITERATION_OVERHEAD_CYCLES;
        let marg = self.am_jac
            + self.dschur_marg[nd - 1]
            + self.chol_marg_block_min[block]
            + self.mschur[nm - 1];
        self.iterations * nls + marg + WINDOW_OVERHEAD_CYCLES
    }

    /// `true` when stripe `nd`'s `nd`-dependent terms (the per-feature
    /// pipeline term and the marginalization D-Schur term) equal stripe
    /// `nd − 1`'s bit for bit, so [`LatencyTables::window_cycles_at`]
    /// returns the same bits at `(nd, nm, s)` as at `(nd − 1, nm, s)` for
    /// every `(nm, s)`. Once Eq. 14's `max` is bound by the Jacobian unit
    /// this holds for every shape without marginalized features.
    #[inline]
    pub fn ties_previous_stripe(&self, nd: usize) -> bool {
        nd >= 2
            && self.per_feature[nd - 1].to_bits() == self.per_feature[nd - 2].to_bits()
            && self.dschur_marg[nd - 1].to_bits() == self.dschur_marg[nd - 2].to_bits()
    }

    /// The `s` minimizing the combined Cholesky contribution
    /// `Iter·L_Chol(kb, s) + L_Chol(am+k, s)` over `1..=s_max` (first
    /// minimizer on ties) — Eq. 7's `max(s·E, ·)` makes the term
    /// non-monotone in `s`, so the sweet spot is a table lookup, not an
    /// endpoint. Used to seed incumbent probes.
    pub fn best_s_hint(&self) -> usize {
        let mut best = 1usize;
        let mut best_val = f64::INFINITY;
        for s in 1..=self.chol_nls.len() {
            let v = self.iterations * self.chol_nls[s - 1] + self.chol_marg[s - 1];
            if v < best_val {
                best_val = v;
                best = s;
            }
        }
        best
    }

    /// Knob range the tables cover, `(nd_max, nm_max, s_max)`.
    pub fn bounds(&self) -> (usize, usize, usize) {
        (
            self.per_feature.len(),
            self.mschur.len(),
            self.chol_nls.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nd: usize, nm: usize, s: usize) -> AcceleratorConfig {
        AcceleratorConfig::new(nd, nm, s)
    }

    #[test]
    fn latency_monotone_in_iterations() {
        let shape = ProblemShape::typical();
        let c = cfg(8, 8, 16);
        let l1 = window_cycles(&shape, &c, 1);
        let l6 = window_cycles(&shape, &c, 6);
        assert!(l6 > l1);
        // Exactly linear in Iter (Eq. 13).
        let nls = nls_iteration_cycles(&shape, &c);
        assert!((l6 - l1 - 5.0 * nls).abs() < 1e-6);
    }

    #[test]
    fn bigger_config_is_never_slower() {
        let shape = ProblemShape::typical();
        let small = window_cycles(&shape, &cfg(2, 2, 4), 4);
        let big = window_cycles(&shape, &cfg(28, 19, 97), 4);
        assert!(big < small);
    }

    #[test]
    fn knobs_span_a_wide_latency_range() {
        // Sec. 7.2: varying the parameters changes end-to-end latency by
        // over 20×.
        let shape = ProblemShape::typical();
        let slowest = window_cycles(&shape, &cfg(1, 1, 1), 6);
        let fastest = window_cycles(&shape, &cfg(30, 24, 120), 6);
        assert!(
            slowest / fastest > 20.0,
            "range {:.1}× should exceed 20×",
            slowest / fastest
        );
    }

    #[test]
    fn jacobian_bound_kicks_in() {
        // With a huge nd the per-feature cost is bounded below by the
        // Jacobian unit (the max in Eq. 14).
        let shape = ProblemShape::typical();
        let no = shape.obs_per_feature as f64;
        let c = cfg(10_000, 8, 16);
        let nls = nls_iteration_cycles(&shape, &c);
        let jac_floor = shape.features as f64 * jacobian_feature_latency(no);
        assert!(nls >= jac_floor);
    }

    #[test]
    fn window_latency_in_millisecond_band() {
        // Per-window latency on a mid-size configuration must land in the
        // real-time millisecond regime the paper's designs occupy
        // (Figs. 13–14 span ~10–260 ms; our calibration sits at the fast
        // end of that band — shape, not absolute scale, is the target).
        let shape = ProblemShape::typical();
        let cycles = window_cycles(&shape, &cfg(8, 8, 16), 6);
        let ms = cycles / 143e3;
        assert!((0.5..70.0).contains(&ms), "latency {ms:.2} ms outside band");
    }

    #[test]
    fn tables_replay_window_cycles_bitwise() {
        // The memoized tables must be indistinguishable from the direct
        // model at every lattice point — same bits, not just same value.
        for shape in [ProblemShape::typical(), {
            let mut s = ProblemShape::typical();
            s.marginalized_features = 0;
            s.features = 37;
            s.keyframes = 3;
            s.obs_per_feature = 4;
            s
        }] {
            for iters in [1, 6] {
                let t = LatencyTables::new(&shape, iters, 16, 12, 40);
                for nd in 1..=16 {
                    for nm in [1, 5, 12] {
                        for s in 1..=40 {
                            let direct =
                                window_cycles(&shape, &AcceleratorConfig::new(nd, nm, s), iters);
                            let tabled = t.window_cycles_at(nd, nm, s);
                            assert_eq!(
                                tabled.to_bits(),
                                direct.to_bits(),
                                "({nd},{nm},{s}) @ {iters} iters"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tables_lower_bound_never_exceeds_any_point() {
        let shape = ProblemShape::typical();
        let t = LatencyTables::new(&shape, 6, 20, 16, 60);
        for nd in [1, 7, 20] {
            for nm_hi in [1, 4, 16] {
                for s_hi in [1, 13, 60] {
                    let lb = t.window_cycles_lower_bound(nd, nm_hi, s_hi);
                    for nm in 1..=nm_hi {
                        for s in 1..=s_hi {
                            let actual = t.window_cycles_at(nd, nm, s);
                            assert!(
                                lb <= actual,
                                "bound {lb} > actual {actual} at ({nd},{nm},{s})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tables_block_bound_never_exceeds_points_in_block() {
        let shape = ProblemShape::typical();
        let t = LatencyTables::new(&shape, 6, 20, 16, 125);
        for nd in [1, 20] {
            for nm in [1, 16] {
                for s in 1..=125 {
                    let lb = t.window_cycles_lower_bound_s_block(nd, nm, (s - 1) / S_BLOCK);
                    let actual = t.window_cycles_at(nd, nm, s);
                    assert!(lb <= actual, "block bound {lb} > actual {actual} at s={s}");
                }
            }
        }
    }

    #[test]
    fn stripe_ties_replay_equal_latency_bits() {
        let mut shape = ProblemShape::typical();
        let t = LatencyTables::new(&shape, 6, 120, 8, 40);
        assert!(
            (1..=120).all(|nd| !t.ties_previous_stripe(nd)),
            "marginalized features make every stripe distinct"
        );
        // Eq. 14's max is Jacobian-bound from nd = 18·No = 72 on.
        shape.marginalized_features = 0;
        shape.obs_per_feature = 4;
        let t = LatencyTables::new(&shape, 6, 120, 8, 40);
        let ties: Vec<usize> = (1..=120).filter(|&nd| t.ties_previous_stripe(nd)).collect();
        assert_eq!(ties, (73..=120).collect::<Vec<_>>());
        for nd in ties {
            for nm in [1, 8] {
                for s in 1..=40 {
                    assert_eq!(
                        t.window_cycles_at(nd, nm, s).to_bits(),
                        t.window_cycles_at(nd - 1, nm, s).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn best_s_hint_is_the_argmin() {
        let shape = ProblemShape::typical();
        let t = LatencyTables::new(&shape, 6, 8, 8, 125);
        let s_star = t.best_s_hint();
        let combined = |s: usize| {
            6.0 * cholesky_latency(shape.pose_block_dim(), s) + cholesky_latency(25 + 15, s)
        };
        for s in 1..=125 {
            assert!(combined(s_star) <= combined(s), "s_hint beaten by s={s}");
        }
        // The sweet spot is interior: Eq. 7's Evaluate serialization makes
        // oversized s strictly worse, which is why an endpoint won't do.
        assert!(s_star > 1 && s_star < 125, "s* = {s_star}");
    }

    #[test]
    fn marginalization_scales_with_am() {
        let mut shape = ProblemShape::typical();
        let c = cfg(8, 8, 16);
        shape.marginalized_features = 5;
        let small = marginalization_cycles(&shape, &c);
        shape.marginalized_features = 40;
        let large = marginalization_cycles(&shape, &c);
        assert!(large > small * 2.0);
    }
}
