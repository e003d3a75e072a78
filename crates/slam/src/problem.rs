//! Assembly of the normal equations `A·δp = b` for one sliding window.
//!
//! The global error-state ordering puts all inverse depths first, then the
//! 15-dim keyframe states. Because every visual factor touches exactly one
//! inverse depth, the leading `a × a` block of `A` is *diagonal*; this is the
//! structure that makes the paper's D-type Schur elimination optimal
//! (Sec. 3.2.2) and that the hardware template is organized around.
//!
//! `A` is assembled directly from per-factor blocks (as production BA solvers
//! do) rather than materializing the global Jacobian, and straight into that
//! block structure: a [`BlockSparseSystem`] with `U` diagonal, `W` in 6-high
//! pose-tangent blocks and `V` dense. The per-factor flop counts still match
//! the M-DFG cost model in `archytas-mdfg`.

use crate::factors::{
    evaluate_imu, evaluate_visual_residual, evaluate_visual_with, keyframe_rotations, FactorWeights,
};
use crate::geometry::Mat3;
use crate::prior::{Prior, PriorScratch};
use crate::solver::SolverWorkspace;
use crate::window::{SlidingWindow, STATE_DIM};
use archytas_math::{BlockSparseSystem, DVec};

// The block system's fixed layout is this window's: keyframe `k`'s state
// starts at pose row `15·k`.
const _: () = assert!(STATE_DIM == archytas_math::W_BLOCK_PITCH);

/// Reused temporaries of one linearization: each keyframe's rotation
/// matrix and its transpose, and the prior's temporaries.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinScratch {
    rotations: Vec<(Mat3, Mat3)>,
    pub(crate) prior: PriorScratch,
}

/// Assembly metadata of one block-sparse linearization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockNormalEqInfo {
    /// The MAP cost (Eq. 2): one-half squared weighted residual norm, with
    /// each visual factor scored by its loss ([`FactorWeights::visual_loss`]).
    pub cost: f64,
    /// Number of landmark (diagonal-block) parameters.
    pub num_landmarks: usize,
    /// Visual observations actually used (in front of both cameras).
    pub used_observations: usize,
}

/// Builds the normal equations of a window at its current estimate, in
/// block-sparse form, into `ws`'s own system and returns that system with
/// the assembly metadata.
///
/// The system is reset to the window's shape (reusing its allocations) and
/// filled factor by factor; the linearization's temporaries are `ws`'s too,
/// so once they have grown a call allocates nothing. `prior` carries the
/// marginalization product from the previous window (`Hp`, `rp` of Eq. 2);
/// without one, a strong pose prior on keyframe 0 fixes the global gauge
/// freedom. The dense `(A, b)` it represents is
/// [`BlockSparseSystem::to_dense_into`].
pub fn build_block_normal_equations<'w>(
    ws: &'w mut SolverWorkspace,
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
) -> (&'w mut BlockSparseSystem<f64>, BlockNormalEqInfo) {
    let num_l = window.num_landmarks();
    ws.sys.reset(num_l, STATE_DIM * window.num_keyframes());
    let (cost, used) = assemble(window, weights, prior, &mut ws.sys, &mut ws.lin);
    let info = BlockNormalEqInfo {
        cost,
        num_landmarks: num_l,
        used_observations: used,
    };
    (&mut ws.sys, info)
}

/// The factor loop: linearizes every factor and scatters it into `sys`,
/// whose pose rows are indexed locally (keyframe `k` starts at row
/// `15·k`). Returns `(cost, used_observations)`.
///
/// Every write touches only the upper triangle of `V`, the only part the
/// solve reads (the mirror of every contribution carries the same value);
/// the `W` blocks hold the landmark–pose cross terms, whose transpose `X` is
/// never stored.
fn assemble(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
    sys: &mut BlockSparseSystem<f64>,
    scratch: &mut LinScratch,
) -> (f64, usize) {
    let mut cost = 0.0;
    let mut used = 0;
    keyframe_rotations(window, &mut scratch.rotations);

    // --- visual factors ---
    for obs in &window.observations {
        let lm = &window.landmarks[obs.landmark];
        if lm.anchor == obs.keyframe {
            continue; // the anchor observation defines the bearing exactly
        }
        let (r_a, _) = &scratch.rotations[lm.anchor];
        let (_, r_o_t) = &scratch.rotations[obs.keyframe];
        let Some(ev) = evaluate_visual_with(
            &window.keyframes[lm.anchor].pose,
            r_a,
            &window.keyframes[obs.keyframe].pose,
            r_o_t,
            &lm.bearing,
            lm.inv_depth,
            obs.uv,
        ) else {
            continue;
        };
        used += 1;

        // The visual loss and its IRLS weight (Huber re-weights outliers).
        let loss = weights.visual_loss(ev.residual[0], ev.residual[1]);
        for r in 0..2 {
            let e = ev.residual[r];
            cost += 0.5 * loss.rho_w2 * e * e;
        }
        // One rho column plus two 6-wide pose-tangent runs (the first 6
        // slots of each 15-dim state), ordered by row: re-anchoring can
        // place the anchor after the observer. Both residual rows share
        // this structure, so they scatter in one fused pass.
        debug_assert_ne!(lm.anchor, obs.keyframe);
        let anchor_run = (STATE_DIM * lm.anchor, &ev.j_anchor);
        let obs_run = (STATE_DIM * obs.keyframe, &ev.j_obs);
        let (first, second) = if lm.anchor < obs.keyframe {
            (anchor_run, obs_run)
        } else {
            (obs_run, anchor_run)
        };
        sys.add_visual_obs6(
            obs.landmark,
            first.0,
            second.0,
            ev.j_rho,
            [&first.1[0], &first.1[1]],
            [&second.1[0], &second.1[1]],
            ev.residual,
            loss.w2,
        );
    }

    // --- IMU factors ---
    for cons in &window.imu {
        let si = &window.keyframes[cons.first];
        let sj = &window.keyframes[cons.first + 1];
        let ev = evaluate_imu(si, sj, &cons.preintegration);
        let mut w2s = [0.0; STATE_DIM];
        for (r, w2) in w2s.iter_mut().enumerate() {
            let w = FactorWeights::imu_row(r);
            *w2 = w * w;
            let e = ev.residual[r];
            cost += 0.5 * *w2 * e * e;
        }
        // All 15 residual rows share the two state-wide runs, so they
        // scatter in one fused pass over the destination rows.
        let off_i = STATE_DIM * cons.first;
        scatter_imu_runs(sys, off_i, off_i + STATE_DIM, &ev, &w2s);
    }

    // --- marginalization prior ---
    if let Some(p) = prior {
        cost += p.add_to_system(window, sys, &mut scratch.prior);
    } else {
        // Gauge fixation: strongly pin keyframe 0's pose (and weakly its
        // velocity/biases so the very first window is well-conditioned).
        for c in 0..STATE_DIM {
            let w2 = if c < 6 { 1e8 } else { 1e2 };
            sys.add_v(c, c, w2);
        }
    }

    (cost, used)
}

/// Rank-15 update of `V` and `by` from all residual rows of one IMU factor,
/// whose rows all share the same two state-wide runs at pose rows `off_i`
/// and `off_j` (`off_i < off_j`); only the upper triangle is written.
///
/// Equivalent to 15 sequential single-row scatters in ascending row order:
/// for every cell of `V` (and entry of `by`) the active rows' guarded
/// multiply-adds are applied in that same order by the fused row writes, so
/// the assembled bits are unchanged, while each destination row is walked
/// once per source column instead of once per (source column, residual row)
/// pair. `w2s` holds the per-row squared weights; rows whose Jacobian is zero
/// at a source column contribute nothing there, exactly as their single-row
/// scatter would have skipped that source.
fn scatter_imu_runs(
    sys: &mut BlockSparseSystem<f64>,
    off_i: usize,
    off_j: usize,
    ev: &crate::factors::ImuEval,
    w2s: &[f64; STATE_DIM],
) {
    const EMPTY: (&[f64], f64) = (&[], 0.0);
    // Sources in run i: diagonal tail within run i, and the cross block
    // against the full run j.
    for ti in 0..STATE_DIM {
        let ci = off_i + ti;
        let mut tails = [EMPTY; STATE_DIM];
        let mut crosses = [EMPTY; STATE_DIM];
        let mut n = 0;
        #[allow(clippy::needless_range_loop)] // r indexes w2s, j_i, and residual
        for r in 0..STATE_DIM {
            let v = ev.j_i[r][ti];
            if v == 0.0 {
                continue;
            }
            let wv = w2s[r] * v;
            sys.sub_by(ci, wv * ev.residual[r]);
            tails[n] = (&ev.j_i[r][ti..], wv);
            crosses[n] = (&ev.j_j[r][..], wv);
            n += 1;
        }
        if n == 0 {
            continue;
        }
        sys.add_v_row_fused(ci, ci, STATE_DIM - ti, &tails[..n]);
        sys.add_v_row_fused(ci, off_j, STATE_DIM, &crosses[..n]);
    }
    // Sources in run j: only the diagonal tail within run j remains.
    for tj in 0..STATE_DIM {
        let ci = off_j + tj;
        let mut tails = [EMPTY; STATE_DIM];
        let mut n = 0;
        #[allow(clippy::needless_range_loop)] // r indexes w2s, j_j, and residual
        for r in 0..STATE_DIM {
            let v = ev.j_j[r][tj];
            if v == 0.0 {
                continue;
            }
            let wv = w2s[r] * v;
            sys.sub_by(ci, wv * ev.residual[r]);
            tails[n] = (&ev.j_j[r][tj..], wv);
            n += 1;
        }
        if n == 0 {
            continue;
        }
        sys.add_v_row_fused(ci, ci, STATE_DIM - tj, &tails[..n]);
    }
}

/// Evaluates only the cost of the window at its current estimate (used for
/// LM step acceptance without paying for a full re-linearization), with the
/// prior's temporaries in `scratch`.
pub(crate) fn evaluate_cost_in(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
    scratch: &mut PriorScratch,
) -> f64 {
    let mut cost = 0.0;
    for obs in &window.observations {
        let lm = &window.landmarks[obs.landmark];
        if lm.anchor == obs.keyframe {
            continue;
        }
        if let Some(e) = evaluate_visual_residual(
            &window.keyframes[lm.anchor].pose,
            &window.keyframes[obs.keyframe].pose,
            &lm.bearing,
            lm.inv_depth,
            obs.uv,
        ) {
            // Same loss as `assemble`, so LM step acceptance scores the cost
            // the step descends. The residual-only evaluator skips the
            // Jacobian chain rule but is bit-identical on the residual itself.
            let rho_w2 = weights.visual_loss(e[0], e[1]).rho_w2;
            cost += 0.5 * rho_w2 * (e[0].powi(2) + e[1].powi(2));
        }
    }
    for cons in &window.imu {
        let ev = evaluate_imu(
            &window.keyframes[cons.first],
            &window.keyframes[cons.first + 1],
            &cons.preintegration,
        );
        for (r, e) in ev.residual.iter().enumerate() {
            let w = FactorWeights::imu_row(r);
            cost += 0.5 * w * w * e * e;
        }
    }
    if let Some(p) = prior {
        cost += p.evaluate_in(window, scratch).0;
    }
    cost
}

/// Applies the solved increment `delta` to every landmark and keyframe.
pub fn apply_increment(window: &mut SlidingWindow, delta: &DVec) {
    let num_l = window.num_landmarks();
    for (i, lm) in window.landmarks.iter_mut().enumerate() {
        lm.inv_depth = (lm.inv_depth + delta[i]).max(1e-6);
    }
    for i in 0..window.num_keyframes() {
        let off = num_l + i * STATE_DIM;
        let mut tangent = [0.0; STATE_DIM];
        for (c, t) in tangent.iter_mut().enumerate() {
            *t = delta[off + c];
        }
        window.keyframes[i] = window.keyframes[i].boxplus(&tangent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Pose, Quat, Vec3};
    use crate::imu::{ImuSample, Preintegration, GRAVITY};
    use crate::solver::{solve_in_workspace, LmConfig};
    use crate::window::{ImuConstraint, KeyframeState, Landmark, Observation};
    use archytas_math::DMat;

    fn evaluate_cost(w: &SlidingWindow, weights: &FactorWeights) -> f64 {
        evaluate_cost_in(w, weights, None, &mut PriorScratch::default())
    }

    /// Dense image of a window's normal equations plus the assembly
    /// metadata: what the assertions below read.
    struct Dense {
        a: DMat,
        b: DVec,
        cost: f64,
        num_landmarks: usize,
        used_observations: usize,
    }

    fn build_dense(w: &SlidingWindow, weights: &FactorWeights) -> Dense {
        let mut ws = SolverWorkspace::new();
        let (sys, info) = build_block_normal_equations(&mut ws, w, weights, None);
        let (mut a, mut b) = (DMat::zeros(0, 0), DVec::zeros(0));
        sys.to_dense_into(&mut a, &mut b);
        Dense {
            a,
            b,
            cost: info.cost,
            num_landmarks: info.num_landmarks,
            used_observations: info.used_observations,
        }
    }

    /// Two keyframes observing a handful of landmarks, no IMU.
    fn toy_window(perturb: bool) -> SlidingWindow {
        let mut w = SlidingWindow::new();
        let kf0 = KeyframeState::at_pose(Pose::IDENTITY, 0.0);
        let kf1 = KeyframeState::at_pose(
            Pose::new(
                Quat::exp(&Vec3::new(0.0, 0.02, 0.0)),
                Vec3::new(0.5, 0.0, 0.0),
            ),
            0.1,
        );
        w.keyframes = vec![kf0, kf1];
        for (i, (x, y, depth)) in [
            (0.1, 0.05, 4.0),
            (-0.2, 0.1, 6.0),
            (0.3, -0.15, 5.0),
            (0.0, 0.2, 8.0),
        ]
        .iter()
        .enumerate()
        {
            let bearing = Vec3::new(*x, *y, 1.0);
            let truth_inv = 1.0 / depth;
            let p_w = kf0.pose.transform(&(bearing * *depth));
            let p_c1 = kf1.pose.inverse_transform(&p_w);
            let uv1 = [p_c1.x() / p_c1.z(), p_c1.y() / p_c1.z()];
            let inv_depth = if perturb { truth_inv * 1.2 } else { truth_inv };
            w.landmarks.push(Landmark {
                id: i as u64,
                anchor: 0,
                bearing,
                inv_depth,
            });
            w.observations.push(Observation {
                landmark: i,
                keyframe: 1,
                uv: uv1,
            });
        }
        w
    }

    #[test]
    fn cost_zero_at_ground_truth() {
        let w = toy_window(false);
        let ne = build_dense(&w, &FactorWeights::default());
        assert!(ne.cost < 1e-15, "cost {}", ne.cost);
        assert_eq!(ne.used_observations, 4);
        assert!(ne.b.norm() < 1e-9);
    }

    #[test]
    fn leading_block_is_diagonal() {
        let w = toy_window(true);
        let ne = build_dense(&w, &FactorWeights::default());
        let a = ne.num_landmarks;
        for i in 0..a {
            for j in 0..a {
                if i != j {
                    assert_eq!(ne.a.get(i, j), 0.0, "off-diagonal ({i},{j}) nonzero");
                }
            }
        }
        // The diagonal itself must be populated (each landmark is observed).
        for i in 0..a {
            assert!(ne.a.get(i, i) > 0.0);
        }
    }

    #[test]
    fn a_is_symmetric() {
        let w = toy_window(true);
        let ne = build_dense(&w, &FactorWeights::default());
        assert!(ne.a.is_symmetric(1e-9));
    }

    #[test]
    fn gradient_points_downhill() {
        let mut w = toy_window(true);
        let weights = FactorWeights::default();
        let ne = build_dense(&w, &weights);
        assert!(ne.cost > 0.0);
        // Step a small distance along b (the negative gradient).
        let step = ne.b.scale(1e-12);
        apply_increment(&mut w, &step);
        let after = evaluate_cost(&w, &weights);
        assert!(after < ne.cost, "cost {} -> {}", ne.cost, after);
    }

    #[test]
    fn evaluate_cost_matches_build() {
        let w = toy_window(true);
        let weights = FactorWeights::default();
        let ne = build_dense(&w, &weights);
        let c = evaluate_cost(&w, &weights);
        assert!((ne.cost - c).abs() < 1e-12);
    }

    #[test]
    fn huber_downweights_gross_outliers() {
        let mut w = toy_window(false);
        w.observations[0].uv[0] += 5.0; // gross outlier on one track
        let plain = FactorWeights::default();
        let robust = plain.with_huber(0.01);
        let ne_p = build_dense(&w, &plain);
        let ne_r = build_dense(&w, &robust);
        // The outlier dominates the quadratic cost; Huber bounds its pull.
        assert!(
            ne_r.cost < ne_p.cost * 0.01,
            "{} vs {}",
            ne_r.cost,
            ne_p.cost
        );
        assert!(ne_r.b.norm() < ne_p.b.norm());
        // Step-acceptance consistency: evaluate_cost applies the same
        // weighting as the assembler.
        assert!((evaluate_cost(&w, &robust) - ne_r.cost).abs() < 1e-9);
    }

    #[test]
    fn huber_inactive_below_threshold_is_bit_identical() {
        let w = toy_window(true); // inliers only
        let plain = FactorWeights::default();
        let robust = plain.with_huber(1e9); // threshold above every residual
        let ne_p = build_dense(&w, &plain);
        let ne_r = build_dense(&w, &robust);
        assert_eq!(ne_p.cost.to_bits(), ne_r.cost.to_bits());
        for i in 0..ne_p.b.len() {
            assert_eq!(ne_p.b[i].to_bits(), ne_r.b[i].to_bits(), "b[{i}]");
            for j in 0..ne_p.b.len() {
                assert_eq!(ne_p.a.get(i, j).to_bits(), ne_r.a.get(i, j).to_bits());
            }
        }
    }

    /// Three keyframes observing twelve landmarks anchored at keyframe 0,
    /// started off the truth (inverse depths 10 % high, keyframes 1 and 2
    /// displaced), with every fourth observation shifted off its
    /// projection, under a Huber threshold that splits the residuals across
    /// δ (checked by `huber_fixture_spans_both_sides_of_delta`).
    fn huber_window() -> (SlidingWindow, FactorWeights) {
        let truth = [
            Pose::IDENTITY,
            Pose::new(
                Quat::exp(&Vec3::new(0.0, 0.02, 0.0)),
                Vec3::new(0.5, 0.0, 0.0),
            ),
            Pose::new(
                Quat::exp(&Vec3::new(0.01, 0.04, 0.0)),
                Vec3::new(1.0, 0.05, 0.0),
            ),
        ];
        let mut w = SlidingWindow::new();
        for (k, pose) in truth.iter().enumerate() {
            let s = k as f64;
            let mut offset = [0.0; STATE_DIM];
            offset[..6].copy_from_slice(&[
                0.002 * s,
                -0.003 * s,
                0.001 * s,
                0.02 * s,
                -0.01 * s,
                0.015 * s,
            ]);
            w.keyframes
                .push(KeyframeState::at_pose(*pose, 0.1 * s).boxplus(&offset));
        }
        for l in 0..12 {
            let bearing = Vec3::new(0.1 * (l % 4) as f64 - 0.15, 0.1 * (l / 4) as f64 - 0.1, 1.0);
            let depth = 4.0 + (l % 5) as f64;
            let p_w = truth[0].transform(&(bearing * depth));
            w.landmarks.push(Landmark {
                id: l as u64,
                anchor: 0,
                bearing,
                inv_depth: 1.1 / depth,
            });
            for (k, pose) in truth.iter().enumerate().skip(1) {
                let p_c = pose.inverse_transform(&p_w);
                w.observations.push(Observation {
                    landmark: l,
                    keyframe: k,
                    uv: [p_c.x() / p_c.z(), p_c.y() / p_c.z()],
                });
            }
        }
        for obs in w.observations.iter_mut().step_by(4) {
            obs.uv[0] += 0.02;
        }
        (w, FactorWeights::default().with_huber(0.01))
    }

    /// Three keyframes in uniform motion along +x joined by two IMU
    /// factors, no landmarks, with keyframes 1 and 2 pushed off the motion
    /// in every state block so each IMU residual row is live.
    fn imu_window() -> SlidingWindow {
        let mut w = SlidingWindow::new();
        for i in 0..3 {
            let mut kf = KeyframeState::at_pose(
                Pose::new(Quat::IDENTITY, Vec3::new(i as f64 * 0.4, 0.0, 0.0)),
                i as f64 * 0.1,
            );
            kf.velocity = Vec3::new(4.0, 0.0, 0.0);
            w.keyframes.push(kf);
        }
        let samples = vec![
            ImuSample {
                gyro: Vec3::ZERO,
                accel: -GRAVITY,
                dt: 0.005,
            };
            20
        ];
        for first in 0..2 {
            w.imu.push(ImuConstraint {
                first,
                preintegration: Preintegration::integrate(&samples, Vec3::ZERO, Vec3::ZERO),
            });
        }
        for (k, kf) in w.keyframes.iter_mut().enumerate().skip(1) {
            let s = k as f64;
            *kf = kf.boxplus(&[
                0.01 * s,
                -0.02,
                0.015,
                0.03,
                -0.02 * s,
                0.01,
                0.05,
                -0.04 * s,
                0.02,
                0.001,
                -0.002,
                0.001 * s,
                0.01,
                0.02 * s,
                -0.01,
            ]);
        }
        w
    }

    /// The IMU window after marginalizing keyframe 0, with that prior, its
    /// IMU factor dropped so only the prior's rows remain, and its
    /// keyframes moved off the prior's linearization point. The rotation
    /// offsets are small: the prior's gradient takes the Jacobian of the
    /// rotation log as the identity, which is exact only to first order in
    /// the offset angle.
    fn prior_window() -> (SlidingWindow, Prior) {
        let mut w = imu_window();
        let mut prior = None;
        crate::try_marginalize_oldest_in(
            &mut SolverWorkspace::new(),
            &mut w,
            &FactorWeights::default(),
            &mut prior,
        )
        .expect("the IMU fixture marginalizes");
        w.imu.clear();
        for kf in &mut w.keyframes {
            *kf = kf.boxplus(&[
                1e-5, -2e-5, 1e-5, 0.05, -0.03, 0.02, 0.1, 0.05, -0.05, 0.001, 0.0, -0.001, 0.01,
                0.0, 0.02,
            ]);
        }
        (w, prior.expect("marginalization fills the prior"))
    }

    /// Largest relative 2-norm error allowed between the assembled `b` and
    /// minus the central finite-difference gradient of `evaluate_cost_in`
    /// (step [`FD_STEP`] on every error-state coordinate). The difference
    /// is truncation and rounding; a loss scored at half (or twice) its
    /// IRLS gradient misses by a factor of order one.
    const GRADIENT_REL_TOL: f64 = 1e-4;
    const FD_STEP: f64 = 1e-6;

    /// Asserts that the assembled `b` is minus the gradient of the cost
    /// the LM acceptance test compares: `‖b + ∇c‖ ≤ GRADIENT_REL_TOL·‖b‖`.
    fn assert_b_is_cost_descent(w: &SlidingWindow, weights: &FactorWeights, prior: Option<&Prior>) {
        let mut ws = SolverWorkspace::new();
        let (sys, _) = build_block_normal_equations(&mut ws, w, weights, prior);
        let (mut a, mut b) = (DMat::zeros(0, 0), DVec::zeros(0));
        sys.to_dense_into(&mut a, &mut b);
        let n = w.state_dim();
        let mut descent = DVec::zeros(n);
        for i in 0..n {
            let cost_at = |h: f64| {
                let mut step = DVec::zeros(n);
                step[i] = h;
                let mut moved = w.clone();
                apply_increment(&mut moved, &step);
                evaluate_cost_in(&moved, weights, prior, &mut PriorScratch::default())
            };
            descent[i] = -(cost_at(FD_STEP) - cost_at(-FD_STEP)) / (2.0 * FD_STEP);
        }
        assert!(b.norm() > 0.0, "the window must be off its minimum");
        let rel = (&b - &descent).norm() / b.norm();
        assert!(
            rel <= GRADIENT_REL_TOL,
            "b differs from -grad(cost) by {rel:e} relative (tolerance {GRADIENT_REL_TOL:e})"
        );
    }

    #[test]
    fn huber_fixture_spans_both_sides_of_delta() {
        let (w, huber) = huber_window();
        let delta = huber.huber_delta.unwrap();
        let norms: Vec<f64> = w
            .observations
            .iter()
            .map(|obs| {
                let lm = &w.landmarks[obs.landmark];
                let e = evaluate_visual_residual(
                    &w.keyframes[lm.anchor].pose,
                    &w.keyframes[obs.keyframe].pose,
                    &lm.bearing,
                    lm.inv_depth,
                    obs.uv,
                )
                .unwrap();
                e[0].hypot(e[1])
            })
            .collect();
        assert!(norms.iter().any(|&r| r < delta), "{norms:?}");
        assert!(norms.iter().any(|&r| r > delta), "{norms:?}");
    }

    #[test]
    fn visual_b_is_minus_cost_gradient_under_huber() {
        let (w, huber) = huber_window();
        assert_b_is_cost_descent(&w, &huber, None);
    }

    #[test]
    fn imu_b_is_minus_cost_gradient() {
        assert_b_is_cost_descent(&imu_window(), &FactorWeights::default(), None);
    }

    #[test]
    fn prior_b_is_minus_cost_gradient() {
        let (w, prior) = prior_window();
        assert_b_is_cost_descent(&w, &FactorWeights::default(), Some(&prior));
    }

    #[test]
    fn huber_solve_rejects_no_damping_attempt() {
        // With the cost and its IRLS gradient consistent, every damped step
        // of this window decreases the cost: no solve is paid for twice.
        let (mut w, huber) = huber_window();
        let config = LmConfig {
            max_iterations: 6,
            ..LmConfig::default()
        };
        let report = solve_in_workspace(&mut SolverWorkspace::new(), &mut w, &huber, None, &config);
        assert_eq!(report.rejected, 0, "{report:?}");
        assert_eq!(report.iterations, 6, "{report:?}");
    }

    #[test]
    fn apply_increment_clamps_inverse_depth() {
        let mut w = toy_window(false);
        let dim = w.state_dim();
        let mut delta = DVec::zeros(dim);
        delta[0] = -10.0; // would drive inv_depth negative
        apply_increment(&mut w, &delta);
        assert!(w.landmarks[0].inv_depth > 0.0);
    }
}
