//! Marginalization: turning the oldest keyframe and its landmarks into a
//! prior for the next window (paper Sec. 3.1, "Marginalization").
//!
//! The procedure follows the paper's three steps: (1) linearize all factors
//! touching the marginalized states, (2) form the information matrix
//! `H = JᵀJ` and vector `b = Jᵀe`, (3) block `H` and apply the Schur
//! complement (the **M-type Schur**: the marginalized block mixes landmark
//! and pose states, so — unlike the NLS solve — its leading sub-block is only
//! *partially* diagonal; the M-DFG builder picks the blocking with the
//! diagonal `M₁₁`, which is exactly the landmark sub-block here).

use crate::factors::{evaluate_imu, evaluate_visual, FactorWeights, VISUAL_WEIGHT};
use crate::prior::{Prior, PriorFactor, PriorScratch};
use crate::solver::{SolveError, SolverWorkspace};
use crate::window::{SlidingWindow, STATE_DIM};
use archytas_math::{kernels, Cholesky, DMat, DVec};
use archytas_par::counters::{self, Phase};

/// Diagonal regularization of the marginalized block `M` (it can be gauge
/// deficient when landmarks have few observations).
const M_REG: f64 = 1e-9;

/// Starting regularization of the new prior's information.
const PRIOR_EPS: f64 = 1e-9;

/// Outcome of marginalizing the oldest keyframe out of a window.
#[derive(Debug, Clone)]
pub struct MarginalizationResult {
    /// The shrunk window (oldest keyframe and its landmarks removed, indices
    /// re-based).
    pub window: SlidingWindow,
    /// The new prior over the remaining keyframes.
    pub prior: Prior,
    /// Number of landmarks marginalized (`am` in the paper's Eq. 10/15).
    pub marginalized_landmarks: usize,
}

/// Reused buffers of [`try_marginalize_oldest_in`], held inside
/// [`SolverWorkspace`]: the local information system, the M-type Schur
/// blocks and the new prior's factorization. Every buffer is rewritten
/// before it is read.
#[derive(Debug, Clone, Default)]
pub(crate) struct MargWorkspace {
    /// Landmark index → its column in the local ordering (`usize::MAX` for
    /// landmarks that stay).
    slot: Vec<usize>,
    /// Local information `H` over `[landmarks | kf0 | kept keyframes]` and
    /// the matching right-hand side `g`.
    h: DMat,
    g: DVec,
    /// `M = U + 1e-9·I`, its factorization and inverse.
    m: DMat,
    m_chol: Cholesky<f64>,
    m_inv: DMat,
    /// Kept states whose row of `W` has a non-zero, ascending.
    coupled: Vec<usize>,
    /// `W·M⁻¹` over the coupled rows (`c × m`).
    w_minv: DMat,
    /// `Wᵀ` over the coupled columns (`m × c`).
    wt: DMat,
    /// One coupled row of `W·M⁻¹·Wᵀ`.
    prod_row: Vec<f64>,
    /// `M⁻¹·bx`.
    minv_bx: Vec<f64>,
    /// The Schur complement `(Hp, rp)` over the kept keyframes.
    hp: DMat,
    rp: DVec,
    new_prior: PriorFactor,
    /// Landmark index → index after the shrink.
    new_index: Vec<usize>,
}

/// Marginalizes keyframe 0 (and every landmark anchored there) out of
/// `window`, producing the shrunk window and the prior `(Hp, rp)` for the
/// next optimization.
///
/// `prior` is the previous window's prior, which itself touches the
/// marginalized keyframe and is therefore folded into the new one.
///
/// # Panics
///
/// Panics when the window has fewer than two keyframes, or when the
/// marginalized block is numerically unusable (see
/// [`try_marginalize_oldest`] for the fallible form).
pub fn marginalize_oldest(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
) -> MarginalizationResult {
    try_marginalize_oldest(window, weights, prior)
        .expect("marginalize_oldest: marginalized block not factorizable")
}

/// Fallible form of [`marginalize_oldest`]: a marginalized block that stays
/// non-SPD (or non-finite) through regularization comes back as an `Err`
/// instead of panicking, letting the pipeline drop the prior and continue
/// (see [`drop_oldest`] for the prior-free window shrink).
///
/// A copying convenience over [`try_marginalize_oldest_in`], with the same
/// bits.
///
/// # Panics
///
/// Still panics when the window has fewer than two keyframes — a programmer
/// error, not a data condition.
pub fn try_marginalize_oldest(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
) -> Result<MarginalizationResult, SolveError> {
    let mut window = window.clone();
    let mut slot = prior.cloned();
    let am =
        try_marginalize_oldest_in(&mut SolverWorkspace::new(), &mut window, weights, &mut slot)?;
    Ok(MarginalizationResult {
        window,
        prior: slot.expect("marginalization fills the prior on success"),
        marginalized_landmarks: am,
    })
}

/// Marginalizes keyframe 0 and its landmarks in place: `prior` (the
/// previous window's prior, if any) is folded in and then replaced by the
/// new prior over the remaining keyframes, reusing its buffers, and
/// `window` is shrunk. Returns the number of marginalized landmarks.
///
/// All scratch lives in `ws`, so once its buffers and the prior's have grown
/// to the window's shape the whole marginalize-and-slide allocates nothing.
/// On `Err` neither `window` nor `prior` is touched.
///
/// # Panics
///
/// Panics when the window has fewer than two keyframes.
pub fn try_marginalize_oldest_in(
    ws: &mut SolverWorkspace,
    window: &mut SlidingWindow,
    weights: &FactorWeights,
    prior: &mut Option<Prior>,
) -> Result<usize, SolveError> {
    counters::time(Phase::Marginalization, || {
        let marg = &mut ws.marg;
        let am = local_schur(marg, window, weights, prior.as_ref(), &mut ws.prior_scratch)?;
        Prior::rebuild(
            prior,
            &mut marg.new_prior,
            &marg.hp,
            &marg.rp,
            &window.keyframes[1..],
            PRIOR_EPS,
        )?;
        shrink(window, &mut marg.new_index);
        Ok(am)
    })
}

/// Builds the local information system of keyframe 0's factors and
/// reduces it to the Schur complement `(ws.hp, ws.rp)` over the kept
/// keyframes. Returns the number of marginalized landmarks.
fn local_schur(
    ws: &mut MargWorkspace,
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
    prior_scratch: &mut PriorScratch,
) -> Result<usize, SolveError> {
    let b = window.num_keyframes();
    assert!(b >= 2, "marginalize_oldest: need at least two keyframes");

    // Landmarks anchored at keyframe 0 are marginalized with it.
    ws.slot.clear();
    let mut am = 0;
    for lm in &window.landmarks {
        if lm.anchor == 0 {
            ws.slot.push(am);
            am += 1;
        } else {
            ws.slot.push(usize::MAX);
        }
    }

    // Local ordering: [marginalized landmarks (am) | kf0 (15) | kept keyframes ((b−1)·15)].
    let m = am + STATE_DIM;
    let dim = m + (b - 1) * STATE_DIM;
    let kf_off = |k: usize| -> usize {
        if k == 0 {
            am
        } else {
            m + (k - 1) * STATE_DIM
        }
    };
    let h = &mut ws.h;
    let g = &mut ws.g;
    h.reset_zeros(dim, dim);
    g.resize_fill(dim, 0.0);

    // --- visual factors of marginalized landmarks ---
    let wv2 = VISUAL_WEIGHT * VISUAL_WEIGHT;
    for obs in &window.observations {
        let slot = ws.slot[obs.landmark];
        if slot == usize::MAX {
            continue;
        }
        let lm = &window.landmarks[obs.landmark];
        if obs.keyframe == lm.anchor {
            continue;
        }
        let Some(ev) = evaluate_visual(
            &window.keyframes[lm.anchor].pose,
            &window.keyframes[obs.keyframe].pose,
            &lm.bearing,
            lm.inv_depth,
            obs.uv,
        ) else {
            continue;
        };
        // Same robust gate as the assembler (`None` reuses `wv2` bit for
        // bit), so an outlier's information is bounded in the prior too.
        let w2 = match weights.huber_delta {
            None => wv2,
            Some(_) => wv2 * weights.visual_robust_scale(ev.residual[0], ev.residual[1]),
        };
        let col_anchor = kf_off(0);
        let col_obs = kf_off(obs.keyframe);
        for r in 0..2 {
            // Fixed-size gather (1 rho + interleaved anchor/observer pose
            // columns, preserving the historical accumulation order).
            let mut cols = [0usize; 13];
            let mut vals = [0f64; 13];
            cols[0] = slot;
            vals[0] = ev.j_rho[r];
            for c in 0..6 {
                cols[1 + 2 * c] = col_anchor + c;
                vals[1 + 2 * c] = ev.j_anchor[r][c];
                cols[2 + 2 * c] = col_obs + c;
                vals[2 + 2 * c] = ev.j_obs[r][c];
            }
            accumulate(h, g, &cols, &vals, ev.residual[r], w2);
        }
    }

    // --- the IMU factor attached to keyframe 0 ---
    for cons in window.imu.iter().filter(|c| c.first == 0) {
        let ev = evaluate_imu(
            &window.keyframes[0],
            &window.keyframes[1],
            &cons.preintegration,
        );
        let off_i = kf_off(0);
        let off_j = kf_off(1);
        for r in 0..15 {
            let w = FactorWeights::imu_row(r);
            let mut cols = [0usize; 30];
            let mut vals = [0f64; 30];
            for c in 0..15 {
                cols[2 * c] = off_i + c;
                vals[2 * c] = ev.j_i[r][c];
                cols[2 * c + 1] = off_j + c;
                vals[2 * c + 1] = ev.j_j[r][c];
            }
            accumulate(h, g, &cols, &vals, ev.residual[r], w * w);
        }
    }

    // --- previous prior (touches kf0 and the kept keyframes) ---
    if let Some(p) = prior {
        // The prior's own ordering is [kf0, kf1, ...]; shift past the
        // landmark slots of the local ordering. Its information is the
        // cached `JᵀJ`.
        let grad = p.gradient_in(window, prior_scratch);
        let info = p.information();
        let pdim = p.dim();
        for i in 0..pdim {
            g[am + i] -= grad[i];
            let row = &mut h.row_mut(am + i)[am..am + pdim];
            for (hv, &iv) in row.iter_mut().zip(info.row(i)) {
                *hv += iv;
            }
        }
    } else {
        // Gauge prior on kf0, matching `build_normal_equations`.
        let off = kf_off(0);
        for c in 0..STATE_DIM {
            let w2 = if c < 6 { 1e8 } else { 1e2 };
            h.add_at(off + c, off + c, w2);
        }
    }

    reduce(ws, m)?;
    Ok(am)
}

/// The M-type Schur complement of `ws.h` onto its trailing `n` rows,
/// `Hp = V − W·M⁻¹·Wᵀ` and `rp = by − W·M⁻¹·bx` with
/// `M = U + 1e-9·I` the leading `m × m` block.
///
/// `M` is factored and inverted densely. The update `W·M⁻¹·Wᵀ` is
/// confined to the *coupled* kept states, those whose row of `W` is not
/// all zero. `U`'s landmark block is diagonal (each landmark touches
/// only its own inverse depth), so a landmark couples only to the pose
/// rows of the keyframes that observe it, and keyframe 0 only to those
/// pose rows, keyframe 1 (through the IMU factor) and whatever the
/// incoming prior couples: about half of the kept states. Over the
/// coupled states both products run the dense `Matrix::try_mul`
/// sequence (ascending `k`, `a = 0` skipped), so those elements are
/// bit-identical. Every other element of the dense product is a sum of
/// `a·0 = ±0` terms from `+0` (its `a` is finite, checked), which is
/// `+0`; `V − (+0)` is `V`, so those elements of `Hp` are copied from
/// `V` without arithmetic.
fn reduce(ws: &mut MargWorkspace, m: usize) -> Result<(), SolveError> {
    let h = &ws.h;
    let n = h.rows() - m;

    // M = U + 1e-9·I, factored once and inverted column by column.
    ws.m.reset_zeros(m, m);
    for i in 0..m {
        ws.m.row_mut(i).copy_from_slice(&h.row(i)[..m]);
        ws.m.add_at(i, i, M_REG);
    }
    ws.m_chol.refactor(&ws.m)?;
    ws.m_chol.inverse_into(&mut ws.m_inv);

    // The coupled kept states.
    let w_row = |i: usize| &h.row(m + i)[..m];
    ws.coupled.clear();
    ws.coupled
        .extend((0..n).filter(|&i| w_row(i).iter().any(|&v| v != 0.0)));
    let c = ws.coupled.len();

    // W·M⁻¹ over the coupled rows (the `try_mul` order and skip); the
    // other rows are exactly zero.
    ws.w_minv.reset_zeros(c, m);
    for (ii, &i) in ws.coupled.iter().enumerate() {
        let rows = w_row(i)
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a != 0.0)
            .map(|(k, &a)| (ws.m_inv.row(k), a));
        kernels::add_scaled_rows(ws.w_minv.row_mut(ii), rows);
    }
    if !ws.w_minv.all_finite() {
        return Err(SolveError::NonFinite);
    }

    // Wᵀ over the coupled columns.
    ws.wt.reset_zeros(m, c);
    for (jj, &j) in ws.coupled.iter().enumerate() {
        for (k, &v) in w_row(j).iter().enumerate() {
            ws.wt.set(k, jj, v);
        }
    }

    // Hp = V, then V − (W·M⁻¹)·Wᵀ on the coupled block, one row at a
    // time in the `try_mul` order (four rows of Wᵀ per traversal).
    ws.hp.reset_zeros(n, n);
    for i in 0..n {
        ws.hp.row_mut(i).copy_from_slice(&h.row(m + i)[m..]);
    }
    ws.prod_row.resize(c, 0.0);
    for (ii, &i) in ws.coupled.iter().enumerate() {
        ws.prod_row.fill(0.0);
        let a_row = ws.w_minv.row(ii);
        let rows = (0..m)
            .filter(|&k| a_row[k] != 0.0)
            .map(|k| (ws.wt.row(k), a_row[k]));
        kernels::add_scaled_rows(&mut ws.prod_row, rows);
        let hp_row = ws.hp.row_mut(i);
        for (&j, &p) in ws.coupled.iter().zip(&ws.prod_row) {
            hp_row[j] -= p;
        }
    }

    // rp = by − W·(M⁻¹·bx), as two `mat_vec` sums.
    let (bx, by) = ws.g.as_slice().split_at(m);
    ws.minv_bx.clear();
    for k in 0..m {
        let t: f64 = ws.m_inv.row(k).iter().zip(bx).map(|(&a, &b)| a * b).sum();
        ws.minv_bx.push(t);
    }
    ws.rp.resize_fill(n, 0.0);
    for (i, (r, &byi)) in ws.rp.as_mut_slice().iter_mut().zip(by).enumerate() {
        let t: f64 = h.row(m + i)[..m]
            .iter()
            .zip(&ws.minv_bx)
            .map(|(&a, &b)| a * b)
            .sum();
        *r = byi - t;
    }
    Ok(())
}

/// Shrinks the window without computing a prior: keyframe 0 and its anchored
/// landmarks are simply discarded, in place. Returns the number of landmarks
/// dropped.
///
/// This is the degradation fallback when [`try_marginalize_oldest`] fails —
/// the departed keyframe's information is lost (the next window re-fixes the
/// gauge instead), but the estimator keeps running rather than carrying a
/// poisoned prior into every subsequent window.
///
/// # Panics
///
/// Panics when the window has fewer than two keyframes.
pub fn drop_oldest(window: &mut SlidingWindow) -> usize {
    assert!(
        window.num_keyframes() >= 2,
        "drop_oldest: need at least two keyframes"
    );
    shrink(window, &mut Vec::new())
}

/// Rank-1 update `H += w2·vᵀv`, `g −= w2·e·v` of one residual row over the
/// distinct columns `cols`, skipping zero entries of `v`.
fn accumulate(h: &mut DMat, g: &mut DVec, cols: &[usize], vals: &[f64], e: f64, w2: f64) {
    let dim = h.cols();
    let h = h.as_mut_slice();
    for (k, (&ci, &vi)) in cols.iter().zip(vals).enumerate() {
        if vi == 0.0 {
            continue;
        }
        g[ci] -= w2 * vi * e;
        for (&cj, &vj) in cols[k..].iter().zip(&vals[k..]) {
            if vj == 0.0 {
                continue;
            }
            let contrib = w2 * vi * vj;
            h[ci * dim + cj] += contrib;
            if ci != cj {
                h[cj * dim + ci] += contrib;
            }
        }
    }
}

/// Removes keyframe 0 and the landmarks anchored there in place, re-basing
/// all indices (`new_index` is scratch). Returns the number of landmarks
/// removed.
fn shrink(window: &mut SlidingWindow, new_index: &mut Vec<usize>) -> usize {
    new_index.clear();
    let mut kept = 0;
    for lm in &window.landmarks {
        if lm.anchor == 0 {
            new_index.push(usize::MAX);
        } else {
            new_index.push(kept);
            kept += 1;
        }
    }
    let removed = window.landmarks.len() - kept;
    window.landmarks.retain_mut(|lm| {
        if lm.anchor == 0 {
            return false;
        }
        lm.anchor -= 1;
        true
    });
    window.observations.retain_mut(|o| {
        let l = new_index[o.landmark];
        if l == usize::MAX || o.keyframe == 0 {
            return false;
        }
        o.landmark = l;
        o.keyframe -= 1;
        true
    });
    window.imu.retain_mut(|c| {
        if c.first == 0 {
            return false;
        }
        c.first -= 1;
        true
    });
    window.keyframes.remove(0);
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Pose, Quat, Vec3};
    use crate::imu::{ImuSample, Preintegration};
    use crate::window::{ImuConstraint, KeyframeState, Landmark, Observation};

    /// Three keyframes moving along +x, landmarks anchored at kf0 and kf1.
    fn build_window() -> SlidingWindow {
        let mut w = SlidingWindow::new();
        for i in 0..3 {
            w.keyframes.push(KeyframeState::at_pose(
                Pose::new(Quat::IDENTITY, Vec3::new(i as f64 * 0.4, 0.0, 0.0)),
                i as f64 * 0.1,
            ));
        }
        // Two landmarks anchored at kf0, one at kf1; all observed downstream.
        let specs = [
            (0usize, 0.1, 0.05, 5.0),
            (0, -0.2, 0.1, 7.0),
            (1, 0.15, -0.1, 6.0),
        ];
        for (idx, (anchor, x, y, d)) in specs.iter().enumerate() {
            let bearing = Vec3::new(*x, *y, 1.0);
            let p_w = w.keyframes[*anchor].pose.transform(&(bearing * *d));
            w.landmarks.push(Landmark {
                id: idx as u64,
                anchor: *anchor,
                bearing,
                inv_depth: 1.0 / d,
            });
            for kf in (*anchor + 1)..3 {
                let p_c = w.keyframes[kf].pose.inverse_transform(&p_w);
                w.observations.push(Observation {
                    landmark: idx,
                    keyframe: kf,
                    uv: [p_c.x() / p_c.z(), p_c.y() / p_c.z()],
                });
            }
        }
        // IMU constraints consistent with uniform motion (v = 4 m/s along x).
        for i in 0..w.keyframes.len() {
            w.keyframes[i].velocity = Vec3::new(4.0, 0.0, 0.0);
        }
        for i in 0..2 {
            let samples: Vec<ImuSample> = (0..20)
                .map(|_| ImuSample {
                    gyro: Vec3::ZERO,
                    accel: -crate::imu::GRAVITY, // at rest rotationally, constant velocity
                    dt: 0.005,
                })
                .collect();
            w.imu.push(ImuConstraint {
                first: i,
                preintegration: Preintegration::integrate(&samples, Vec3::ZERO, Vec3::ZERO),
            });
        }
        w
    }

    #[test]
    fn window_shrinks_consistently() {
        let w = build_window();
        let result = marginalize_oldest(&w, &FactorWeights::default(), None);
        assert_eq!(result.marginalized_landmarks, 2);
        let nw = &result.window;
        assert_eq!(nw.num_keyframes(), 2);
        assert_eq!(nw.num_landmarks(), 1);
        assert!(nw.validate(), "shrunk window has consistent indices");
        // The surviving landmark was anchored at kf1, now kf0.
        assert_eq!(nw.landmarks[0].anchor, 0);
        assert!(nw.imu.iter().all(|c| c.first == 0));
    }

    #[test]
    fn prior_covers_remaining_keyframes() {
        let w = build_window();
        let result = marginalize_oldest(&w, &FactorWeights::default(), None);
        assert_eq!(result.prior.num_keyframes(), 2);
        assert_eq!(result.prior.dim(), 30);
    }

    #[test]
    fn prior_information_is_psd_and_nontrivial() {
        let w = build_window();
        let result = marginalize_oldest(&w, &FactorWeights::default(), None);
        let hp = result.prior.information();
        assert!(hp.is_symmetric(1e-6));
        // PSD check via Cholesky of Hp + εI.
        assert!(hp.add_diagonal(1e-6).cholesky().is_ok());
        assert!(hp.max_abs() > 1.0, "prior carries real information");
    }

    /// Marginalization must preserve the minimizer: for a window already at
    /// the ground truth (zero residuals), the prior's gradient at the
    /// remaining states must be (numerically) zero.
    #[test]
    fn prior_gradient_zero_at_consistent_states() {
        let w = build_window();
        let result = marginalize_oldest(&w, &FactorWeights::default(), None);
        let g = result.prior.gradient(&result.window);
        assert!(
            g.max_abs() < 1e-3,
            "gradient at the optimum should vanish, got {}",
            g.max_abs()
        );
    }

    #[test]
    fn corrupted_window_errors_instead_of_panicking() {
        let mut w = build_window();
        for obs in &mut w.observations {
            obs.uv = [f64::NAN, f64::NAN];
        }
        let r = try_marginalize_oldest(&w, &FactorWeights::default(), None);
        assert!(r.is_err(), "NaN measurements must surface as SolveError");
    }

    #[test]
    fn drop_oldest_matches_marginalize_shrink() {
        let w = build_window();
        let full = marginalize_oldest(&w, &FactorWeights::default(), None);
        let mut dropped = w.clone();
        let am = drop_oldest(&mut dropped);
        assert_eq!(am, full.marginalized_landmarks);
        assert_eq!(dropped.num_keyframes(), full.window.num_keyframes());
        assert_eq!(dropped.num_landmarks(), full.window.num_landmarks());
        assert!(dropped.validate());
    }

    #[test]
    fn chained_marginalization_folds_prior() {
        let w = build_window();
        let weights = FactorWeights::default();
        let r1 = marginalize_oldest(&w, &weights, None);
        // Second marginalization consumes the first prior.
        let r2 = marginalize_oldest(&r1.window, &weights, Some(&r1.prior));
        assert_eq!(r2.window.num_keyframes(), 1);
        assert_eq!(r2.prior.num_keyframes(), 1);
        let hp = r2.prior.information();
        assert!(hp.max_abs() > 1.0);
    }
}
