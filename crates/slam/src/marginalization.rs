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

use crate::factors::{evaluate_imu, evaluate_visual, FactorWeights};
use crate::prior::{Prior, PriorScratch};
use crate::solver::{SolveError, SolverWorkspace};
use crate::window::{SlidingWindow, STATE_DIM};
use archytas_math::{kernels, Cholesky, DMat, DVec};
use archytas_par::counters::{self, Phase};

/// Diagonal regularization of the marginalized block `M` (it can be gauge
/// deficient when landmarks have few observations).
const M_REG: f64 = 1e-9;

/// Diagonal regularization of the new prior's information.
const PRIOR_EPS: f64 = 1e-9;

/// Reused buffers of [`try_marginalize_oldest_in`], held inside
/// [`SolverWorkspace`]: the local information system, the arrow inverse of
/// `M` and the Schur complement. Every buffer is rewritten before it is
/// read.
#[derive(Debug, Clone, Default)]
pub(crate) struct MargWorkspace {
    /// Landmark index → its column in the local ordering (`usize::MAX` for
    /// landmarks that stay).
    slot: Vec<usize>,
    /// Local information `H` over `[landmarks | kf0 | kept keyframes]` and
    /// the matching right-hand side `g`.
    h: DMat,
    g: DVec,
    /// `1 / M_ll` of each marginalized landmark.
    d_inv: Vec<f64>,
    /// `D⁻¹·E`, each landmark's kf0 coupling row scaled by `1 / M_ll`.
    d_inv_e: Vec<[f64; STATE_DIM]>,
    /// `S = K − Eᵀ·D⁻¹·E` on keyframe 0 and its factorization.
    s: DMat,
    s_chol: Cholesky<f64>,
    /// Kept states whose row of `W` has a non-zero, ascending.
    coupled: Vec<usize>,
    /// The landmark columns of `W` over the coupled rows (`am × c`).
    wl_t: DMat,
    /// `F = G·L⁻ᵀ` over the coupled rows, transposed (`15 × c`).
    f_t: DMat,
    /// One upper row of `W·M⁻¹·Wᵀ` over the coupled states.
    prod_row: Vec<f64>,
    /// `M⁻¹·bx`.
    minv_bx: Vec<f64>,
    /// The Schur complement `(Hp, rp)` over the kept keyframes; after a
    /// rebuild they hold the previous prior's buffers.
    hp: DMat,
    rp: DVec,
    /// Landmark index → index after the shrink.
    new_index: Vec<usize>,
}

/// Marginalizes keyframe 0 and every landmark anchored there in place:
/// `prior` (the previous window's prior, if any) is folded in and then
/// replaced by the new prior over the remaining keyframes, reusing its
/// buffers, and `window` is shrunk. Returns the number of marginalized
/// landmarks (`am` in the paper's Eq. 10/15).
///
/// All scratch lives in `ws`, so once its buffers and the prior's have grown
/// to the window's shape the whole marginalize-and-slide allocates nothing.
/// A marginalized block that is not positive definite, or a non-finite
/// value, comes back as an `Err`, letting the pipeline drop the prior and
/// continue (see [`drop_oldest`] for the prior-free window shrink); on `Err`
/// neither `window` nor `prior` is touched.
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
        let (am, cost0) = local_schur(marg, window, weights, prior.as_ref(), &mut ws.lin.prior)?;
        Prior::rebuild(
            prior,
            &mut marg.hp,
            &mut marg.rp,
            cost0,
            &window.keyframes[1..],
            PRIOR_EPS,
        )?;
        shrink(window, &mut marg.new_index);
        Ok(am)
    })
}

/// Builds the local information system of keyframe 0's factors and
/// reduces it to the Schur complement `(ws.hp, ws.rp)` over the kept
/// keyframes. Returns the number of marginalized landmarks and the new
/// prior's cost `c` at the linearization point.
fn local_schur(
    ws: &mut MargWorkspace,
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
    prior_scratch: &mut PriorScratch,
) -> Result<(usize, f64), SolveError> {
    let b = window.num_keyframes();
    assert!(b >= 2, "marginalization: need at least two keyframes");

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
    // The local system's cost at the linearization point: the loss of every
    // factor folded into `h` (½·w²·e² per row, the visual loss `ρ` per
    // visual factor), plus the incoming prior's cost.
    let mut cost = 0.0;

    // --- visual factors of marginalized landmarks ---
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
        // Same loss and weight as the assembler, so an outlier's
        // information is bounded in the prior too.
        let loss = weights.visual_loss(ev.residual[0], ev.residual[1]);
        // Columns ascending: inverse depth, kf0 pose, observer pose.
        let mut cols = [0usize; 13];
        let mut rows = [[0f64; 13]; 2];
        cols[0] = slot;
        for c in 0..6 {
            cols[1 + c] = kf_off(0) + c;
            cols[7 + c] = kf_off(obs.keyframe) + c;
        }
        for (r, row) in rows.iter_mut().enumerate() {
            cost += 0.5 * loss.rho_w2 * ev.residual[r] * ev.residual[r];
            row[0] = ev.j_rho[r];
            row[1..7].copy_from_slice(&ev.j_anchor[r]);
            row[7..].copy_from_slice(&ev.j_obs[r]);
        }
        accumulate_upper(h, g, &cols, &rows, &ev.residual, &[loss.w2; 2]);
    }

    // --- the IMU factor attached to keyframe 0 ---
    for cons in window.imu.iter().filter(|c| c.first == 0) {
        let ev = evaluate_imu(
            &window.keyframes[0],
            &window.keyframes[1],
            &cons.preintegration,
        );
        // Columns ascending: kf0's state, then kf1's.
        let cols: [usize; 30] = std::array::from_fn(|c| {
            if c < STATE_DIM {
                kf_off(0) + c
            } else {
                kf_off(1) + c - STATE_DIM
            }
        });
        let mut rows = [[0f64; 30]; STATE_DIM];
        let mut w2 = [0f64; STATE_DIM];
        for (r, row) in rows.iter_mut().enumerate() {
            let w = FactorWeights::imu_row(r);
            w2[r] = w * w;
            cost += 0.5 * w2[r] * ev.residual[r] * ev.residual[r];
            row[..STATE_DIM].copy_from_slice(&ev.j_i[r]);
            row[STATE_DIM..].copy_from_slice(&ev.j_j[r]);
        }
        accumulate_upper(h, g, &cols, &rows, &ev.residual, &w2);
    }

    // --- previous prior (touches kf0 and the kept keyframes) ---
    if let Some(p) = prior {
        // The prior's own ordering is [kf0, kf1, ...]; shift past the
        // landmark slots of the local ordering.
        let (prior_cost, grad) = p.evaluate_in(window, prior_scratch);
        cost += prior_cost;
        let info = p.information();
        let pdim = p.dim();
        for i in 0..pdim {
            g[am + i] -= grad[i];
            let row = &mut h.row_mut(am + i)[am + i..am + pdim];
            for (hv, &iv) in row.iter_mut().zip(&info.row(i)[i..]) {
                *hv += iv;
            }
        }
    } else {
        // Gauge prior on kf0, matching the LM assembly's.
        let off = kf_off(0);
        for c in 0..STATE_DIM {
            let w2 = if c < 6 { 1e8 } else { 1e2 };
            h.add_at(off + c, off + c, w2);
        }
    }

    // Every write above landed in the upper triangle; mirror it once.
    let hs = h.as_mut_slice();
    for i in 0..dim {
        for j in i + 1..dim {
            hs[j * dim + i] = hs[i * dim + j];
        }
    }

    // `c = cost − ½·bₘᵀM⁻¹bₘ` is the minimum over the marginalized states
    // of the local model, a sum of squares plus, per Huber outlier, the
    // non-negative `ρ − ½·w²·‖e‖² = ½·wv²·δ·(‖e‖ − δ)`, so it is never
    // negative; the clamp only absorbs rounding (and lets a NaN through to
    // the prior's finiteness check).
    let c = cost - 0.5 * reduce(ws, am)?;
    Ok((am, if c < 0.0 { 0.0 } else { c }))
}

/// The M-type Schur complement of `ws.h` onto its trailing `n` rows,
/// `Hp = V − W·M⁻¹·Wᵀ` and `rp = by − W·M⁻¹·bx` with `M = U + 1e-9·I`
/// the leading `m × m` block (`m = am + 15`). Returns `bxᵀ·M⁻¹·bx`.
///
/// `M` is an arrow: each marginalized landmark touches only its own
/// inverse depth and keyframe 0, so `M = [D E; Eᵀ K]` with `D` diagonal
/// (`am`), `E` the landmarks' kf0 couplings (`am × 15`) and `K` the kf0
/// block. Its inverse goes through the 15×15 Schur complement
/// `S = K − Eᵀ·D⁻¹·E = L·Lᵀ`. Splitting `W = [Wl Wk]` the same way,
///
/// `W·M⁻¹·Wᵀ = Wl·D⁻¹·Wlᵀ + G·S⁻¹·Gᵀ`, with `G = Wk − Wl·D⁻¹·E`:
///
/// a diagonal-scaled landmark product plus a rank-15 term `F·Fᵀ`,
/// `F = G·L⁻ᵀ`. Both are confined to the *coupled* kept states, those
/// whose row of `W` is not all zero (a landmark couples only to the pose
/// rows of the keyframes that observe it, keyframe 0 only to those,
/// keyframe 1 and whatever the incoming prior couples). Only the upper
/// triangle of the product is formed, so `Hp` is symmetric bit for bit;
/// a non-finite `Hp` or `rp` is caught by [`Prior`]'s rebuild.
fn reduce(ws: &mut MargWorkspace, am: usize) -> Result<f64, SolveError> {
    const K: usize = STATE_DIM;
    let m = am + K;
    let h = &ws.h;
    let n = h.rows() - m;

    // D⁻¹, D⁻¹·E, and S = K − Eᵀ·D⁻¹·E, factored.
    ws.d_inv.clear();
    ws.d_inv_e.clear();
    for l in 0..am {
        let row = h.row(l);
        let d_inv = 1.0 / (row[l] + M_REG);
        ws.d_inv.push(d_inv);
        ws.d_inv_e
            .push(std::array::from_fn(|k| d_inv * row[am + k]));
    }
    ws.s.reset_zeros(K, K);
    for r in 0..K {
        let s_row = ws.s.row_mut(r);
        s_row.copy_from_slice(&h.row(am + r)[am..m]);
        s_row[r] += M_REG;
        let rows = (0..am)
            .map(|l| (&ws.d_inv_e[l][..], -h.get(l, am + r)))
            .filter(|&(_, e)| e != 0.0);
        kernels::add_scaled_rows(s_row, rows);
    }
    if !ws.s.all_finite() {
        return Err(SolveError::NonFinite);
    }
    ws.s_chol.refactor(&ws.s)?;
    let lt = ws.s_chol.lt();
    // x ← L⁻¹·x, reading row r of L as column r of the stored Lᵀ.
    let forward = |x: &mut [f64; K]| {
        for r in 0..K {
            let t: f64 = (0..r).map(|j| lt.get(j, r) * x[j]).sum();
            x[r] = (x[r] - t) / lt.get(r, r);
        }
    };

    // The coupled kept states, the landmark columns of W over them
    // (transposed), and F = (Wk − Wl·D⁻¹·E)·L⁻ᵀ, also transposed.
    let w_row = |i: usize| &h.row(m + i)[..m];
    ws.coupled.clear();
    ws.coupled
        .extend((0..n).filter(|&i| w_row(i).iter().any(|&v| v != 0.0)));
    let c = ws.coupled.len();
    ws.wl_t.reset_zeros(am, c);
    ws.f_t.reset_zeros(K, c);
    for (ii, &i) in ws.coupled.iter().enumerate() {
        let w = w_row(i);
        let mut g: [f64; K] = std::array::from_fn(|k| w[am + k]);
        for (lm, &v) in w[..am].iter().enumerate().filter(|&(_, &v)| v != 0.0) {
            ws.wl_t.set(lm, ii, v);
            for (gk, &de) in g.iter_mut().zip(&ws.d_inv_e[lm]) {
                *gk -= v * de;
            }
        }
        forward(&mut g);
        for (r, &f) in g.iter().enumerate() {
            ws.f_t.set(r, ii, f);
        }
    }

    // Hp = V, minus Wl·D⁻¹·Wlᵀ + F·Fᵀ on the coupled block: one upper
    // row of the product at a time, subtracted from both triangles.
    ws.hp.reset_zeros(n, n);
    for i in 0..n {
        ws.hp.row_mut(i).copy_from_slice(&h.row(m + i)[m..]);
    }
    ws.prod_row.resize(c, 0.0);
    for (ii, &i) in ws.coupled.iter().enumerate() {
        let prod = &mut ws.prod_row[ii..];
        prod.fill(0.0);
        let w = w_row(i);
        let landmark_rows = (0..am)
            .filter(|&lm| w[lm] != 0.0)
            .map(|lm| (&ws.wl_t.row(lm)[ii..], ws.d_inv[lm] * w[lm]));
        kernels::add_scaled_rows(prod, landmark_rows);
        let rank15_rows = (0..K).map(|r| (&ws.f_t.row(r)[ii..], ws.f_t.get(r, ii)));
        kernels::add_scaled_rows(prod, rank15_rows);
        for (&j, &p) in ws.coupled[ii..].iter().zip(prod.iter()) {
            ws.hp.add_at(i, j, -p);
            if i != j {
                ws.hp.add_at(j, i, -p);
            }
        }
    }

    // M⁻¹·bx through the same arrow: z = S⁻¹·(bk − Eᵀ·D⁻¹·bl) on kf0,
    // then D⁻¹·(bl − E·z) on the landmarks.
    let (bx, by) = ws.g.as_slice().split_at(m);
    let mut z: [f64; K] = std::array::from_fn(|k| bx[am + k]);
    for (de, &b) in ws.d_inv_e.iter().zip(&bx[..am]) {
        for (zk, &d) in z.iter_mut().zip(de) {
            *zk -= d * b;
        }
    }
    forward(&mut z);
    for r in (0..K).rev() {
        let t: f64 = lt.row(r)[r + 1..]
            .iter()
            .zip(&z[r + 1..])
            .map(|(&a, &b)| a * b)
            .sum();
        z[r] = (z[r] - t) / lt.get(r, r);
    }
    ws.minv_bx.clear();
    for (lm, &b) in bx[..am].iter().enumerate() {
        let ez: f64 = h.row(lm)[am..m].iter().zip(&z).map(|(&a, &b)| a * b).sum();
        ws.minv_bx.push(ws.d_inv[lm] * (b - ez));
    }
    ws.minv_bx.extend_from_slice(&z);

    // rp = by − W·(M⁻¹·bx); uncoupled rows of W are zero.
    ws.rp.resize_fill(n, 0.0);
    ws.rp.as_mut_slice().copy_from_slice(by);
    for &i in &ws.coupled {
        let t: f64 = w_row(i).iter().zip(&ws.minv_bx).map(|(&a, &b)| a * b).sum();
        ws.rp[i] -= t;
    }
    Ok(bx.iter().zip(&ws.minv_bx).map(|(&a, &b)| a * b).sum())
}

/// Shrinks the window without computing a prior: keyframe 0 and its anchored
/// landmarks are simply discarded, in place. Returns the number of landmarks
/// dropped.
///
/// This is the degradation fallback when [`try_marginalize_oldest_in`] fails —
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

/// Adds `Σᵣ w2ᵣ·vᵣᵀ·vᵣ` to the upper triangle of `h` and `−Σᵣ w2ᵣ·eᵣ·vᵣ`
/// to `g`, for `R` residual rows `vᵣ` over the same ascending, distinct
/// columns `cols`.
fn accumulate_upper<const C: usize, const R: usize>(
    h: &mut DMat,
    g: &mut DVec,
    cols: &[usize; C],
    rows: &[[f64; C]; R],
    e: &[f64; R],
    w2: &[f64; R],
) {
    let weighted: [[f64; C]; R] = std::array::from_fn(|r| rows[r].map(|v| w2[r] * v));
    for a in 0..C {
        let mut ga = 0.0;
        for r in 0..R {
            ga += weighted[r][a] * e[r];
        }
        g[cols[a]] -= ga;
        let h_row = h.row_mut(cols[a]);
        for b in a..C {
            let mut s = 0.0;
            for r in 0..R {
                s += weighted[r][a] * rows[r][b];
            }
            h_row[cols[b]] += s;
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

    /// Marginalizes keyframe 0 out of `w` in place with default weights,
    /// folding in `prior` and replacing it with the new one.
    fn marginalize(w: &mut SlidingWindow, prior: &mut Option<Prior>) -> Result<usize, SolveError> {
        try_marginalize_oldest_in(
            &mut SolverWorkspace::new(),
            w,
            &FactorWeights::default(),
            prior,
        )
    }

    #[test]
    fn window_shrinks_consistently() {
        let mut nw = build_window();
        let am = marginalize(&mut nw, &mut None).unwrap();
        assert_eq!(am, 2);
        assert_eq!(nw.num_keyframes(), 2);
        assert_eq!(nw.num_landmarks(), 1);
        assert!(nw.validate(), "shrunk window has consistent indices");
        // The surviving landmark was anchored at kf1, now kf0.
        assert_eq!(nw.landmarks[0].anchor, 0);
        assert!(nw.imu.iter().all(|c| c.first == 0));
    }

    #[test]
    fn prior_covers_remaining_keyframes() {
        let mut prior = None;
        marginalize(&mut build_window(), &mut prior).unwrap();
        let prior = prior.unwrap();
        assert_eq!(prior.num_keyframes(), 2);
        assert_eq!(prior.dim(), 30);
    }

    #[test]
    fn prior_information_is_psd_and_nontrivial() {
        let mut prior = None;
        marginalize(&mut build_window(), &mut prior).unwrap();
        let prior = prior.unwrap();
        let hp = prior.information();
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
        let mut w = build_window();
        let mut prior = None;
        marginalize(&mut w, &mut prior).unwrap();
        let g = prior.unwrap().gradient(&w);
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
        let r = marginalize(&mut w, &mut None);
        assert!(r.is_err(), "NaN measurements must surface as SolveError");
    }

    #[test]
    fn non_finite_kept_information_is_a_non_finite_error() {
        // A NaN on keyframe 1 reaches `Hp` and `rp` through the IMU factor;
        // it must surface as `NonFinite`, not as a failed factorization.
        let mut w = build_window();
        w.keyframes[1].velocity = Vec3::new(f64::NAN, 0.0, 0.0);
        let r = marginalize(&mut w, &mut None);
        assert!(matches!(r, Err(SolveError::NonFinite)), "{:?}", r.err());
    }

    #[test]
    fn drop_oldest_matches_marginalize_shrink() {
        let w = build_window();
        let mut full = w.clone();
        let full_am = marginalize(&mut full, &mut None).unwrap();
        let mut dropped = w.clone();
        let am = drop_oldest(&mut dropped);
        assert_eq!(am, full_am);
        assert_eq!(dropped.num_keyframes(), full.num_keyframes());
        assert_eq!(dropped.num_landmarks(), full.num_landmarks());
        assert!(dropped.validate());
    }

    #[test]
    fn chained_marginalization_folds_prior() {
        let mut w = build_window();
        let mut prior = None;
        marginalize(&mut w, &mut prior).unwrap();
        // Second marginalization consumes the first prior.
        marginalize(&mut w, &mut prior).unwrap();
        let prior = prior.unwrap();
        assert_eq!(w.num_keyframes(), 1);
        assert_eq!(prior.num_keyframes(), 1);
        let hp = prior.information();
        assert!(hp.max_abs() > 1.0);
    }
}
