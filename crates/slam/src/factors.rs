//! Residuals and analytic Jacobians of the MAP objective (paper Eq. 2).
//!
//! Three factor families:
//!
//! * **Visual** — reprojection of an inverse-depth landmark from its anchor
//!   keyframe into an observing keyframe (2-dim residual on the normalized
//!   image plane).
//! * **IMU** — preintegrated relative-motion constraint between consecutive
//!   keyframes (15-dim residual).
//! * **Prior** — the marginalization product `(Hp, rp, c)` in information form
//!   (see `crate::marginalization`).
//!
//! Jacobians follow the *right* perturbation convention of
//! [`Pose::boxplus`](crate::geometry::Pose::boxplus); every analytic block is
//! cross-checked against numeric differentiation in the tests.

use crate::geometry::{Mat3, Pose, Vec3};
use crate::imu::{Preintegration, GRAVITY};
use crate::window::{KeyframeState, SlidingWindow};

/// Pose-tangent sub-block ordering within a keyframe error state.
pub const THETA: usize = 0;
/// Offset of the translation block.
pub const TRANS: usize = 3;
/// Offset of the velocity block.
pub const VEL: usize = 6;
/// Offset of the gyro-bias block.
pub const BG: usize = 9;
/// Offset of the accel-bias block.
pub const BA: usize = 12;

/// Evaluated visual factor: residual and Jacobians.
#[derive(Debug, Clone)]
pub struct VisualEval {
    /// 2-dim residual (predicted − measured, normalized plane).
    pub residual: [f64; 2],
    /// ∂r/∂(anchor pose) — 2×6 `[δθ, δp]`.
    pub j_anchor: [[f64; 6]; 2],
    /// ∂r/∂(observing pose) — 2×6 `[δθ, δp]`.
    pub j_obs: [[f64; 6]; 2],
    /// ∂r/∂(inverse depth) — 2×1.
    pub j_rho: [f64; 2],
}

/// Evaluates the reprojection residual of a landmark with bearing `bearing`
/// and inverse depth `rho`, anchored at `anchor` and measured at `uv`
/// (normalized) from `obs`.
///
/// Returns `None` when the landmark projects behind the observing camera —
/// such observations are dropped from the problem, mirroring how a tracking
/// front-end would discard them.
pub fn evaluate_visual(
    anchor: &Pose,
    obs: &Pose,
    bearing: &Vec3,
    rho: f64,
    uv: [f64; 2],
) -> Option<VisualEval> {
    let r_a = anchor.rot.to_mat();
    let r_o_t = obs.rot.to_mat().transpose();
    evaluate_visual_with(anchor, &r_a, obs, &r_o_t, bearing, rho, uv)
}

/// `(R, Rᵀ)` of each keyframe's rotation, in window order, into `out`.
/// Computed once per linearization, so each visual factor reads its two
/// matrices instead of rebuilding them from the quaternions.
pub(crate) fn keyframe_rotations(window: &SlidingWindow, out: &mut Vec<(Mat3, Mat3)>) {
    out.clear();
    out.extend(window.keyframes.iter().map(|kf| {
        let r = kf.pose.rot.to_mat();
        (r, r.transpose())
    }));
}

/// [`evaluate_visual`] with the anchor's rotation matrix `r_a` and the
/// observer's transposed one `r_o_t` supplied by the caller (see
/// [`keyframe_rotations`]); the same bits.
pub(crate) fn evaluate_visual_with(
    anchor: &Pose,
    r_a: &Mat3,
    obs: &Pose,
    r_o_t: &Mat3,
    bearing: &Vec3,
    rho: f64,
    uv: [f64; 2],
) -> Option<VisualEval> {
    // Landmark in the anchor camera frame, the world, then the observer.
    let p_a = *bearing * (1.0 / rho);
    let p_w = anchor.transform(&p_a);
    let p_c = obs.inverse_transform(&p_w);
    let z = p_c.z();
    if z <= 1e-6 {
        return None;
    }
    let inv_z = 1.0 / z;
    let residual = [p_c.x() * inv_z - uv[0], p_c.y() * inv_z - uv[1]];

    // ∂(projection)/∂p_c — 2×3.
    let j_proj = [
        [inv_z, 0.0, -p_c.x() * inv_z * inv_z],
        [0.0, inv_z, -p_c.y() * inv_z * inv_z],
    ];

    // Chain rule pieces (see module docs for the perturbation convention):
    //   ∂p_c/∂δθ_a = −R_oᵀ·R_a·[p_a]×      ∂p_c/∂δp_a = R_oᵀ
    //   ∂p_c/∂δθ_o = [p_c]×                ∂p_c/∂δp_o = −R_oᵀ
    //   ∂p_c/∂ρ    = −R_oᵀ·R_a·bearing/ρ²
    let rot_ao = mat3_mul(r_o_t, r_a);
    let d_theta_a = mat3_scale(&mat3_mul(&rot_ao, &p_a.skew()), -1.0);
    let d_p_a = *r_o_t;
    let d_theta_o = p_c.skew();
    let d_p_o = mat3_scale(r_o_t, -1.0);
    let d_rho = rot_ao.mul_vec(&(*bearing * (-1.0 / (rho * rho))));

    let mut j_anchor = [[0.0; 6]; 2];
    let mut j_obs = [[0.0; 6]; 2];
    let mut j_rho = [0.0; 2];
    #[allow(clippy::needless_range_loop)] // parallel-indexed 2x3x3 contraction
    for r in 0..2 {
        for c in 0..3 {
            let mut acc_ta = 0.0;
            let mut acc_pa = 0.0;
            let mut acc_to = 0.0;
            let mut acc_po = 0.0;
            for k in 0..3 {
                acc_ta += j_proj[r][k] * d_theta_a.get(k, c);
                acc_pa += j_proj[r][k] * d_p_a.get(k, c);
                acc_to += j_proj[r][k] * d_theta_o.get(k, c);
                acc_po += j_proj[r][k] * d_p_o.get(k, c);
            }
            j_anchor[r][THETA + c] = acc_ta;
            j_anchor[r][TRANS + c] = acc_pa;
            j_obs[r][THETA + c] = acc_to;
            j_obs[r][TRANS + c] = acc_po;
        }
        j_rho[r] = j_proj[r][0] * d_rho.x() + j_proj[r][1] * d_rho.y() + j_proj[r][2] * d_rho.z();
    }

    Some(VisualEval {
        residual,
        j_anchor,
        j_obs,
        j_rho,
    })
}

/// Residual-only form of [`evaluate_visual`], for cost evaluation.
///
/// Computes exactly the residual prefix of [`evaluate_visual`] — the same
/// transform chain, the same `z` gate, the same operation order — and skips
/// the Jacobian chain rule entirely, so LM step acceptance (which only needs
/// the cost) pays about a third of a full linearization. Bit-identical to
/// `evaluate_visual(..).map(|ev| ev.residual)`.
pub fn evaluate_visual_residual(
    anchor: &Pose,
    obs: &Pose,
    bearing: &Vec3,
    rho: f64,
    uv: [f64; 2],
) -> Option<[f64; 2]> {
    let p_a = *bearing * (1.0 / rho);
    let p_w = anchor.transform(&p_a);
    let p_c = obs.inverse_transform(&p_w);
    let z = p_c.z();
    if z <= 1e-6 {
        return None;
    }
    let inv_z = 1.0 / z;
    Some([p_c.x() * inv_z - uv[0], p_c.y() * inv_z - uv[1]])
}

/// Evaluated IMU factor: 15-dim residual and Jacobians with respect to both
/// keyframe error states.
#[derive(Debug, Clone)]
pub struct ImuEval {
    /// Residual `[r_q, r_p, r_v, r_bg, r_ba]`.
    pub residual: [f64; 15],
    /// ∂r/∂(state i) — 15×15.
    pub j_i: [[f64; 15]; 15],
    /// ∂r/∂(state j) — 15×15.
    pub j_j: [[f64; 15]; 15],
}

/// Evaluates the preintegrated IMU residual between keyframes `si` and `sj`.
///
/// The rotation-block Jacobians use the standard first-order approximation
/// `Jr⁻¹ ≈ I`, accurate near convergence where the residual is small.
pub fn evaluate_imu(si: &KeyframeState, sj: &KeyframeState, pre: &Preintegration) -> ImuEval {
    let dt = pre.dt;
    let (dq_hat, dp_hat, dv_hat) = pre.corrected(&si.bg, &si.ba);

    let r_i_t = si.pose.rot.to_mat().transpose();
    let g = GRAVITY;

    // Position / velocity residuals in keyframe i's body frame.
    let p_term = sj.pose.trans - si.pose.trans - si.velocity * dt - g * (0.5 * dt * dt);
    let v_term = sj.velocity - si.velocity - g * dt;
    let rp_body = r_i_t.mul_vec(&p_term);
    let rp = rp_body - dp_hat;
    let rv_body = r_i_t.mul_vec(&v_term);
    let rv = rv_body - dv_hat;

    // Rotation residual r_q = Log(Δq̂⁻¹ ⊗ q_i⁻¹ ⊗ q_j).
    let q_err = dq_hat
        .inverse()
        .mul(&si.pose.rot.inverse().mul(&sj.pose.rot));
    let rq = q_err.log();

    let rbg = sj.bg - si.bg;
    let rba = sj.ba - si.ba;

    let mut residual = [0.0; 15];
    residual[0..3].copy_from_slice(&rq.0);
    residual[3..6].copy_from_slice(&rp.0);
    residual[6..9].copy_from_slice(&rv.0);
    residual[9..12].copy_from_slice(&rbg.0);
    residual[12..15].copy_from_slice(&rba.0);

    let mut j_i = [[0.0; 15]; 15];
    let mut j_j = [[0.0; 15]; 15];

    // --- rotation rows (0..3) ---
    // With r_q = Log(Δq̂⁻¹ ⊗ q_i⁻¹ ⊗ q_j) and right perturbations:
    //   ∂r_q/∂δθ_i = −Jl⁻¹(r_q)·ΔR̂ᵀ,  ∂r_q/∂δθ_j = Jr⁻¹(r_q),
    //   ∂r_q/∂bg_i = −Jl⁻¹(r_q)·J_q_bg,
    // using the first-order inverse-Jacobian expansions I ± ½[r_q]×.
    let jl_inv = Mat3::IDENTITY - rq.skew().scale(0.5);
    let jr_inv = Mat3::IDENTITY + rq.skew().scale(0.5);
    let dr_hat_t = dq_hat.to_mat().transpose();
    set_block(&mut j_i, 0, THETA, &mat3_scale(&(jl_inv * dr_hat_t), -1.0));
    set_block(&mut j_j, 0, THETA, &jr_inv);
    set_block(&mut j_i, 0, BG, &mat3_scale(&(jl_inv * pre.j_q_bg), -1.0));

    // --- position rows (3..6) ---
    set_block(&mut j_i, 3, THETA, &rp_body.skew());
    set_block(&mut j_i, 3, TRANS, &mat3_scale(&r_i_t, -1.0));
    set_block(&mut j_i, 3, VEL, &mat3_scale(&r_i_t, -dt));
    set_block(&mut j_i, 3, BG, &mat3_scale(&pre.j_p_bg, -1.0));
    set_block(&mut j_i, 3, BA, &mat3_scale(&pre.j_p_ba, -1.0));
    set_block(&mut j_j, 3, TRANS, &r_i_t);

    // --- velocity rows (6..9) ---
    set_block(&mut j_i, 6, THETA, &rv_body.skew());
    set_block(&mut j_i, 6, VEL, &mat3_scale(&r_i_t, -1.0));
    set_block(&mut j_i, 6, BG, &mat3_scale(&pre.j_v_bg, -1.0));
    set_block(&mut j_i, 6, BA, &mat3_scale(&pre.j_v_ba, -1.0));
    set_block(&mut j_j, 6, VEL, &r_i_t);

    // --- bias rows (9..15): simple differences ---
    set_block(&mut j_i, 9, BG, &mat3_scale(&Mat3::IDENTITY, -1.0));
    set_block(&mut j_j, 9, BG, &Mat3::IDENTITY);
    set_block(&mut j_i, 12, BA, &mat3_scale(&Mat3::IDENTITY, -1.0));
    set_block(&mut j_j, 12, BA, &Mat3::IDENTITY);

    ImuEval { residual, j_i, j_j }
}

/// Visual residual weight (≈ fx/σ_px): one-pixel noise at EuRoC-like focal
/// length.
pub const VISUAL_WEIGHT: f64 = 460.0;

// IMU residual weights. They are matched to the synthetic IMU's actual
// noise (information weights ≈ 1/σ of the preintegrated quantities);
// under-weighting the IMU lets the monocular scale random-walk and inverts
// the iteration-vs-accuracy trend of Fig. 12.
const IMU_Q_WEIGHT: f64 = 2000.0;
const IMU_P_WEIGHT: f64 = 1500.0;
const IMU_V_WEIGHT: f64 = 800.0;
const IMU_BIAS_WEIGHT: f64 = 700.0;

/// Per-residual information weights (inverse standard deviations).
///
/// These play the role of the covariance matrices `Cᵢ` in Eq. 2; the paper
/// never evaluates covariance fidelity, so scalar weights per residual block
/// are sufficient and keep the on-chip parameter footprint matching the
/// hardware template. The weights themselves are fixed
/// ([`VISUAL_WEIGHT`], [`FactorWeights::imu_row`]); only the robust kernel
/// is configurable.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FactorWeights {
    /// Huber threshold `δ` for visual residuals, in normalized-plane units
    /// (`None` disables robust weighting — the exact historical quadratic
    /// path, bit for bit). A visual residual `e` with `r = ‖e‖` then costs
    /// the Huber loss, weighted by `wv² = VISUAL_WEIGHT²`:
    ///
    /// `ρ(r) = ½·wv²·r²` for `r ≤ δ`, `ρ(r) = wv²·(δ·r − ½·δ²)` beyond,
    ///
    /// and its Gauss–Newton rows carry the IRLS weight
    /// `w² = ρ'(r)/r = wv²·min(1, δ/r)`, so the assembled gradient is the
    /// gradient of `ρ` and an outlier track's pull is bounded. See
    /// [`FactorWeights::visual_loss`].
    pub huber_delta: Option<f64>,
}

/// The loss of one visual residual `e` and its IRLS weight, from
/// [`FactorWeights::visual_loss`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisualLoss {
    /// The loss as the weight it puts on `½·‖e‖²`: `ρ(‖e‖) = ½·rho_w2·‖e‖²`.
    /// Carried in this form so every cost site sums `½·rho_w2·eᵣ²` with the
    /// quadratic path's own arithmetic, and that path keeps its bits.
    pub rho_w2: f64,
    /// IRLS squared weight `ρ'(‖e‖)/‖e‖` that scales the factor's
    /// Gauss–Newton rows (assembly and marginalization).
    pub w2: f64,
}

impl FactorWeights {
    /// Weight of IMU residual row `r` (0-based within the 15-dim residual):
    /// rotation, position, velocity, then the bias random walk.
    pub fn imu_row(r: usize) -> f64 {
        match r {
            0..=2 => IMU_Q_WEIGHT,
            3..=5 => IMU_P_WEIGHT,
            6..=8 => IMU_V_WEIGHT,
            _ => IMU_BIAS_WEIGHT,
        }
    }

    /// This weight set with Huber robust weighting at threshold `delta`
    /// (normalized-plane units; a few pixels over the focal length is
    /// typical).
    pub fn with_huber(self, delta: f64) -> Self {
        Self {
            huber_delta: Some(delta),
        }
    }

    /// The loss of a visual residual `(e0, e1)` and its IRLS weight, the one
    /// pair every visual factor is scored and scaled by (assembly, the LM
    /// cost evaluation and marginalization), so the cost the LM acceptance
    /// test compares is the cost whose gradient the step descends.
    ///
    /// Inside the Huber threshold (and with Huber off) both weights are
    /// `VISUAL_WEIGHT²`, returned without touching the residual, so the
    /// quadratic path keeps its historical bit pattern. Beyond it, with
    /// `s = δ/‖e‖`, `w2 = wv²·s` and `rho_w2 = wv²·s·(2 − s)`, which puts
    /// `½·rho_w2·‖e‖² = wv²·(δ·‖e‖ − ½·δ²)`.
    pub fn visual_loss(&self, e0: f64, e1: f64) -> VisualLoss {
        let wv2 = VISUAL_WEIGHT * VISUAL_WEIGHT;
        if let Some(delta) = self.huber_delta {
            let rn = (e0 * e0 + e1 * e1).sqrt();
            if rn > delta {
                let s = delta / rn;
                return VisualLoss {
                    rho_w2: wv2 * s * (2.0 - s),
                    w2: wv2 * s,
                };
            }
        }
        VisualLoss {
            rho_w2: wv2,
            w2: wv2,
        }
    }
}

fn set_block(dst: &mut [[f64; 15]; 15], row: usize, col: usize, m: &Mat3) {
    for i in 0..3 {
        for j in 0..3 {
            dst[row + i][col + j] = m.get(i, j);
        }
    }
}

fn mat3_mul(a: &Mat3, b: &Mat3) -> Mat3 {
    *a * *b
}

fn mat3_scale(a: &Mat3, s: f64) -> Mat3 {
    a.scale(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Quat;
    use crate::imu::ImuSample;

    fn test_poses() -> (Pose, Pose) {
        let anchor = Pose::new(
            Quat::exp(&Vec3::new(0.05, -0.02, 0.1)),
            Vec3::new(0.0, 0.0, 0.0),
        );
        let obs = Pose::new(
            Quat::exp(&Vec3::new(-0.03, 0.04, 0.02)),
            Vec3::new(0.8, 0.1, -0.05),
        );
        (anchor, obs)
    }

    #[test]
    fn visual_residual_zero_at_consistent_measurement() {
        let (anchor, obs) = test_poses();
        let bearing = Vec3::new(0.2, -0.1, 1.0);
        let rho = 0.25;
        // Generate the "measurement" by projecting the true landmark.
        let p_w = anchor.transform(&(bearing * (1.0 / rho)));
        let p_c = obs.inverse_transform(&p_w);
        let uv = [p_c.x() / p_c.z(), p_c.y() / p_c.z()];
        let eval = evaluate_visual(&anchor, &obs, &bearing, rho, uv).unwrap();
        assert!(eval.residual[0].abs() < 1e-12);
        assert!(eval.residual[1].abs() < 1e-12);
    }

    /// The residual-only evaluator must match the full one bit for bit,
    /// including the behind-camera `None` gate — LM step acceptance depends
    /// on this equivalence.
    #[test]
    fn visual_residual_only_matches_full_eval_bitwise() {
        let (anchor, obs) = test_poses();
        for l in 0..40 {
            let bearing = Vec3::new(0.05 * l as f64 - 1.0, 0.03 * (l % 7) as f64 - 0.1, 1.0);
            let rho = 0.1 + 0.07 * (l % 9) as f64;
            let uv = [0.02 * l as f64 - 0.4, -0.015 * l as f64 + 0.3];
            let full = evaluate_visual(&anchor, &obs, &bearing, rho, uv);
            let ronly = evaluate_visual_residual(&anchor, &obs, &bearing, rho, uv);
            match (full, ronly) {
                (None, None) => {}
                (Some(ev), Some(r)) => {
                    assert_eq!(ev.residual[0].to_bits(), r[0].to_bits(), "lm {l}");
                    assert_eq!(ev.residual[1].to_bits(), r[1].to_bits(), "lm {l}");
                }
                (f, r) => panic!("gate mismatch at lm {l}: {:?} vs {:?}", f.is_some(), r),
            }
        }
        // And at least one case must actually hit the behind-camera gate.
        let behind = Pose::new(Quat::IDENTITY, Vec3::new(0.0, 0.0, 10.0));
        assert!(evaluate_visual_residual(
            &Pose::IDENTITY,
            &behind,
            &Vec3::new(0.0, 0.0, 1.0),
            0.25,
            [0.0, 0.0]
        )
        .is_none());
    }

    #[test]
    fn visual_rejects_behind_camera() {
        let anchor = Pose::IDENTITY;
        let obs = Pose::new(Quat::IDENTITY, Vec3::new(0.0, 0.0, 10.0)); // ahead of the point
        let eval = evaluate_visual(&anchor, &obs, &Vec3::new(0.0, 0.0, 1.0), 0.25, [0.0, 0.0]);
        assert!(eval.is_none());
    }

    /// Numeric-vs-analytic check of every visual Jacobian block.
    #[test]
    fn visual_jacobians_match_numeric() {
        let (anchor, obs) = test_poses();
        let bearing = Vec3::new(0.15, 0.25, 1.0);
        let rho = 0.3;
        let uv = [0.1, -0.05];
        let eval = evaluate_visual(&anchor, &obs, &bearing, rho, uv).unwrap();
        let eps = 1e-7;

        // Anchor and observer pose blocks.
        for axis in 0..6 {
            let mut dtheta = Vec3::ZERO;
            let mut dp = Vec3::ZERO;
            if axis < 3 {
                dtheta.0[axis] = eps;
            } else {
                dp.0[axis - 3] = eps;
            }
            let anchor_p = anchor.boxplus(&dtheta, &dp);
            let ev = evaluate_visual(&anchor_p, &obs, &bearing, rho, uv).unwrap();
            for r in 0..2 {
                let numeric = (ev.residual[r] - eval.residual[r]) / eps;
                assert!(
                    (numeric - eval.j_anchor[r][axis]).abs() < 1e-5,
                    "anchor axis {axis} row {r}: numeric {numeric} vs analytic {}",
                    eval.j_anchor[r][axis]
                );
            }
            let obs_p = obs.boxplus(&dtheta, &dp);
            let ev = evaluate_visual(&anchor, &obs_p, &bearing, rho, uv).unwrap();
            for r in 0..2 {
                let numeric = (ev.residual[r] - eval.residual[r]) / eps;
                assert!(
                    (numeric - eval.j_obs[r][axis]).abs() < 1e-5,
                    "obs axis {axis} row {r}: numeric {numeric} vs analytic {}",
                    eval.j_obs[r][axis]
                );
            }
        }

        // Inverse-depth block.
        let ev = evaluate_visual(&anchor, &obs, &bearing, rho + eps, uv).unwrap();
        for r in 0..2 {
            let numeric = (ev.residual[r] - eval.residual[r]) / eps;
            assert!((numeric - eval.j_rho[r]).abs() < 1e-5, "rho row {r}");
        }
    }

    fn imu_test_states() -> (KeyframeState, KeyframeState, Preintegration) {
        let samples: Vec<ImuSample> = (0..100)
            .map(|_| ImuSample {
                gyro: Vec3::new(0.1, -0.05, 0.2),
                accel: Vec3::new(0.5, 0.2, 9.9),
                dt: 0.005,
            })
            .collect();
        let pre = Preintegration::integrate(&samples, Vec3::ZERO, Vec3::ZERO);
        let si = KeyframeState {
            pose: Pose::new(
                Quat::exp(&Vec3::new(0.02, 0.01, -0.03)),
                Vec3::new(1.0, 2.0, 3.0),
            ),
            velocity: Vec3::new(0.5, -0.2, 0.1),
            bg: Vec3::new(0.002, -0.001, 0.0015),
            ba: Vec3::new(0.01, 0.02, -0.01),
            timestamp: 0.0,
        };
        // Make sj roughly consistent with the preintegration so residuals are
        // small (the regime where the first-order rotation Jacobians hold).
        let (dq, dp, dv) = pre.corrected(&si.bg, &si.ba);
        let dt = pre.dt;
        let sj = KeyframeState {
            pose: Pose::new(
                si.pose.rot.mul(&dq).normalized(),
                si.pose.trans
                    + si.velocity * dt
                    + GRAVITY * (0.5 * dt * dt)
                    + si.pose.rot.rotate(&dp),
            ),
            velocity: si.velocity + GRAVITY * dt + si.pose.rot.rotate(&dv),
            bg: si.bg,
            ba: si.ba,
            timestamp: dt,
        };
        (si, sj, pre)
    }

    #[test]
    fn imu_residual_zero_at_consistent_states() {
        let (si, sj, pre) = imu_test_states();
        let eval = evaluate_imu(&si, &sj, &pre);
        for (k, r) in eval.residual.iter().enumerate() {
            assert!(r.abs() < 1e-9, "residual[{k}] = {r}");
        }
    }

    /// Numeric-vs-analytic check of the IMU Jacobians at small residual.
    #[test]
    fn imu_jacobians_match_numeric() {
        let (si, sj, pre) = imu_test_states();
        // Perturb sj slightly so the residual is small but nonzero.
        let mut perturb = [0.0; 15];
        perturb[1] = 0.005;
        perturb[4] = -0.01;
        perturb[7] = 0.02;
        let sj = sj.boxplus(&perturb);
        let base = evaluate_imu(&si, &sj, &pre);
        let eps = 1e-6;

        for axis in 0..15 {
            let mut delta = [0.0; 15];
            delta[axis] = eps;

            let si_p = si.boxplus(&delta);
            let ev = evaluate_imu(&si_p, &sj, &pre);
            for r in 0..15 {
                let numeric = (ev.residual[r] - base.residual[r]) / eps;
                assert!(
                    (numeric - base.j_i[r][axis]).abs() < 2e-3,
                    "j_i[{r}][{axis}]: numeric {numeric} vs analytic {}",
                    base.j_i[r][axis]
                );
            }

            let sj_p = sj.boxplus(&delta);
            let ev = evaluate_imu(&si, &sj_p, &pre);
            for r in 0..15 {
                let numeric = (ev.residual[r] - base.residual[r]) / eps;
                assert!(
                    (numeric - base.j_j[r][axis]).abs() < 2e-3,
                    "j_j[{r}][{axis}]: numeric {numeric} vs analytic {}",
                    base.j_j[r][axis]
                );
            }
        }
    }

    #[test]
    fn weights_rows() {
        assert_eq!(FactorWeights::imu_row(0), IMU_Q_WEIGHT);
        assert_eq!(FactorWeights::imu_row(4), IMU_P_WEIGHT);
        assert_eq!(FactorWeights::imu_row(8), IMU_V_WEIGHT);
        assert_eq!(FactorWeights::imu_row(14), IMU_BIAS_WEIGHT);
    }
}
