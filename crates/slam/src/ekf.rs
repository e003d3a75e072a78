//! Error-state EKF visual–inertial odometry — the *filtering* class of
//! localization algorithms the paper contrasts MAP against (Sec. 2.1/2.2:
//! "Comparing to the other popular class of SLAM algorithm based on
//! non-linear filtering, MAP is more robust in long-term localization and
//! is more efficient, as quantified by accuracy per unit of computing
//! time").
//!
//! This is a deliberately standard lightweight filter: a 15-dim error state
//! `[δθ, δp, δv, δbg, δba]` propagated through the IMU and updated by
//! reprojection residuals against landmarks fixed at their first-sighting
//! initialization. It exists to back the paper's accuracy-per-compute
//! argument with an executable comparison (`sec2_2` experiment), not to be
//! a state-of-the-art MSCKF.

use crate::factors::{BA, BG, THETA, TRANS, VEL, VISUAL_WEIGHT};
use crate::geometry::{Mat3, Pose, Quat, Vec3};
use crate::imu::{ImuSample, ACCEL_BIAS_WALK, ACCEL_NOISE, GRAVITY, GYRO_BIAS_WALK, GYRO_NOISE};
use crate::window::{KeyframeState, STATE_DIM};
use archytas_math::{DMat, DVec};
use std::collections::HashMap;

/// Visual measurement noise on the normalized plane (1σ): the inverse of the
/// MAP estimator's visual weight, so both estimators trust a pixel equally.
const VISUAL_NOISE: f64 = 1.0 / VISUAL_WEIGHT;

/// Innovation gate in standard deviations.
const GATE_SIGMA: f64 = 5.0;

/// Error-state EKF visual–inertial estimator.
#[derive(Debug, Clone)]
pub struct EkfVio {
    state: KeyframeState,
    /// 15×15 error-state covariance.
    cov: DMat,
    /// Landmark map: world positions fixed at initialization.
    map: HashMap<u64, Vec3>,
    /// Scalar operations performed so far (the accuracy-per-compute
    /// denominator).
    ops: u64,
    updates_applied: usize,
    updates_gated: usize,
}

impl EkfVio {
    /// Creates a filter at the given initial state with a small initial
    /// uncertainty.
    pub fn new(initial: KeyframeState) -> Self {
        let mut cov = DMat::zeros(STATE_DIM, STATE_DIM);
        for i in 0..STATE_DIM {
            let sigma = match i {
                i if i < 3 => 1e-4, // attitude
                i if i < 6 => 1e-4, // position
                i if i < 9 => 1e-2, // velocity
                _ => 1e-3,          // biases
            };
            cov.set(i, i, sigma);
        }
        Self {
            state: initial,
            cov,
            map: HashMap::new(),
            ops: 0,
            updates_applied: 0,
            updates_gated: 0,
        }
    }

    /// Current state estimate.
    pub fn state(&self) -> &KeyframeState {
        &self.state
    }

    /// Current pose estimate.
    pub fn pose(&self) -> Pose {
        self.state.pose
    }

    /// Scalar operations performed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// `(applied, gated)` visual update counters.
    pub fn update_stats(&self) -> (usize, usize) {
        (self.updates_applied, self.updates_gated)
    }

    /// Number of mapped landmarks.
    pub fn map_len(&self) -> usize {
        self.map.len()
    }

    /// Propagates nominal state and covariance through a batch of IMU
    /// samples.
    pub fn propagate(&mut self, samples: &[ImuSample]) {
        for s in samples {
            self.propagate_one(s);
        }
    }

    fn propagate_one(&mut self, s: &ImuSample) {
        let dt = s.dt;
        let w = s.gyro - self.state.bg;
        let a = s.accel - self.state.ba;
        let r = self.state.pose.rot.to_mat();
        let a_world = r.mul_vec(&a) + GRAVITY;

        // --- nominal integration ---
        let new_rot = self.state.pose.rot.mul(&Quat::exp(&(w * dt))).normalized();
        self.state.pose.trans =
            self.state.pose.trans + self.state.velocity * dt + a_world * (0.5 * dt * dt);
        self.state.velocity = self.state.velocity + a_world * dt;
        self.state.pose.rot = new_rot;
        self.state.timestamp += dt;

        // --- covariance: P ← F·P·Fᵀ + Q with F = I + A·dt ---
        let mut f = DMat::identity(STATE_DIM);
        let neg_wx = w.skew().scale(-dt);
        add_block(&mut f, THETA, THETA, &neg_wx);
        add_identity_block(&mut f, THETA, BG, -dt);
        add_identity_block(&mut f, TRANS, VEL, dt);
        let neg_rax = (r * a.skew()).scale(-dt);
        add_block(&mut f, VEL, THETA, &neg_rax);
        add_block(&mut f, VEL, BA, &r.scale(-dt));

        let fp = f.try_mul(&self.cov).expect("15x15");
        self.cov = fp.try_mul(&f.transpose()).expect("15x15");
        for i in 0..3 {
            self.cov
                .add_at(THETA + i, THETA + i, (GYRO_NOISE * GYRO_NOISE) * dt);
            self.cov
                .add_at(VEL + i, VEL + i, (ACCEL_NOISE * ACCEL_NOISE) * dt);
            self.cov
                .add_at(BG + i, BG + i, (GYRO_BIAS_WALK * GYRO_BIAS_WALK) * dt);
            self.cov
                .add_at(BA + i, BA + i, (ACCEL_BIAS_WALK * ACCEL_BIAS_WALK) * dt);
        }
        // 2 × (15³) products + additions.
        self.ops += 2 * 15 * 15 * 15 + 15 * 15;
    }

    /// One visual observation: `id` with normalized coordinates `uv`.
    /// Unknown landmarks are initialized from `depth_hint` (and not used
    /// for an update); known ones produce an EKF update.
    pub fn visual_update(&mut self, id: u64, uv: [f64; 2], depth_hint: Option<f64>) {
        let Some(&p_w) = self.map.get(&id) else {
            if let Some(depth) = depth_hint {
                let bearing = Vec3::new(uv[0], uv[1], 1.0);
                let p_cam = bearing * depth;
                self.map.insert(id, self.state.pose.transform(&p_cam));
                self.ops += 30;
            }
            return;
        };

        // Predicted measurement.
        let p_c = self.state.pose.inverse_transform(&p_w);
        if p_c.z() <= 0.1 {
            return;
        }
        let inv_z = 1.0 / p_c.z();
        let predicted = [p_c.x() * inv_z, p_c.y() * inv_z];
        let innovation = [uv[0] - predicted[0], uv[1] - predicted[1]];

        // Measurement Jacobian H (2×15): only attitude and position blocks.
        let j_proj = [
            [inv_z, 0.0, -p_c.x() * inv_z * inv_z],
            [0.0, inv_z, -p_c.y() * inv_z * inv_z],
        ];
        let d_theta = p_c.skew(); // ∂p_c/∂δθ (right perturbation)
        let d_p = self.state.pose.rot.to_mat().transpose().scale(-1.0); // ∂p_c/∂δp
        let mut h = DMat::zeros(2, STATE_DIM);
        #[allow(clippy::needless_range_loop)] // parallel-indexed 2x3x3 contraction
        for row in 0..2 {
            for col in 0..3 {
                let mut acc_t = 0.0;
                let mut acc_p = 0.0;
                for k in 0..3 {
                    acc_t += j_proj[row][k] * d_theta.get(k, col);
                    acc_p += j_proj[row][k] * d_p.get(k, col);
                }
                h.set(row, THETA + col, acc_t);
                h.set(row, TRANS + col, acc_p);
            }
        }

        // Innovation covariance S = H·P·Hᵀ + R (2×2), gate, gain, update.
        let ph_t = self.cov.try_mul(&h.transpose()).expect("15x2");
        let mut s_mat = h.try_mul(&ph_t).expect("2x2");
        let r_meas = VISUAL_NOISE * VISUAL_NOISE;
        s_mat.add_at(0, 0, r_meas);
        s_mat.add_at(1, 1, r_meas);

        let det = s_mat.get(0, 0) * s_mat.get(1, 1) - s_mat.get(0, 1) * s_mat.get(1, 0);
        if det <= 0.0 {
            return;
        }
        let s_inv = DMat::from_rows(&[
            &[s_mat.get(1, 1) / det, -s_mat.get(0, 1) / det],
            &[-s_mat.get(1, 0) / det, s_mat.get(0, 0) / det],
        ]);

        // χ² gate.
        let iv = DVec::from(vec![innovation[0], innovation[1]]);
        let mahal = iv.dot(&s_inv.mat_vec(&iv));
        let gate = GATE_SIGMA * GATE_SIGMA;
        if mahal > gate * 2.0 {
            self.updates_gated += 1;
            return;
        }

        let k_gain = ph_t.try_mul(&s_inv).expect("15x2");
        let delta = k_gain.mat_vec(&iv);

        // Inject and reset.
        let mut tangent = [0.0; STATE_DIM];
        for (i, t) in tangent.iter_mut().enumerate() {
            *t = delta[i];
        }
        self.state = self.state.boxplus(&tangent);

        // P ← (I − K·H)·P.
        let kh = k_gain.try_mul(&h).expect("15x15");
        let ikh = &DMat::identity(STATE_DIM) - &kh;
        self.cov = ikh.try_mul(&self.cov).expect("15x15");
        // Symmetrize against round-off.
        self.cov = (&self.cov + &self.cov.transpose()).scale(0.5);

        self.updates_applied += 1;
        // H·P·Hᵀ (2·15²·2) + K (15·2·2) + K·H·P (15²·2 + 15³)…
        self.ops += (2 * 15 * 15 * 2 + 15 * 2 * 2 + 15 * 15 * 2 + 15 * 15 * 15 + 60) as u64;
    }

    /// Position 1σ bound from the covariance trace (diagnostic).
    pub fn position_sigma(&self) -> f64 {
        ((self.cov.get(TRANS, TRANS)
            + self.cov.get(TRANS + 1, TRANS + 1)
            + self.cov.get(TRANS + 2, TRANS + 2))
            / 3.0)
            .max(0.0)
            .sqrt()
    }
}

fn add_block(m: &mut DMat, row: usize, col: usize, b: &Mat3) {
    for i in 0..3 {
        for j in 0..3 {
            m.add_at(row + i, col + j, b.get(i, j));
        }
    }
}

fn add_identity_block(m: &mut DMat, row: usize, col: usize, v: f64) {
    for i in 0..3 {
        m.add_at(row + i, col + i, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stationary_samples(n: usize) -> Vec<ImuSample> {
        (0..n)
            .map(|_| ImuSample {
                gyro: Vec3::ZERO,
                accel: -GRAVITY,
                dt: 0.005,
            })
            .collect()
    }

    #[test]
    fn stationary_propagation_stays_put() {
        let mut ekf = EkfVio::new(KeyframeState::at_pose(Pose::IDENTITY, 0.0));
        ekf.propagate(&stationary_samples(200));
        assert!(ekf.pose().trans.norm() < 1e-9);
        assert!(ekf.pose().rot.angle_to(&Quat::IDENTITY) < 1e-12);
        // Uncertainty grows without updates.
        assert!(ekf.position_sigma() > 1e-4);
    }

    #[test]
    fn covariance_grows_during_dead_reckoning() {
        let mut ekf = EkfVio::new(KeyframeState::at_pose(Pose::IDENTITY, 0.0));
        let s0 = ekf.position_sigma();
        ekf.propagate(&stationary_samples(100));
        let s1 = ekf.position_sigma();
        ekf.propagate(&stationary_samples(100));
        let s2 = ekf.position_sigma();
        assert!(s1 > s0 && s2 > s1);
    }

    #[test]
    fn visual_updates_shrink_uncertainty() {
        let mut ekf = EkfVio::new(KeyframeState::at_pose(Pose::IDENTITY, 0.0));
        // Initialize a grid of landmarks straight ahead.
        for (i, (x, y)) in [(0.2, 0.1), (-0.3, 0.05), (0.0, -0.2), (0.4, 0.3)]
            .iter()
            .enumerate()
        {
            ekf.visual_update(i as u64, [*x, *y], Some(5.0));
        }
        assert_eq!(ekf.map_len(), 4);
        ekf.propagate(&stationary_samples(200));
        let before = ekf.position_sigma();
        // Re-observe the same landmarks from the same (true) pose.
        for (i, (x, y)) in [(0.2, 0.1), (-0.3, 0.05), (0.0, -0.2), (0.4, 0.3)]
            .iter()
            .enumerate()
        {
            ekf.visual_update(i as u64, [*x, *y], None);
        }
        let after = ekf.position_sigma();
        assert!(after < before, "sigma {before} -> {after}");
        assert_eq!(ekf.update_stats().0, 4);
    }

    #[test]
    fn updates_correct_a_perturbed_state() {
        let truth = KeyframeState::at_pose(Pose::IDENTITY, 0.0);
        let mut ekf = EkfVio::new(truth);
        // Map ten landmarks from the truth pose.
        let landmarks: Vec<(u64, [f64; 2], f64)> = (0..10)
            .map(|i| {
                let uv = [
                    (i as f64 / 10.0 - 0.5) * 0.6,
                    ((i * 3 % 10) as f64 / 10.0 - 0.5) * 0.4,
                ];
                (i as u64, uv, 4.0 + (i % 4) as f64)
            })
            .collect();
        for (id, uv, d) in &landmarks {
            ekf.visual_update(*id, *uv, Some(*d));
        }
        // Perturb the filter state and inflate covariance accordingly.
        let mut delta = [0.0; STATE_DIM];
        delta[3] = 0.2;
        delta[4] = -0.15;
        ekf.state = ekf.state.boxplus(&delta);
        for i in 3..6 {
            ekf.cov.set(i, i, 0.1);
        }
        let before = ekf.pose().translation_distance(&truth.pose);
        // Re-observe the landmarks at their true bearings (a few passes).
        for _ in 0..3 {
            for (id, uv, _) in &landmarks {
                ekf.visual_update(*id, *uv, None);
            }
        }
        let after = ekf.pose().translation_distance(&truth.pose);
        assert!(after < before * 0.2, "error {before} -> {after}");
    }

    #[test]
    fn gating_rejects_outliers() {
        let mut ekf = EkfVio::new(KeyframeState::at_pose(Pose::IDENTITY, 0.0));
        ekf.visual_update(7, [0.1, 0.1], Some(5.0));
        let pose_before = ekf.pose();
        // A wildly inconsistent re-observation must be gated out.
        ekf.visual_update(7, [5.0, -5.0], None);
        assert_eq!(ekf.update_stats(), (0, 1));
        assert!(ekf.pose().translation_distance(&pose_before) < 1e-12);
    }

    #[test]
    fn ops_counter_accumulates() {
        let mut ekf = EkfVio::new(KeyframeState::at_pose(Pose::IDENTITY, 0.0));
        let o0 = ekf.ops();
        ekf.propagate(&stationary_samples(10));
        let o1 = ekf.ops();
        assert!(o1 > o0);
        ekf.visual_update(1, [0.0, 0.0], Some(3.0));
        ekf.visual_update(1, [0.0, 0.0], None);
        assert!(ekf.ops() > o1);
    }
}
