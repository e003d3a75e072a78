//! IMU measurements and preintegration between consecutive keyframes.
//!
//! The MAP formulation fuses camera and IMU (paper Sec. 2.2). Raw IMU samples
//! arriving between two keyframes are *preintegrated* into a single relative
//! motion constraint `(Δq, Δp, Δv)` plus first-order bias-correction
//! Jacobians, so the sliding-window problem only carries one IMU factor per
//! keyframe pair regardless of the IMU rate.

use crate::geometry::{Mat3, Quat, Vec3};

/// Standard gravity in the world frame (z-up).
pub const GRAVITY: Vec3 = Vec3([0.0, 0.0, -9.81]);

/// Gyro white-noise density of the modelled IMU (rad/s, 1σ): the noise the
/// frame generator injects and the EKF's process model assumes.
pub const GYRO_NOISE: f64 = 0.002;

/// Accelerometer white-noise density of the modelled IMU (m/s², 1σ).
pub const ACCEL_NOISE: f64 = 0.02;

/// Gyro bias random-walk density (rad/s per √s) — the drift that makes
/// visual correction indispensable.
pub const GYRO_BIAS_WALK: f64 = 4e-4;

/// Accelerometer bias random-walk density (m/s² per √s).
pub const ACCEL_BIAS_WALK: f64 = 4e-3;

/// One IMU sample: body-frame angular velocity and specific force over `dt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuSample {
    /// Gyroscope reading (rad/s).
    pub gyro: Vec3,
    /// Accelerometer reading (m/s², includes gravity reaction).
    pub accel: Vec3,
    /// Integration interval to the next sample (s).
    pub dt: f64,
}

/// Preintegrated IMU motion between two keyframes, linearized at the gyro and
/// accelerometer biases `(bg0, ba0)`.
#[derive(Debug, Clone)]
pub struct Preintegration {
    /// Relative rotation accumulated over the interval.
    pub delta_q: Quat,
    /// Relative position (body frame of the first keyframe).
    pub delta_p: Vec3,
    /// Relative velocity (body frame of the first keyframe).
    pub delta_v: Vec3,
    /// Total integration time (s).
    pub dt: f64,
    /// Gyro bias at linearization.
    pub bg0: Vec3,
    /// Accel bias at linearization.
    pub ba0: Vec3,
    /// ∂Δq/∂bg (rotation-vector sense).
    pub j_q_bg: Mat3,
    /// ∂Δp/∂bg.
    pub j_p_bg: Mat3,
    /// ∂Δp/∂ba.
    pub j_p_ba: Mat3,
    /// ∂Δv/∂bg.
    pub j_v_bg: Mat3,
    /// ∂Δv/∂ba.
    pub j_v_ba: Mat3,
    /// Number of integrated samples.
    pub samples: usize,
}

impl Preintegration {
    /// Integrates a sequence of IMU samples at the given bias linearization
    /// point.
    pub fn integrate(samples: &[ImuSample], bg0: Vec3, ba0: Vec3) -> Self {
        let mut pre = Self {
            delta_q: Quat::IDENTITY,
            delta_p: Vec3::ZERO,
            delta_v: Vec3::ZERO,
            dt: 0.0,
            bg0,
            ba0,
            j_q_bg: Mat3::ZERO,
            j_p_bg: Mat3::ZERO,
            j_p_ba: Mat3::ZERO,
            j_v_bg: Mat3::ZERO,
            j_v_ba: Mat3::ZERO,
            samples: samples.len(),
        };
        for s in samples {
            pre.step(s);
        }
        pre
    }

    /// Single Euler integration step with first-order bias Jacobian
    /// propagation (Forster-style, with the right Jacobian approximated by
    /// identity — adequate at keyframe-scale intervals).
    fn step(&mut self, s: &ImuSample) {
        let dt = s.dt;
        let w = s.gyro - self.bg0;
        let a = s.accel - self.ba0;
        let r_k = self.delta_q.to_mat();
        let ra = r_k.mul_vec(&a);

        // Bias Jacobians first (they use the state before this step).
        // d(Δp)/db += d(Δv)/db·dt  (position integrates velocity)
        self.j_p_bg = self.j_p_bg + self.j_v_bg.scale(dt);
        self.j_p_ba = self.j_p_ba + self.j_v_ba.scale(dt);
        // d(Δv)/dbg -= ΔR·[a]×·J_q_bg·dt ;  d(Δv)/dba -= ΔR·dt
        let ra_skew = r_k * a.skew();
        self.j_v_bg = self.j_v_bg - (ra_skew * self.j_q_bg).scale(dt);
        self.j_v_ba = self.j_v_ba - r_k.scale(dt);
        // d(Δq)/dbg ← Exp(w·dt)ᵀ·J_q_bg − I·dt
        let dq_step = Quat::exp(&(w * dt));
        self.j_q_bg = dq_step.to_mat().transpose() * self.j_q_bg - Mat3::IDENTITY.scale(dt);

        // State integration.
        self.delta_p = self.delta_p + self.delta_v * dt + ra * (0.5 * dt * dt);
        self.delta_v = self.delta_v + ra * dt;
        self.delta_q = self.delta_q.mul(&dq_step).normalized();
        self.dt += dt;
    }

    /// Bias-corrected preintegrated quantities at biases `(bg, ba)` using the
    /// first-order expansion around `(bg0, ba0)`.
    pub fn corrected(&self, bg: &Vec3, ba: &Vec3) -> (Quat, Vec3, Vec3) {
        let dbg = *bg - self.bg0;
        let dba = *ba - self.ba0;
        let dq = self
            .delta_q
            .mul(&Quat::exp(&self.j_q_bg.mul_vec(&dbg)))
            .normalized();
        let dp = self.delta_p + self.j_p_bg.mul_vec(&dbg) + self.j_p_ba.mul_vec(&dba);
        let dv = self.delta_v + self.j_v_bg.mul_vec(&dbg) + self.j_v_ba.mul_vec(&dba);
        (dq, dp, dv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_motion(n: usize, gyro: Vec3, accel: Vec3, dt: f64) -> Vec<ImuSample> {
        (0..n).map(|_| ImuSample { gyro, accel, dt }).collect()
    }

    #[test]
    fn stationary_integration_is_identity() {
        // A body at rest measures the gravity reaction −g and no rotation.
        let samples = constant_motion(100, Vec3::ZERO, -GRAVITY, 0.005);
        let pre = Preintegration::integrate(&samples, Vec3::ZERO, Vec3::ZERO);
        assert!((pre.dt - 0.5).abs() < 1e-12);
        assert!(pre.delta_q.angle_to(&Quat::IDENTITY) < 1e-12);
        // Δv = ∫a dt = −g·t in the body frame (gravity is subtracted in the
        // residual, not in the preintegration).
        assert!((pre.delta_v - (-GRAVITY) * 0.5).norm() < 1e-9);
    }

    #[test]
    fn pure_rotation_accumulates_angle() {
        let rate = Vec3::new(0.0, 0.0, 1.0); // 1 rad/s yaw
        let samples = constant_motion(1000, rate, Vec3::ZERO, 0.001);
        let pre = Preintegration::integrate(&samples, Vec3::ZERO, Vec3::ZERO);
        let angle = pre.delta_q.log();
        assert!((angle - Vec3::new(0.0, 0.0, 1.0)).norm() < 1e-6);
    }

    #[test]
    fn constant_acceleration_kinematics() {
        // No rotation, constant body acceleration a: Δp = ½at², Δv = at.
        let a = Vec3::new(2.0, 0.0, 0.0);
        let samples = constant_motion(1000, Vec3::ZERO, a, 0.001);
        let pre = Preintegration::integrate(&samples, Vec3::ZERO, Vec3::ZERO);
        assert!((pre.delta_v - a * 1.0).norm() < 1e-9);
        assert!((pre.delta_p - a * 0.5).norm() < 2e-3); // Euler discretization error
    }

    #[test]
    fn gyro_bias_is_subtracted() {
        let bias = Vec3::new(0.0, 0.0, 0.3);
        let samples = constant_motion(100, bias, Vec3::ZERO, 0.01);
        let pre = Preintegration::integrate(&samples, bias, Vec3::ZERO);
        assert!(pre.delta_q.angle_to(&Quat::IDENTITY) < 1e-12);
    }

    #[test]
    fn bias_correction_first_order_accuracy() {
        // Integrating with bias b then correcting to bias b+δ should match a
        // re-integration at bias b+δ to first order in δ.
        let gyro = Vec3::new(0.2, -0.1, 0.3);
        let accel = Vec3::new(1.0, 0.5, -9.0);
        let samples = constant_motion(200, gyro, accel, 0.005);
        let pre = Preintegration::integrate(&samples, Vec3::ZERO, Vec3::ZERO);

        let dbg = Vec3::new(0.01, -0.005, 0.008);
        let dba = Vec3::new(0.02, 0.01, -0.015);
        let (cq, cp, cv) = pre.corrected(&dbg, &dba);
        let re = Preintegration::integrate(&samples, dbg, dba);

        assert!(cq.angle_to(&re.delta_q) < 5e-4, "rotation correction");
        assert!((cp - re.delta_p).norm() < 5e-3, "position correction");
        assert!((cv - re.delta_v).norm() < 5e-3, "velocity correction");
    }

    #[test]
    fn corrected_at_linearization_point_is_exact() {
        let samples = constant_motion(50, Vec3::new(0.1, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), 0.01);
        let pre = Preintegration::integrate(&samples, Vec3::ZERO, Vec3::ZERO);
        let (cq, cp, cv) = pre.corrected(&Vec3::ZERO, &Vec3::ZERO);
        assert!(cq.angle_to(&pre.delta_q) < 1e-12);
        assert!((cp - pre.delta_p).norm() < 1e-12);
        assert!((cv - pre.delta_v).norm() < 1e-12);
    }
}
