//! Sliding-window state: keyframes, inverse-depth landmarks, observations
//! and IMU constraints.
//!
//! Landmarks are parameterized by *inverse depth along the bearing of their
//! anchor keyframe*, the VINS-style choice that makes the landmark block of
//! the information matrix exactly diagonal — the structural property the
//! paper's D-type Schur complement relies on (Sec. 3.2.2: "the optimal
//! solution almost always blocks A in such a way that U is a diagonal
//! matrix").

use crate::geometry::{Pose, Vec3};
use crate::imu::Preintegration;

/// Error-state dimension of one keyframe: `[δθ, δp, δv, δbg, δba]`.
///
/// This is the paper's `k = 15` ("the number of states in one IMU
/// observation", Sec. 3.3).
pub const STATE_DIM: usize = 15;

/// Full state of one keyframe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyframeState {
    /// Body pose in the world frame (camera frame coincides with body).
    pub pose: Pose,
    /// World-frame velocity.
    pub velocity: Vec3,
    /// Gyroscope bias.
    pub bg: Vec3,
    /// Accelerometer bias.
    pub ba: Vec3,
    /// Capture timestamp (s).
    pub timestamp: f64,
}

impl KeyframeState {
    /// A keyframe at rest at the given pose.
    pub fn at_pose(pose: Pose, timestamp: f64) -> Self {
        Self {
            pose,
            velocity: Vec3::ZERO,
            bg: Vec3::ZERO,
            ba: Vec3::ZERO,
            timestamp,
        }
    }

    /// Retraction by a 15-dim tangent slice `[δθ, δp, δv, δbg, δba]`.
    ///
    /// # Panics
    ///
    /// Panics when `delta.len() < 15`.
    pub fn boxplus(&self, delta: &[f64]) -> Self {
        assert!(delta.len() >= STATE_DIM, "boxplus: tangent too short");
        let dtheta = Vec3::new(delta[0], delta[1], delta[2]);
        let dp = Vec3::new(delta[3], delta[4], delta[5]);
        let dv = Vec3::new(delta[6], delta[7], delta[8]);
        let dbg = Vec3::new(delta[9], delta[10], delta[11]);
        let dba = Vec3::new(delta[12], delta[13], delta[14]);
        Self {
            pose: self.pose.boxplus(&dtheta, &dp),
            velocity: self.velocity + dv,
            bg: self.bg + dbg,
            ba: self.ba + dba,
            timestamp: self.timestamp,
        }
    }

    /// Tangent `self ⊟ other`, the inverse of [`KeyframeState::boxplus`]
    /// (to first order).
    pub fn boxminus(&self, other: &Self) -> [f64; STATE_DIM] {
        let dtheta = other.pose.rot.inverse().mul(&self.pose.rot).log();
        let dp = self.pose.trans - other.pose.trans;
        let dv = self.velocity - other.velocity;
        let dbg = self.bg - other.bg;
        let dba = self.ba - other.ba;
        let mut out = [0.0; STATE_DIM];
        out[0..3].copy_from_slice(&dtheta.0);
        out[3..6].copy_from_slice(&dp.0);
        out[6..9].copy_from_slice(&dv.0);
        out[9..12].copy_from_slice(&dbg.0);
        out[12..15].copy_from_slice(&dba.0);
        out
    }
}

/// An inverse-depth landmark anchored at one keyframe of the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Landmark {
    /// Stable identifier across windows.
    pub id: u64,
    /// Index of the anchor keyframe within the window.
    pub anchor: usize,
    /// Bearing `[x, y, 1]` of the landmark in the anchor camera frame
    /// (normalized image coordinates of the anchor observation).
    pub bearing: Vec3,
    /// Inverse of the depth along `bearing`.
    pub inv_depth: f64,
}

/// One visual observation: a landmark seen from a (non-anchor) keyframe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Index into the window's landmark list.
    pub landmark: usize,
    /// Index of the observing keyframe.
    pub keyframe: usize,
    /// Normalized image coordinates of the measurement.
    pub uv: [f64; 2],
}

/// An IMU constraint between keyframes `first` and `first + 1`.
#[derive(Debug, Clone)]
pub struct ImuConstraint {
    /// Index of the earlier keyframe.
    pub first: usize,
    /// Preintegrated motion between the two keyframes.
    pub preintegration: Preintegration,
}

/// Per-window workload statistics — the inputs of the hardware latency
/// model (paper Eq. 13–15) and of the run-time iteration policy (Sec. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowWorkload {
    /// Number of feature points in the window (`a`).
    pub features: usize,
    /// Total visual observations across the window.
    pub observations: usize,
    /// Number of keyframes (`b`).
    pub keyframes: usize,
    /// Features leaving the window at the next marginalization (`am`).
    pub marginalized_features: usize,
}

impl WindowWorkload {
    /// Average observations per feature (`No` in Eq. 6); 0 for an empty
    /// window.
    pub fn avg_observations_per_feature(&self) -> f64 {
        if self.features == 0 {
            0.0
        } else {
            self.observations as f64 / self.features as f64
        }
    }
}

/// The sliding window the MAP estimator optimizes over.
#[derive(Debug, Default)]
pub struct SlidingWindow {
    /// Keyframe states, oldest first.
    pub keyframes: Vec<KeyframeState>,
    /// Landmarks currently tracked in the window.
    pub landmarks: Vec<Landmark>,
    /// Visual observations (anchor observations are implicit in the bearing).
    pub observations: Vec<Observation>,
    /// IMU constraints between consecutive keyframes.
    pub imu: Vec<ImuConstraint>,
}

impl Clone for SlidingWindow {
    fn clone(&self) -> Self {
        Self {
            keyframes: self.keyframes.clone(),
            landmarks: self.landmarks.clone(),
            observations: self.observations.clone(),
            imu: self.imu.clone(),
        }
    }

    /// Copies `source` into `self`, reusing each field's allocation — the
    /// derived impl would reallocate every vector, which matters for the LM
    /// loop's candidate window (one clone per damping retry).
    fn clone_from(&mut self, source: &Self) {
        self.keyframes.clone_from(&source.keyframes);
        self.landmarks.clone_from(&source.landmarks);
        self.observations.clone_from(&source.observations);
        self.imu.clone_from(&source.imu);
    }
}

impl SlidingWindow {
    /// Creates an empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keyframes (`b` in the paper's notation).
    pub fn num_keyframes(&self) -> usize {
        self.keyframes.len()
    }

    /// Number of landmarks (`a`, the feature-point count).
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// Number of visual observations.
    pub fn num_observations(&self) -> usize {
        self.observations.len()
    }

    /// Average observations per feature (`No` in the paper's Eq. 6).
    pub fn avg_observations_per_feature(&self) -> f64 {
        if self.landmarks.is_empty() {
            0.0
        } else {
            self.observations.len() as f64 / self.landmarks.len() as f64
        }
    }

    /// Error-state dimension of the whole window: `a + 15·b` (landmarks
    /// first — the ordering that produces a diagonal leading block).
    pub fn state_dim(&self) -> usize {
        self.num_landmarks() + STATE_DIM * self.num_keyframes()
    }

    /// Column offset of keyframe `i`'s error state in the global ordering.
    pub fn kf_offset(&self, i: usize) -> usize {
        self.num_landmarks() + STATE_DIM * i
    }

    /// Snapshot of the quantities the hardware latency model consumes
    /// (paper Eq. 13–15): `a` features, `No` observations per feature, `b`
    /// keyframes and `am` features about to be marginalized.
    pub fn workload(&self, marginalized_features: usize) -> WindowWorkload {
        WindowWorkload {
            features: self.num_landmarks(),
            observations: self.num_observations(),
            keyframes: self.num_keyframes(),
            marginalized_features,
        }
    }

    /// Validates internal index consistency; useful before optimization.
    pub fn validate(&self) -> bool {
        let b = self.keyframes.len();
        let a = self.landmarks.len();
        self.landmarks
            .iter()
            .all(|l| l.anchor < b && l.inv_depth > 0.0)
            && self
                .observations
                .iter()
                .all(|o| o.landmark < a && o.keyframe < b)
            && self.imu.iter().all(|c| c.first + 1 < b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Quat;

    fn kf(x: f64) -> KeyframeState {
        KeyframeState::at_pose(Pose::new(Quat::IDENTITY, Vec3::new(x, 0.0, 0.0)), x)
    }

    #[test]
    fn boxplus_boxminus_roundtrip() {
        let a = kf(1.0);
        let delta = [
            0.01, -0.02, 0.03, 0.5, -0.5, 0.2, 0.1, 0.0, -0.1, 0.001, 0.002, -0.001, 0.01, -0.01,
            0.0,
        ];
        let b = a.boxplus(&delta);
        let back = b.boxminus(&a);
        for i in 0..STATE_DIM {
            assert!(
                (back[i] - delta[i]).abs() < 1e-9,
                "slot {i}: {} vs {}",
                back[i],
                delta[i]
            );
        }
    }

    #[test]
    fn window_counts_and_offsets() {
        let mut w = SlidingWindow::new();
        w.keyframes = vec![kf(0.0), kf(1.0), kf(2.0)];
        w.landmarks = vec![
            Landmark {
                id: 0,
                anchor: 0,
                bearing: Vec3::new(0.0, 0.0, 1.0),
                inv_depth: 0.5,
            },
            Landmark {
                id: 1,
                anchor: 1,
                bearing: Vec3::new(0.1, 0.0, 1.0),
                inv_depth: 0.2,
            },
        ];
        w.observations = vec![
            Observation {
                landmark: 0,
                keyframe: 1,
                uv: [0.0, 0.0],
            },
            Observation {
                landmark: 0,
                keyframe: 2,
                uv: [0.0, 0.0],
            },
            Observation {
                landmark: 1,
                keyframe: 2,
                uv: [0.0, 0.0],
            },
        ];
        assert_eq!(w.num_keyframes(), 3);
        assert_eq!(w.num_landmarks(), 2);
        assert_eq!(w.state_dim(), 2 + 45);
        assert_eq!(w.kf_offset(1), 2 + 15);
        assert!((w.avg_observations_per_feature() - 1.5).abs() < 1e-12);
        assert!(w.validate());
    }

    #[test]
    fn validate_catches_bad_indices() {
        let mut w = SlidingWindow::new();
        w.keyframes = vec![kf(0.0)];
        w.observations = vec![Observation {
            landmark: 5,
            keyframe: 0,
            uv: [0.0, 0.0],
        }];
        assert!(!w.validate());
    }
}
