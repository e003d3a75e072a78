//! Simulated sensing front-end: turns a trajectory and a landmark world into
//! the per-frame measurements the estimator consumes.
//!
//! Every paper result is a function of workload statistics (feature counts,
//! observations per feature, keyframe count) plus estimation error; this
//! front-end reproduces those statistics — including the ≈10:1 ratio of
//! features to keyframes and observations to features the paper profiles
//! (Sec. 4.2) — while providing exact ground truth for the error metrics.

use crate::trajectory::Trajectory;
use crate::world::World;
use archytas_slam::{
    ImuSample, KeyframeState, PinholeCamera, Vec3, ACCEL_BIAS_WALK, ACCEL_NOISE, GRAVITY,
    GYRO_BIAS_WALK, GYRO_NOISE,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One tracked feature in a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedFeature {
    /// World landmark identifier (stable across frames).
    pub id: u64,
    /// Noisy measurement in normalized image coordinates.
    pub uv: [f64; 2],
    /// Noise-free normalized coordinates (ground truth; used by ablations
    /// and to model sub-pixel anchor refinement).
    pub uv_true: [f64; 2],
    /// Ground-truth depth in the camera frame (used to initialize inverse
    /// depth, standing in for the front-end's triangulation).
    pub depth: f64,
}

/// One keyframe-rate frame of sensor data.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame index in the sequence.
    pub index: usize,
    /// Capture time (s).
    pub timestamp: f64,
    /// Ground-truth kinematic state at capture time.
    pub gt: KeyframeState,
    /// Features visible and tracked in this frame.
    pub features: Vec<TrackedFeature>,
    /// IMU samples covering `(previous frame, this frame]` (empty for the
    /// first frame).
    pub imu: Vec<ImuSample>,
}

/// Keyframe rate (Hz).
const KEYFRAME_HZ: f64 = 10.0;

/// IMU sample rate (Hz).
const IMU_HZ: f64 = 200.0;

/// Pixel-noise standard deviation (px).
const PIXEL_NOISE_PX: f64 = 1.0;

/// Initial gyro bias.
const GYRO_BIAS: Vec3 = Vec3([0.003, -0.002, 0.001]);

/// Initial accelerometer bias.
const ACCEL_BIAS: Vec3 = Vec3([0.02, 0.015, -0.01]);

/// Landmarks farther than this are not detected (m).
const MAX_RANGE: f64 = 60.0;

/// Front-end configuration. The sensor model (rates, noise, initial biases,
/// detection range) is fixed; the IMU noise densities are shared with the
/// estimators through `archytas_slam`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontendConfig {
    /// Maximum features tracked per frame.
    pub max_features: usize,
    /// RNG seed for noise and feature selection.
    pub seed: u64,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            max_features: 160,
            seed: 1,
        }
    }
}

/// Generates the full frame stream of a sequence.
pub fn generate_frames(
    trajectory: &dyn Trajectory,
    world: &World,
    camera: &PinholeCamera,
    config: &FrontendConfig,
) -> Vec<Frame> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let kf_dt = 1.0 / KEYFRAME_HZ;
    let imu_dt = 1.0 / IMU_HZ;
    let n_frames = (trajectory.duration() / kf_dt).floor() as usize;
    let noise_n = PIXEL_NOISE_PX / camera.fx; // normalized-plane σ

    let mut frames = Vec::with_capacity(n_frames);
    // Ids kept by the previous frame, sorted for binary search.
    let mut tracked_prev: Vec<u64> = Vec::new();
    // Biases random-walk at IMU rate; the per-frame ground truth snapshots
    // the walk so the estimator's bias states have a moving target.
    let mut bg = GYRO_BIAS;
    let mut ba = ACCEL_BIAS;

    for index in 0..n_frames {
        let t = index as f64 * kf_dt;
        let kin = trajectory.sample(t);

        // --- visual features ---
        // Every visible candidate draws its pixel-noise uniforms in world
        // order; only the kept ones pay for the Box–Muller transform.
        let mut candidates = Vec::new();
        for wp in world.near(&kin.pose.trans, MAX_RANGE) {
            let p_cam = kin.pose.inverse_transform(&wp.position);
            if camera.project(&p_cam).is_none() {
                continue;
            }
            let n =
                PinholeCamera::project_normalized(&p_cam).expect("project() accepted the point");
            let u = [draw_uniforms(&mut rng), draw_uniforms(&mut rng)];
            let tracked = tracked_prev.binary_search(&wp.id).is_ok();
            candidates.push(((!tracked, wp.id), n, p_cam.z(), u));
        }
        // Track continuity: features seen last frame come first, then new
        // detections fill the budget. Ids are unique, so the unstable sort
        // is deterministic.
        candidates.sort_unstable_by_key(|c| c.0);
        candidates.truncate(config.max_features);
        let features: Vec<TrackedFeature> = candidates
            .iter()
            .map(|&((_, id), n, depth, u)| TrackedFeature {
                id,
                uv: [0, 1].map(|k| n[k] + noise_n * box_muller(u[k])),
                uv_true: n,
                depth,
            })
            .collect();
        tracked_prev.clear();
        tracked_prev.extend(features.iter().map(|f| f.id));
        tracked_prev.sort_unstable();

        // --- IMU between the previous frame and this one ---
        let imu = if index == 0 {
            Vec::new()
        } else {
            let t_prev = (index - 1) as f64 * kf_dt;
            let n_samples = (kf_dt / imu_dt).round() as usize;
            (0..n_samples)
                .map(|k| {
                    let ts = t_prev + k as f64 * imu_dt;
                    let s = trajectory.sample(ts);
                    let accel_body = s.pose.rot.inverse().rotate(&(s.acceleration - GRAVITY));
                    bg = bg + noise_vec(&mut rng, GYRO_BIAS_WALK * imu_dt.sqrt());
                    ba = ba + noise_vec(&mut rng, ACCEL_BIAS_WALK * imu_dt.sqrt());
                    ImuSample {
                        gyro: s.angular_velocity + bg + noise_vec(&mut rng, GYRO_NOISE),
                        accel: accel_body + ba + noise_vec(&mut rng, ACCEL_NOISE),
                        dt: imu_dt,
                    }
                })
                .collect()
        };

        let mut gt = KeyframeState::at_pose(kin.pose, t);
        gt.velocity = kin.velocity;
        gt.bg = bg;
        gt.ba = ba;

        frames.push(Frame {
            index,
            timestamp: t,
            gt,
            features,
            imu,
        });
    }
    frames
}

// A tiny Box–Muller normal sampler; keeps the dependency surface to `rand`
// core (no rand_distr). The uniforms are drawn apart from the transform so
// a feature can draw them before it is known to be kept.
fn draw_uniforms(rng: &mut SmallRng) -> [f64; 2] {
    [rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0)]
}

fn box_muller([u1, u2]: [f64; 2]) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn sample_normal(rng: &mut SmallRng) -> f64 {
    box_muller(draw_uniforms(rng))
}

fn noise_vec(rng: &mut SmallRng, sigma: f64) -> Vec3 {
    Vec3::new(
        sigma * sample_normal(rng),
        sigma * sample_normal(rng),
        sigma * sample_normal(rng),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::RoadTrajectory;

    fn small_setup() -> (RoadTrajectory, World, PinholeCamera, FrontendConfig) {
        let traj = RoadTrajectory::kitti_like(10.0);
        let world = World::road_corridor(160.0, 5, |_| 1.0);
        let cam = PinholeCamera::kitti_like();
        let cfg = FrontendConfig::default();
        (traj, world, cam, cfg)
    }

    #[test]
    fn frame_count_matches_rate() {
        let (traj, world, cam, cfg) = small_setup();
        let frames = generate_frames(&traj, &world, &cam, &cfg);
        assert_eq!(frames.len(), 100); // 10 s at 10 Hz
        assert!(frames[0].imu.is_empty());
        assert_eq!(frames[1].imu.len(), 20); // 200 Hz / 10 Hz
    }

    #[test]
    fn features_are_visible_and_bounded() {
        let (traj, world, cam, cfg) = small_setup();
        let frames = generate_frames(&traj, &world, &cam, &cfg);
        for f in &frames {
            assert!(f.features.len() <= cfg.max_features);
            assert!(!f.features.is_empty(), "frame {} has no features", f.index);
            for feat in &f.features {
                assert!(feat.depth > 0.0);
                assert!(feat.uv[0].abs() < 2.0, "normalized coordinate in range");
            }
        }
    }

    #[test]
    fn features_persist_across_frames() {
        let (traj, world, cam, cfg) = small_setup();
        let frames = generate_frames(&traj, &world, &cam, &cfg);
        // Consecutive frames at 10 Hz share most of their features.
        let a: std::collections::HashSet<u64> = frames[10].features.iter().map(|f| f.id).collect();
        let b: std::collections::HashSet<u64> = frames[11].features.iter().map(|f| f.id).collect();
        let shared = a.intersection(&b).count();
        assert!(
            shared * 2 > a.len(),
            "only {shared} of {} features persist",
            a.len()
        );
    }

    #[test]
    fn imu_integrates_close_to_ground_truth() {
        use archytas_slam::Preintegration;
        let (traj, world, cam, cfg) = small_setup();
        let frames = generate_frames(&traj, &world, &cam, &cfg);
        let (f0, f1) = (&frames[5], &frames[6]);
        let pre = Preintegration::integrate(&f1.imu, GYRO_BIAS, ACCEL_BIAS);
        // Predict f1's position from f0's ground truth.
        let dt = pre.dt;
        let predicted = f0.gt.pose.trans
            + f0.gt.velocity * dt
            + GRAVITY * (0.5 * dt * dt)
            + f0.gt.pose.rot.rotate(&pre.delta_p);
        let err = (predicted - f1.gt.pose.trans).norm();
        assert!(err < 0.02, "dead-reckoning error {err} m over one keyframe");
    }

    #[test]
    fn determinism_per_seed() {
        let (traj, world, cam, cfg) = small_setup();
        let f1 = generate_frames(&traj, &world, &cam, &cfg);
        let f2 = generate_frames(&traj, &world, &cam, &cfg);
        assert_eq!(f1[3].features, f2[3].features);
    }
}
