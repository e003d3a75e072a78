//! Sliding-window MAP (maximum-a-posteriori) localization — the algorithm
//! Archytas accelerates (paper Sec. 2–3).
//!
//! The crate implements the full estimator the paper targets: a
//! visual–inertial sliding window optimized with Levenberg–Marquardt, using
//! inverse-depth landmarks (diagonal information block → D-type Schur),
//! IMU preintegration, and marginalization producing the prior `(Hp, rp)`
//! for the following window. It is both the "golden" reference the hardware
//! functional model is checked against and the software implementation the
//! CPU baselines execute.
//!
//! # Example: optimize a two-keyframe window
//!
//! ```
//! use archytas_slam::{
//!     FactorWeights, KeyframeState, Landmark, LmConfig, Observation, Pose, Quat, SlidingWindow,
//!     SolverWorkspace, Vec3, solve_in_workspace,
//! };
//!
//! let mut w = SlidingWindow::new();
//! let kf0 = KeyframeState::at_pose(Pose::IDENTITY, 0.0);
//! let kf1 = KeyframeState::at_pose(
//!     Pose::new(Quat::IDENTITY, Vec3::new(0.5, 0.0, 0.0)), 0.1);
//! w.keyframes = vec![kf0, kf1];
//! // One landmark 4 m ahead, observed from both keyframes.
//! let bearing = Vec3::new(0.1, 0.0, 1.0);
//! let p_w = kf0.pose.transform(&(bearing * 4.0));
//! let p_c1 = kf1.pose.inverse_transform(&p_w);
//! w.landmarks.push(Landmark { id: 0, anchor: 0, bearing, inv_depth: 0.3 });
//! w.observations.push(Observation {
//!     landmark: 0, keyframe: 1,
//!     uv: [p_c1.x() / p_c1.z(), p_c1.y() / p_c1.z()],
//! });
//! // One workspace serves every window: hold it across solves.
//! let mut ws = SolverWorkspace::new();
//! let report =
//!     solve_in_workspace(&mut ws, &mut w, &FactorWeights::default(), None, &LmConfig::default());
//! assert!(report.final_cost < 1e-9);
//! ```

#![warn(missing_docs)]

mod camera;
mod ekf;
mod factors;
mod geometry;
mod imu;
mod marginalization;
mod metrics;
mod prior;
mod problem;
mod solver;
mod window;

pub use camera::PinholeCamera;
pub use ekf::EkfVio;
pub use factors::{
    evaluate_imu, evaluate_visual, evaluate_visual_residual, FactorWeights, ImuEval, VisualEval,
    VisualLoss, BA, BG, THETA, TRANS, VEL, VISUAL_WEIGHT,
};
pub use geometry::{Mat3, Pose, Quat, Vec3};
pub use imu::{
    ImuSample, Preintegration, ACCEL_BIAS_WALK, ACCEL_NOISE, GRAVITY, GYRO_BIAS_WALK, GYRO_NOISE,
};
pub use marginalization::{drop_oldest, try_marginalize_oldest_in};
pub use metrics::{mean_stdev, relative_error, TrajectoryMetrics};
pub use prior::Prior;
pub use problem::{apply_increment, build_block_normal_equations, BlockNormalEqInfo};
pub use solver::{
    schur_linear_solver, solve_in_workspace, solve_with_in_workspace, DegradeReason, LinearSolver,
    LmConfig, Precision, SolveError, SolveOutcome, SolveReport, SolverWorkspace, INITIAL_LAMBDA,
    LAMBDA_UP, MAX_RETRIES,
};
pub use window::{
    ImuConstraint, KeyframeState, Landmark, Observation, SlidingWindow, WindowWorkload, STATE_DIM,
};
