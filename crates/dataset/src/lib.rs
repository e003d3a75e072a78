//! Synthetic KITTI-like and EuRoC-like localization workloads.
//!
//! The Archytas paper evaluates on the KITTI odometry and EuRoC MAV
//! datasets; neither's raw sensor logs are available here, so this crate
//! generates *statistically faithful* substitutes: analytic ground-truth
//! trajectories, seeded landmark worlds with texture droughts, a simulated
//! tracking front-end with realistic noise, and exactly consistent IMU data.
//! Every number the paper reports is a function of workload statistics plus
//! estimation error — both of which these generators reproduce (see
//! DESIGN.md, "Substitutions").
//!
//! # Example: run three windows of a KITTI-like drive
//!
//! ```
//! use archytas_dataset::{kitti_sequences, PipelineConfig, VioPipeline};
//! use archytas_slam::SolverWorkspace;
//!
//! let data = kitti_sequences()[0].truncated(2.0).build();
//! let mut pipeline = VioPipeline::new(PipelineConfig::default());
//! // Solver scratch for the whole run, reused by every window.
//! let mut ws = SolverWorkspace::new();
//! let mut done = 0;
//! for frame in &data.frames {
//!     if pipeline.push_frame(frame) {
//!         let result = pipeline.optimize_and_slide_in(&mut ws, 3);
//!         assert!(result.workload.features > 0);
//!         done += 1;
//!     }
//! }
//! assert!(done > 0);
//! ```

#![warn(missing_docs)]

mod frontend;
mod pipeline;
mod sequence;
mod trajectory;
mod world;

pub use frontend::{generate_frames, Frame, FrontendConfig, TrackedFeature};
pub use pipeline::{
    DegradationCause, HealthMonitor, HealthState, PipelineConfig, VioPipeline, WindowResult,
};
pub use sequence::{
    euroc_sequences, kitti_sequences, tunnel_sequences, DatasetFamily, SequenceData, SequenceSpec,
};
pub use trajectory::{HallTrajectory, KinematicSample, RoadTrajectory, Trajectory};
pub use world::{World, WorldPoint};
