//! Seeded fault injection for the VIO pipeline and runtime layer.
//!
//! Localization accelerators ship on vehicles, where the sensor stream is
//! not a curated dataset: cameras blank out in tunnels, IMUs saturate over
//! potholes, drivers deliver NaN when a sensor resets mid-packet. This crate
//! stress-tests the degradation ladder built into the rest of the workspace
//! (`archytas-slam`'s fallible solver, `archytas-dataset`'s
//! `HealthMonitor`, `archytas-core`'s `RuntimeWatchdog`) by corrupting
//! synthetic sequences in precisely scheduled, bit-reproducible ways:
//!
//! * a [`FaultPlan`] schedules [`FaultEpisode`]s (frame intervals) of a
//!   [`FaultKind`] — feature droughts, total vision dropout, dropped or
//!   duplicated camera frames, IMU bias spikes, saturation, NaN samples,
//!   and gross observation outliers;
//! * [`inject::apply`] rewrites a frame stream under a plan, deterministic
//!   for a given seed regardless of thread count;
//! * [`scenarios`] is the standard fault matrix and
//!   [`long_horizon_scenarios`] adds minutes-scale regimes pinned to their
//!   own sequences (tunnel feature droughts). [`run_matrix`] drives a list
//!   of scenarios through `archytas-core`'s one window loop
//!   (`Vehicle::run`) on the HIGH_PERF design with the run-time system
//!   armed, Huber weighting and the f32 window solve that fleet sessions
//!   are served with, and reports each one's
//!   accuracy against the fault-free run of its sequence. One executor is
//!   built per call and cloned per run, and each distinct (sequence,
//!   duration) runs fault-free once;
//! * a [`ChaosPlan`] schedules *execution-level* faults for the fleet
//!   layer — session panics, step stalls, poisoned observations, worker
//!   jitter — with the same per-(event, frame) RNG discipline.
//!
//! # Example: a vision dropout survives
//!
//! ```
//! use archytas_faults::{run_matrix, FaultKind, FaultPlan, Scenario};
//!
//! let plan = FaultPlan::new(7).with(FaultKind::VisionDropout, 24, 28);
//! let result = &run_matrix(&[Scenario::new("dropout", plan)], 4.0)[0];
//! assert!(result.completed);
//! assert!(result.rmse_m.is_finite());
//! ```

#![warn(missing_docs)]

mod chaos;
mod inject;
mod matrix;
mod plan;

pub use chaos::{ChaosKind, ChaosPlan};
pub use inject::apply;
pub use matrix::{long_horizon_scenarios, run_matrix, scenarios, Scenario, ScenarioResult};
pub use plan::{FaultEpisode, FaultKind, FaultPlan};
