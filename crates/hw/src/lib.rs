//! The Archytas hardware template (paper Sec. 4): parameterized block
//! models, FPGA platform descriptors, resource/power/latency models and the
//! functional + cycle-level simulators.
//!
//! The paper's synthesizer never runs Vivado in its optimization loop — it
//! drives analytical models (Eqs. 6–17) and only validates final designs on
//! the board. This crate implements exactly those models (calibrated so the
//! named Tbl. 2 designs reproduce the published utilizations), plus two
//! simulators the paper's authors had in hardware: an `f32` functional model
//! of the datapath and an event-driven cycle simulator of the Cholesky
//! microarchitecture.
//!
//! # Example
//!
//! ```
//! use archytas_hw::{AcceleratorConfig, AcceleratorModel, FpgaPlatform, HIGH_PERF};
//! use archytas_mdfg::ProblemShape;
//!
//! let model = AcceleratorModel::new(HIGH_PERF, FpgaPlatform::zc706());
//! let shape = ProblemShape::typical();
//! assert!(model.fits());
//! assert!(model.window_latency_ms(&shape, 6) < 20.0);
//! ```

#![warn(missing_docs)]

mod accel;
mod blocks;
mod cyclesim;
mod energy;
mod funcsim;
mod latency;
mod platform;
mod power;
mod resource;

pub use accel::{AcceleratorModel, HIGH_PERF, LOW_POWER};
pub use blocks::{
    back_substitution_latency, cholesky_latency, dschur_feature_latency, feature_block_stages,
    jacobian_feature_latency, mschur_latency, AcceleratorConfig, CHOLESKY_EVALUATE_LATENCY,
    FEATURE_BLOCK_LATENCY, OBSERVATION_CYCLES,
};
pub use cyclesim::{cholesky_timeline, simulate_window, BlockActivity, WindowSimResult};
pub use energy::{window_energy_breakdown, EnergyBreakdown};
pub use funcsim::f32_linear_solver;
pub use latency::{
    marginalization_cycles, nls_iteration_cycles, window_cycles, LatencyTables,
    ITERATION_OVERHEAD_CYCLES, S_BLOCK, WINDOW_OVERHEAD_CYCLES,
};
pub use platform::{FpgaPlatform, ResourceKind, ResourceVector, RESOURCE_KINDS};
pub use power::PowerModel;
pub use resource::ResourceModel;
