//! Baseline executors and comparators for the Archytas evaluation
//! (paper Sec. 7.1/7.4/7.5).
//!
//! Two families: CPU platform cost models (the Intel Comet Lake and Arm
//! Cortex-A57 machines the paper measures, modelled by effective sustained
//! throughput + package power over the same M-DFG work the accelerator
//! executes) and prior-accelerator comparators (π-BA, BAX, Zhang et al.,
//! PISCES, and the hand-vs-HLS Cholesky study), anchored on those systems'
//! published numbers exactly as the paper's best-effort normalization does.

#![warn(missing_docs)]

mod cpu;
mod prior_accel;

pub use cpu::{CpuPlatform, OVERHEAD_OPS_PER_ITERATION, OVERHEAD_OPS_PER_WINDOW};
pub use prior_accel::{
    all_prior_accelerators, bax, pi_ba, pisces, zhang_vio, HlsCholesky, PriorAccelerator,
    HLS_REFERENCE_DIM, HLS_REFERENCE_LANES,
};
