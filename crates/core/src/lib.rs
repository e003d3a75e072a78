//! The Archytas framework (MICRO 2021): automatic synthesis and dynamic
//! optimization of robotic-localization accelerators.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates:
//!
//! * `synth` — the constrained-optimization hardware synthesizer (Sec. 5),
//! * `verilog` — emission of the synthesizable design (Fig. 1),
//! * `runtime` — the on-line iteration/clock-gating optimizer (Sec. 6),
//! * `vehicle` — the per-window step every end-to-end run, fleet session
//!   and fault scenario closes its windows through,
//! * `framework` — the end-to-end `Archytas::generate` entry point.
//!
//! # Example
//!
//! ```
//! use archytas_core::{elaborate, AlgorithmDescription, Archytas, DesignSpec};
//!
//! let slam = AlgorithmDescription::slam_typical();
//! let spec = DesignSpec::zc706_power_optimal(5.0);
//! let accelerator = Archytas::generate(&slam, &spec)?;
//! assert!(accelerator.design.latency_ms <= 5.0);
//! assert!(elaborate(&accelerator.verilog).is_ok());
//! # Ok::<(), archytas_core::SynthesisError>(())
//! ```

#![warn(missing_docs)]

mod adaptive;
mod elaborate;
mod framework;
mod runtime;
mod synth;
mod vehicle;
mod verilog;

pub use adaptive::AdaptiveIterPolicy;
pub use elaborate::{elaborate, Elaboration, Instance, Module, Port, PortDir};
pub use framework::{AlgorithmDescription, AlgorithmKind, Archytas, GeneratedAccelerator};
pub use runtime::{
    GatingTable, IterCounter, IterPolicy, RuntimeDecision, RuntimeSystem, RuntimeWatchdog, ITER_CAP,
};
pub use synth::{
    knob_bounds, pareto_frontier, synthesize, synthesize_exhaustive, validate_by_perturbation,
    DesignSpec, Objective, ParetoPoint, SynthesisError, SynthesizedDesign, ND_MAX, NM_MAX, S_MAX,
};
pub use vehicle::{run_sequence, Executor, RunSummary, Vehicle, WindowRecord};
pub use verilog::{emit_verilog, VerilogDesign, VerilogFile};
