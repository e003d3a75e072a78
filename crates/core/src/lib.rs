//! The Archytas framework (MICRO 2021): automatic synthesis and dynamic
//! optimization of robotic-localization accelerators.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates:
//!
//! * `synth` — the constrained-optimization hardware synthesizer (Sec. 5),
//! * `verilog` — emission of the synthesizable design (Fig. 1),
//! * `runtime` — the on-line iteration/clock-gating optimizer (Sec. 6),
//! * `vehicle` — the on-vehicle execution loop driving real workloads,
//! * `framework` — the end-to-end `Archytas::generate` entry point.
//!
//! # Example
//!
//! ```
//! use archytas_core::{AlgorithmDescription, Archytas, DesignSpec};
//!
//! let slam = AlgorithmDescription::slam_typical();
//! let spec = DesignSpec::zc706_power_optimal(5.0);
//! let accelerator = Archytas::generate(&slam, &spec)?;
//! assert!(accelerator.design.latency_ms <= 5.0);
//! assert!(accelerator.verilog.structural_check().is_clean());
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
    GatingTable, IterCounter, IterPolicy, IterationProfile, RuntimeDecision, RuntimeSystem,
    RuntimeWatchdog, ITER_CAP,
};
pub use synth::{
    knob_bounds, pareto_frontier, pareto_frontier_with, synthesize, synthesize_exhaustive,
    synthesize_with, validate_by_perturbation, DesignSpec, Objective, ParetoPoint, SynthesisError,
    SynthesizedDesign, ND_MAX, NM_MAX, S_MAX,
};
pub use vehicle::{run_sequence, Executor, RunSummary, WindowRecord};
pub use verilog::{emit_verilog, StructuralReport, VerilogDesign, VerilogFile};
