//! Std-only parallel execution layer for the Archytas reproduction.
//!
//! The paper's software baseline is a *multithreaded* ceres-based solver
//! (Sec. 7.1); this crate is the software-side analogue for the sweeps that
//! actually profit from threads: a scoped worker pool over
//! [`std::thread::scope`] (no external dependencies — DESIGN.md's sanctioned
//! set has no threading crate) with one combinator, [`Pool::par_map`]. Its
//! callers are the synthesizer's `nd` stripes, the Pareto sweeps and the
//! experiment suite sweeps. The solver kernels in `archytas-math` are serial:
//! a window-sized kernel is far below the cost of one fork/join.
//!
//! # Determinism contract
//!
//! [`Pool::par_map`] returns results in input order and computes each
//! element by exactly one closure call, so any thread count (including 1)
//! yields the identical `Vec`.
//!
//! # Thread-count knob
//!
//! [`Pool::global`] reads `ARCHYTAS_THREADS` (0 or unset → hardware
//! parallelism via [`std::thread::available_parallelism`], measured once per
//! process). A map of fewer than two items runs serially. Nested calls (a
//! map invoked from inside a worker, or inside [`run_as_worker`])
//! automatically degrade to serial — on the inner level only; the enclosing
//! region keeps its workers.
//!
//! The crate also hosts [`counters`], the per-phase solver timers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
mod pool;

pub use pool::{run_as_worker, Pool};
