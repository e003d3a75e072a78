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
//! process). Maps shorter than a tunable threshold
//! ([`Pool::with_serial_threshold`], default [`DEFAULT_SERIAL_THRESHOLD`],
//! env `ARCHYTAS_PAR_THRESHOLD`) run serially. Nested calls (a map invoked
//! from inside a worker, or inside [`run_as_worker`]) automatically degrade
//! to serial — on the inner level only; the enclosing region keeps its
//! workers.
//!
//! The crate also hosts [`Memo`], the exactly-once cache behind the
//! accelerator model, the gating-LUT cache and the CPU baseline, and
//! [`counters`], the per-phase solver timers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
mod memo;
mod pool;

pub use memo::Memo;
pub use pool::{run_as_worker, Pool, DEFAULT_SERIAL_THRESHOLD};
