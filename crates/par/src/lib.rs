//! Std-only parallel execution layer for the Archytas reproduction.
//!
//! The paper's software baseline is a *multithreaded* ceres-based solver
//! (Sec. 7.1); this crate is the software-side analogue for the sweeps that
//! actually profit from threads: a scoped worker pool over
//! [`std::thread::scope`] (no external dependencies — DESIGN.md's sanctioned
//! set has no threading crate) with one combinator, [`Pool::par_map`]. Its
//! callers are the sweeps of the experiment binaries in `archytas-bench`:
//! one item per suite sequence, and in `fig15` one per frontier design
//! priced over a sequence. The solver kernels in `archytas-math` and the
//! synthesizer's design-space search are serial: a window-sized kernel or a
//! cold search is far below the cost of one fork/join.
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
//! process). A map of fewer than two items runs serially. A parallel map
//! spawns `threads − 1` scoped workers and puts the calling thread to work
//! as the last one: a 2-thread map costs one spawn, not two, and the caller
//! maps chunks instead of only waiting at the join. No `par_map` nests: the
//! sweeps' closures build sequences, price models or run one sequence. A
//! panic in the mapped closure reaches the caller after every spawned
//! worker has joined.
//!
//! The crate also hosts [`counters`], the per-phase solver timers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
mod pool;

pub use pool::{run_as_worker, Pool};
