//! Dense and block linear algebra substrate for the Archytas reproduction.
//!
//! The Archytas paper (MICRO 2021) lowers a sliding-window MAP estimator to a
//! macro data-flow graph whose nodes are coarse linear-algebra operations:
//! dense and diagonal matrix products, Cholesky decomposition,
//! forward/backward substitution, and Schur complements (Sec. 3, Tbl. 1).
//! This crate provides exactly those operations, from scratch, with no
//! external linear-algebra dependencies.
//!
//! Everything is generic over the scalar type through the [`Scalar`] trait so
//! that the software solver can run in `f64` while the hardware functional
//! model runs in `f32` (the accelerator datapath is single precision).
//!
//! # Example
//!
//! ```
//! use archytas_math::{DMat, DVec};
//!
//! // Solve a small SPD system with the same Cholesky + substitution
//! // pipeline the accelerator template uses.
//! let a = DMat::from_rows(&[
//!     &[4.0, 2.0, 0.0],
//!     &[2.0, 5.0, 1.0],
//!     &[0.0, 1.0, 3.0],
//! ]);
//! let b = DVec::from(vec![1.0, 2.0, 3.0]);
//! let x = a.cholesky().expect("SPD").solve(&b);
//! let r = &a.mat_vec(&x) - &b;
//! assert!(r.norm() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block_sparse;
mod cholesky;
mod error;
pub mod fixed;
pub mod kernels;
mod matrix;
mod scalar;
mod triangular;
mod vector;

pub use block_sparse::{BlockSparseSystem, SchurScratch, W_BLOCK_PITCH, W_BLOCK_ROWS};
pub use cholesky::Cholesky;
pub use error::{MathError, Result};
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use triangular::solve_upper_into;
pub use vector::Vector;

/// Double-precision dense matrix, the workhorse of the software solver.
pub type DMat = Matrix<f64>;
/// Double-precision dense vector.
pub type DVec = Vector<f64>;
/// Single-precision dense matrix used by the hardware functional model.
pub type FMat = Matrix<f32>;
/// Single-precision dense vector used by the hardware functional model.
pub type FVec = Vector<f32>;
