//! Error type shared by all fallible kernels in this crate.

use std::error::Error;
use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, MathError>;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MathError {
    /// Operand dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left operand (rows, cols).
        lhs: (usize, usize),
        /// Dimensions of the right operand (rows, cols).
        rhs: (usize, usize),
    },
    /// Cholesky factorization hit a non-positive pivot: the matrix is not
    /// (numerically) positive definite.
    NotPositiveDefinite {
        /// Index of the offending pivot.
        pivot: usize,
    },
    /// A diagonal inversion hit a (near-)zero entry.
    SingularDiagonal {
        /// Index of the offending entry.
        index: usize,
    },
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            MathError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            MathError::SingularDiagonal { index } => {
                write!(f, "diagonal entry {index} is zero or not finite")
            }
        }
    }
}

impl Error for MathError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = MathError::DimensionMismatch {
            op: "mat_mul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("mat_mul"));
        assert!(s.contains("2x3"));
        assert!(s.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<MathError>();
    }
}
