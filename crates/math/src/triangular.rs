//! Backward substitution — the backward half of the `FBSub` M-DFG
//! primitive. The forward half runs over the factor's stored `Lᵀ` inside
//! [`Cholesky::solve_into`](crate::Cholesky::solve_into).

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::vector::Vector;

/// Solves `U · x = b` for upper-triangular `U` by backward substitution,
/// writing into a caller-owned vector (resized to fit), so a reused buffer
/// makes the substitution allocation-free. Every element of `x` is assigned
/// before it is read, so the buffer's previous contents never reach an
/// arithmetic instruction.
///
/// Only the upper triangle of `u` is read.
///
/// # Panics
///
/// Panics when `u` is not square, when `b.len() != u.rows()`, or when a
/// diagonal element is zero.
pub fn solve_upper_into<T: Scalar>(u: &Matrix<T>, b: &Vector<T>, x: &mut Vector<T>) {
    assert!(u.is_square(), "solve_upper: matrix must be square");
    let n = u.rows();
    assert_eq!(b.len(), n, "solve_upper: rhs length mismatch");
    x.resize_fill(n, T::ZERO);
    let x = x.as_mut_slice();
    for i in (0..n).rev() {
        let row = u.row(i);
        let mut acc = b[i];
        for (&uij, &xj) in row[i + 1..].iter().zip(&x[i + 1..]) {
            acc -= uij * xj;
        }
        let d = row[i];
        assert!(d != T::ZERO, "solve_upper: zero diagonal at {i}");
        x[i] = acc / d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    type M = Matrix<f64>;
    type V = Vector<f64>;

    fn solve_upper(u: &M, b: &V) -> V {
        let mut x = V::zeros(0);
        solve_upper_into(u, b, &mut x);
        x
    }

    #[test]
    fn backward_substitution() {
        let u = M::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        let b = V::from(vec![7.0, 9.0]);
        let x = solve_upper(&u, &b);
        assert_eq!(x.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn upper_ignores_lower_garbage() {
        let u = M::from_rows(&[&[2.0, 1.0], &[999.0, 3.0]]);
        let b = V::from(vec![7.0, 9.0]);
        assert_eq!(solve_upper(&u, &b).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn residual_is_small_on_random_triangular() {
        // Deterministic pseudo-random upper-triangular system.
        let n = 12;
        let mut seed = 1u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64) / (u32::MAX as f64) + 0.1
        };
        let u = M::from_fn(n, n, |i, j| {
            if j > i {
                next() - 0.5
            } else if j == i {
                next() + 1.0
            } else {
                0.0
            }
        });
        let b: V = (0..n).map(|i| (i as f64) - 3.0).collect();
        let x = solve_upper(&u, &b);
        let r = &u.mat_vec(&x) - &b;
        assert!(r.norm() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn zero_diagonal_panics() {
        let u = M::from_rows(&[&[1.0, 1.0], &[0.0, 0.0]]);
        let _ = solve_upper(&u, &V::zeros(2));
    }
}
