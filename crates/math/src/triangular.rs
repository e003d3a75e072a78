//! Forward and backward substitution — the `FBSub` M-DFG primitive.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::vector::Vector;

/// Solves `L · x = b` for lower-triangular `L` by forward substitution.
///
/// Only the lower triangle of `l` is read, so callers may pass a full
/// Cholesky factor buffer whose upper triangle is garbage.
///
/// # Panics
///
/// Panics when `l` is not square, when `b.len() != l.rows()`, or when a
/// diagonal element is zero.
pub fn solve_lower<T: Scalar>(l: &Matrix<T>, b: &Vector<T>) -> Vector<T> {
    let mut x = Vector::zeros(l.rows());
    solve_lower_into(l, b, &mut x);
    x
}

/// [`solve_lower`] writing into a caller-owned vector (resized to fit), so a
/// reused buffer makes the substitution allocation-free. Every element of
/// `x` is assigned before it is read, so the buffer's previous contents never
/// reach an arithmetic instruction — same bits as the allocating form.
///
/// # Panics
///
/// Same conditions as [`solve_lower`].
pub fn solve_lower_into<T: Scalar>(l: &Matrix<T>, b: &Vector<T>, x: &mut Vector<T>) {
    assert!(l.is_square(), "solve_lower: matrix must be square");
    let n = l.rows();
    assert_eq!(b.len(), n, "solve_lower: rhs length mismatch");
    x.resize_fill(n, T::ZERO);
    let x = x.as_mut_slice();
    for i in 0..n {
        let row = l.row(i);
        let mut acc = b[i];
        for (&lij, &xj) in row[..i].iter().zip(&x[..i]) {
            acc -= lij * xj;
        }
        let d = row[i];
        assert!(d != T::ZERO, "solve_lower: zero diagonal at {i}");
        x[i] = acc / d;
    }
}

/// Solves `U · x = b` for upper-triangular `U` by backward substitution.
///
/// Only the upper triangle of `u` is read.
///
/// # Panics
///
/// Panics when `u` is not square, when `b.len() != u.rows()`, or when a
/// diagonal element is zero.
pub fn solve_upper<T: Scalar>(u: &Matrix<T>, b: &Vector<T>) -> Vector<T> {
    let mut x = Vector::zeros(u.rows());
    solve_upper_into(u, b, &mut x);
    x
}

/// [`solve_upper`] writing into a caller-owned vector (resized to fit) — the
/// backward-substitution twin of [`solve_lower_into`], with the same
/// buffer-reuse and bit-identity properties.
///
/// # Panics
///
/// Same conditions as [`solve_upper`].
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

    #[test]
    fn forward_substitution() {
        let l = M::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
        let b = V::from(vec![4.0, 11.0]);
        let x = solve_lower(&l, &b);
        assert_eq!(x.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn backward_substitution() {
        let u = M::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        let b = V::from(vec![7.0, 9.0]);
        let x = solve_upper(&u, &b);
        assert_eq!(x.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn lower_ignores_upper_garbage() {
        let l = M::from_rows(&[&[2.0, 999.0], &[1.0, 3.0]]);
        let b = V::from(vec![4.0, 11.0]);
        assert_eq!(solve_lower(&l, &b).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn upper_ignores_lower_garbage() {
        let u = M::from_rows(&[&[2.0, 1.0], &[999.0, 3.0]]);
        let b = V::from(vec![7.0, 9.0]);
        assert_eq!(solve_upper(&u, &b).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn residual_is_small_on_random_triangular() {
        // Deterministic pseudo-random lower-triangular system.
        let n = 12;
        let mut seed = 1u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64) / (u32::MAX as f64) + 0.1
        };
        let l = M::from_fn(n, n, |i, j| {
            if j < i {
                next() - 0.5
            } else if j == i {
                next() + 1.0
            } else {
                0.0
            }
        });
        let b: V = (0..n).map(|i| (i as f64) - 3.0).collect();
        let x = solve_lower(&l, &b);
        let r = &l.mat_vec(&x) - &b;
        assert!(r.norm() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn zero_diagonal_panics() {
        let l = M::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let _ = solve_lower(&l, &V::zeros(2));
    }
}
