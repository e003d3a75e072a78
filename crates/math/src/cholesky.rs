//! Cholesky decomposition — the `CD` M-DFG primitive.
//!
//! The factorization is written in the Evaluate/Update formulation the
//! Archytas hardware template uses (paper Sec. 4.3, Fig. 8): iteration `i`
//! first *evaluates* column `i` of `L` and then *updates* the trailing
//! `(n−i−1)²/2` sub-matrix.
//!
//! # Zero multipliers
//!
//! A trailing row whose panel multipliers are all zero, and an in-panel
//! source row whose multiplier is zero, are skipped. The skipped `w − s·0`
//! would leave `w` unchanged unless `s` is not finite (the factorization
//! still fails, possibly at another `pivot`) or `w` is `−0.0`. A rounded
//! sum or difference is `−0.0` only when an operand is, so an input with
//! no `−0.0` keeps every bit (the block solver's f64 input has none, by its
//! structural-zero argument); otherwise only the sign of a zero can change.

use crate::error::{MathError, Result};
use crate::fixed;
use crate::kernels;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::triangular::solve_upper_into;
use crate::vector::Vector;

/// Column-panel width of the blocked trailing update in
/// [`Cholesky::refactor`]. Eight columns per sweep lets the update
/// kernel apply a rank-8 modification per trailing-row traversal — an 8×
/// reduction in trailing-matrix memory traffic over the unblocked loop —
/// while the const-generic [`fixed::sub_scaled_panel`] keeps the per-element
/// subtraction sequence of the unblocked formulation (the panel width only
/// moves *when* a subtraction happens, never its operands or its position in
/// an element's sequence, so any width factors bit-identically).
const PANEL: usize = 8;

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// The factor is stored once, as `Lᵀ` (row-major, upper triangular): the
/// factorization writes each column of `L` as one contiguous row of it, the
/// forward substitution sweeps those rows, and the back-substitution reads
/// it as the upper-triangular system it is.
#[derive(Debug, Clone)]
pub struct Cholesky<T: Scalar> {
    lt: Matrix<T>,
    /// The trailing sub-matrix the factorization updates in place (see
    /// `refactor_seeded`); only its upper triangle is ever read or written.
    work: Matrix<T>,
}

impl<T: Scalar> Default for Cholesky<T> {
    /// An empty (0-dimensional) factorization, as a reusable-buffer seed for
    /// [`Cholesky::refactor`].
    fn default() -> Self {
        Self {
            lt: Matrix::zeros(0, 0),
            work: Matrix::zeros(0, 0),
        }
    }
}

impl<T: Scalar> Cholesky<T> {
    /// Factors the symmetric positive-definite matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `a` is not square and
    /// [`MathError::NotPositiveDefinite`] when a pivot is non-positive or not
    /// finite. Symmetry is assumed (only the upper triangle is read).
    pub fn factor(a: &Matrix<T>) -> Result<Self> {
        if !a.is_square() {
            return Err(MathError::DimensionMismatch {
                op: "cholesky",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let mut fact = Self::default();
        fact.refactor(a)?;
        Ok(fact)
    }

    /// Re-runs the factorization on `a`, reusing this value's buffers — no
    /// allocation when `a` has the shape of the previous factorization. The
    /// arithmetic is identical to [`Cholesky::factor`].
    ///
    /// On error the value is left in an unspecified (but safe) state; run
    /// another `refactor` before using it again.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cholesky::factor`].
    pub fn refactor(&mut self, a: &Matrix<T>) -> Result<()> {
        let n = a.rows();
        // The trailing sub-matrix S_k is stored TRANSPOSED (see
        // `refactor_seeded`); seeding it from `a`'s rows reads the upper
        // triangle (symmetry is assumed).
        self.work.clone_from(a);
        self.refactor_seeded(n)
    }

    /// Factors the difference `v − prod` without materializing it: the
    /// work buffer is seeded with the elementwise difference directly, so
    /// the Schur complement `S = V − W·U⁻¹·Wᵀ` never exists as a separate
    /// matrix (saving two full-matrix passes per solve).
    ///
    /// Only the upper triangle (column ≥ row) of `v` and `prod` is read —
    /// the factorization reads nothing else — so a caller may leave the
    /// strict lower triangles of both unwritten. Each seeded element is the
    /// identical single rounded `v[i] − prod[i]` a materialized subtraction
    /// would store, so the factor is bit-identical to `refactor` on the
    /// explicit difference.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cholesky::factor`] (the difference must be
    /// square, symmetric and positive definite).
    ///
    /// # Panics
    ///
    /// Panics when `prod` and `v` differ in shape.
    pub fn refactor_diff(&mut self, v: &Matrix<T>, prod: &Matrix<T>) -> Result<()> {
        if !v.is_square() {
            return Err(MathError::DimensionMismatch {
                op: "cholesky",
                lhs: v.shape(),
                rhs: prod.shape(),
            });
        }
        assert_eq!(v.shape(), prod.shape(), "refactor_diff shape mismatch");
        let n = v.rows();
        // The strict lower triangle of `work` keeps whatever it held: the
        // factorization never reads it.
        self.work.reshape(n, n);
        for i in 0..n {
            let (vr, pr) = (&v.row(i)[i..], &prod.row(i)[i..]);
            for ((w, &a), &b) in self.work.row_mut(i)[i..].iter_mut().zip(vr).zip(pr) {
                *w = a - b;
            }
        }
        self.refactor_seeded(n)
    }

    /// The shared factorization body: `self.work` holds the seeded work
    /// matrix (the input; only its upper triangle is read), `self.lt`
    /// receives the factor.
    fn refactor_seeded(&mut self, n: usize) -> Result<()> {
        // The factor is accumulated as `Lᵀ` (row-major): the Evaluate phase
        // then writes column k of `L` into one contiguous row, and the Update
        // phase reads that same row sequentially — the strided column
        // traffic of a row-major `L` would cost a cache line per element.
        // Each row is written in full by its Evaluate step, zeros below the
        // diagonal included, so the buffer is not cleared first.
        self.lt.reshape(n, n);
        // The trailing sub-matrix S_k, also stored TRANSPOSED: row j holds
        // the elements (i, j), i ≥ j, contiguously, so the Evaluate phase's
        // column read and the Update phase's row walks are all sequential.
        let work = &mut self.work;
        // The factorization proceeds in column panels of width PANEL: each
        // panel is evaluated column by column (applying the panel's earlier
        // columns to each pivot row as it is reached), then the whole panel
        // is applied to the trailing rows in one fused rank-PANEL sweep.
        //
        // Bit-identity with the unblocked column-at-a-time loop: every
        // trailing element (i, j) receives its multiply-subtracts in the same
        // ascending-k order — columns before the panel via earlier trailing
        // sweeps, panel columns in sequence inside `sub_scaled_panel` / the
        // remainder loop — each as a separately-rounded `w − l_ki·l_kj` with
        // the exact operands of the serial formulation. The blocking only
        // changes *when* a subtraction happens, never its inputs or its
        // position in the element's subtraction sequence, so the factor is
        // identical bit for bit.
        let mut k0 = 0;
        while k0 < n {
            let kend = (k0 + PANEL).min(n);
            for k in k0..kend {
                // Bring row k of the trailing block up to date with the
                // panel columns evaluated before it (ascending, as always).
                for kk in k0..k {
                    let ljk = self.lt.get(kk, k);
                    if ljk != T::ZERO {
                        kernels::sub_scaled(&mut work.row_mut(k)[k..], &self.lt.row(kk)[k..], ljk);
                    }
                }
                // --- Evaluate phase: column k of L ---
                let pivot = work.get(k, k);
                if pivot <= T::ZERO || !pivot.is_finite() {
                    return Err(MathError::NotPositiveDefinite { pivot: k });
                }
                let d = pivot.sqrt();
                {
                    let wrow = work.row(k);
                    let col = self.lt.row_mut(k);
                    col[..k].fill(T::ZERO);
                    col[k] = d;
                    for i in (k + 1)..n {
                        col[i] = wrow[i] / d;
                    }
                }
            }
            // --- Update phase: S ← S − L_panel·L_panelᵀ on rows kend..n ---
            // Transposed row j of the trailing block only reads rows
            // k0..kend of Lᵀ (fully written above) and writes elements
            // (i, j) for i ≥ j; only a full panel has trailing rows. A row
            // with all-zero multipliers is skipped; two live neighbours share
            // the panel's source loads (`sub_scaled_panel_pair`: per element
            // the same sequence as one row at a time).
            let lt = &self.lt;
            let mults = |j: usize| -> [T; PANEL] { core::array::from_fn(|kk| lt.get(k0 + kk, j)) };
            let live = |a: &[T; PANEL]| a.iter().any(|&x| x != T::ZERO);
            let mut j = kend;
            while j < n {
                let a = mults(j);
                if !live(&a) {
                    j += 1;
                    continue;
                }
                let srcs: [&[T]; PANEL] = core::array::from_fn(|kk| &lt.row(k0 + kk)[j..]);
                let a1 = mults((j + 1).min(n - 1));
                if j + 1 < n && live(&a1) {
                    let (head, tail) = work.as_mut_slice().split_at_mut((j + 1) * n);
                    let (w0, w1) = (&mut head[j * n + j..], &mut tail[j + 1..n]);
                    fixed::sub_scaled_panel_pair::<T, PANEL>(w0, w1, &srcs, &a, &a1);
                } else {
                    fixed::sub_scaled_panel::<T, PANEL>(&mut work.row_mut(j)[j..], &srcs, &a);
                }
                j += 2; // row j + 1 went with row j, or has nothing to do
            }
            k0 = kend;
        }
        Ok(())
    }

    /// The transposed factor `Lᵀ` (upper triangular, zeros below the
    /// diagonal) — the only stored form of the factor.
    pub fn lt(&self) -> &Matrix<T> {
        &self.lt
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.lt.rows()
    }

    /// Solves `A·x = b` by forward then backward substitution.
    ///
    /// # Panics
    ///
    /// Panics when `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &Vector<T>) -> Vector<T> {
        let (mut y, mut x) = (Vector::zeros(0), Vector::zeros(0));
        self.solve_into(b, &mut y, &mut x);
        x
    }

    /// [`Cholesky::solve`] into caller-owned buffers: `y` holds the forward
    /// substitution intermediate, `x` the solution (both resized to fit).
    /// With reused buffers the whole triangular solve performs no heap
    /// allocation.
    ///
    /// The forward substitution `L·y = b` is a column sweep over the rows of
    /// `Lᵀ`: `y = b`, then for each `k`, `y[k] /= l_kk` and
    /// `y[k+1..] −= L[k+1.., k]·y[k]`. Each `y[i]` thereby receives exactly
    /// the sequence of the row-form substitution on `L` — `y[i] −= l_ik·y[k]`
    /// for ascending `k`, then one division by `l_ii` — so the bits are
    /// those of the row form, while every step is an independent-element
    /// update that vectorizes. The back-substitution `Lᵀ·x = y` reads `Lᵀ`
    /// row by row.
    ///
    /// # Panics
    ///
    /// Panics when `b.len()` differs from the matrix dimension.
    pub fn solve_into(&self, b: &Vector<T>, y: &mut Vector<T>, x: &mut Vector<T>) {
        let n = self.dim();
        assert_eq!(b.len(), n, "cholesky solve: rhs length mismatch");
        y.clone_from(b);
        let ys = y.as_mut_slice();
        for k in 0..n {
            let row = self.lt.row(k);
            ys[k] /= row[k];
            let (head, tail) = ys.split_at_mut(k + 1);
            kernels::sub_scaled(tail, &row[k + 1..], head[k]);
        }
        solve_upper_into(&self.lt, y, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    type M = Matrix<f64>;
    type V = Vector<f64>;

    fn spd(n: usize) -> M {
        // Deterministic SPD matrix: B·Bᵀ + n·I.
        let b = M::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.4);
        b.gram().add_diagonal(n as f64)
    }

    #[test]
    fn reconstruction() {
        let a = spd(8);
        let ch = Cholesky::factor(&a).unwrap();
        let rec = &ch.lt().transpose().try_mul(ch.lt()).unwrap() - &a;
        assert!(rec.max_abs() < 1e-10);
    }

    #[test]
    fn factor_is_upper_triangular() {
        let a = spd(6);
        let ch = Cholesky::factor(&a).unwrap();
        for i in 0..6 {
            for j in 0..i {
                assert_eq!(ch.lt().get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn solve_residual() {
        let a = spd(10);
        let b: V = (0..10).map(|i| i as f64 - 4.0).collect();
        let x = Cholesky::factor(&a).unwrap().solve(&b);
        assert!((&a.mat_vec(&x) - &b).norm() < 1e-9);
    }

    #[test]
    fn rejects_non_spd() {
        let a = M::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(MathError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = M::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn works_in_f32() {
        let a = spd(4).cast::<f32>();
        let ch = Cholesky::factor(&a).unwrap();
        let rec = &ch.lt().transpose().try_mul(ch.lt()).unwrap() - &a;
        assert!(rec.max_abs() < 1e-4);
    }
}
