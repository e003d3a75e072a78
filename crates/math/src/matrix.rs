//! Dense row-major matrix.

use crate::error::{MathError, Result};
use crate::scalar::Scalar;
use crate::vector::Vector;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Sub};

/// Dense row-major matrix over a [`Scalar`].
///
/// This is the `MatMul`/`MatSub`/`MatTp` operand type of the M-DFG (paper
/// Tbl. 1). Fallible, dimension-checked variants (`try_*`) are provided for
/// library users; the panicking operator overloads are kept for solver-internal
/// code where dimensions are statically known.
///
/// ```
/// use archytas_math::DMat;
/// let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = a.transpose();
/// assert_eq!(b.get(0, 1), 3.0);
/// ```
#[derive(PartialEq, Default)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`, reusing the existing allocation when it is
    /// large enough — the derived impl would reallocate on every call, which
    /// matters for per-iteration buffers in the solver hot loop.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Reshapes to `rows × cols` and zero-fills, reusing the allocation.
    ///
    /// Equivalent to `*self = Matrix::zeros(rows, cols)` without the
    /// reallocation; used by the solver's reusable workspaces.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, T::ZERO);
    }

    /// Reshapes to `rows × cols` reusing the allocation, *without* clearing
    /// it: elements keep whatever the buffer held (zero where it grew). For
    /// work buffers that never read an element they have not written.
    pub(crate) fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, T::ZERO);
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, T::ONE);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Builds a matrix taking ownership of a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` for a square matrix.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.rows && j < self.cols, "get: index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)` to `v`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.rows && j < self.cols, "set: index out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to element `(i, j)`.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: T) {
        assert!(
            i < self.rows && j < self.cols,
            "add_at: index out of bounds"
        );
        self.data[i * self.cols + j] += v;
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over all rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[T]> {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Read-only row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Transposed copy. The copy walks `16 × 16` blocks so the strided reads
    /// of a block stay in cache while its output rows are written in order.
    pub fn transpose(&self) -> Self {
        const B: usize = 16;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Self::zeros(cols, rows);
        for j0 in (0..cols).step_by(B) {
            for i0 in (0..rows).step_by(B) {
                let i1 = (i0 + B).min(rows);
                for j in j0..(j0 + B).min(cols) {
                    let dst = &mut out.data[j * rows + i0..j * rows + i1];
                    for (d, i) in dst.iter_mut().zip(i0..i1) {
                        *d = self.data[i * cols + j];
                    }
                }
            }
        }
        out
    }

    /// Matrix product, dimension-checked.
    ///
    /// i-k-j order keeps both streams sequential in row-major storage; a
    /// zero multiplicand skips its whole `rhs` row.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `self.cols != rhs.rows`.
    pub fn try_mul(&self, rhs: &Self) -> Result<Self> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch {
                op: "mat_mul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Self::zeros(self.rows, rhs.cols);
        let n = rhs.cols;
        if n == 0 {
            return Ok(out);
        }
        for (a_row, out_row) in self.rows_iter().zip(out.data.chunks_mut(n)) {
            for (k, &a) in a_row.iter().enumerate() {
                if a == T::ZERO {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(rhs.row(k)) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics when `self.cols != v.len()`.
    pub fn mat_vec(&self, v: &Vector<T>) -> Vector<T> {
        let mut out = Vector::zeros(0);
        self.mat_vec_into(v, &mut out);
        out
    }

    /// [`Matrix::mat_vec`] into a caller-owned vector (resized to fit),
    /// without allocating once `out` has grown.
    ///
    /// Element `i` is the iterator `sum()` of row `i`'s products `a·b` in
    /// column order, starting from `sum`'s own identity. Four rows are
    /// summed side by side: each keeps its serial add chain (so its bits),
    /// and the four independent chains overlap instead of one chain's
    /// latency bounding the loop.
    ///
    /// # Panics
    ///
    /// Panics when `self.cols != v.len()`.
    pub fn mat_vec_into(&self, v: &Vector<T>, out: &mut Vector<T>) {
        assert_eq!(self.cols, v.len(), "mat_vec: dimension mismatch");
        let identity: T = std::iter::empty::<T>().sum();
        out.resize_fill(self.rows, identity);
        let (out, v) = (out.as_mut_slice(), v.as_slice());
        let mut i = 0;
        while i + 4 <= self.rows {
            let rows: [&[T]; 4] = std::array::from_fn(|k| self.row(i + k));
            let mut acc = [identity; 4];
            for (j, &x) in v.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(rows) {
                    *a += row[j] * x;
                }
            }
            out[i..i + 4].copy_from_slice(&acc);
            i += 4;
        }
        for (o, row) in out[i..].iter_mut().zip(self.rows_iter().skip(i)) {
            *o = row.iter().zip(v).map(|(&a, &b)| a * b).sum();
        }
    }

    /// `selfᵀ · v` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics when `self.rows != v.len()`.
    pub fn transpose_mat_vec(&self, v: &Vector<T>) -> Vector<T> {
        assert_eq!(self.rows, v.len(), "transpose_mat_vec: dimension mismatch");
        let mut out = Vector::zeros(self.cols);
        for (row, &vi) in self.rows_iter().zip(v.as_slice()) {
            if vi == T::ZERO {
                continue;
            }
            for (o, &a) in out.as_mut_slice().iter_mut().zip(row) {
                *o += a * vi;
            }
        }
        out
    }

    /// Gram product `selfᵀ · self` (the information-matrix kernel `H = JᵀJ`).
    ///
    /// Output row `i` holds `out[i][j] = Σ_k self[k][i]·self[k][j]` with `k`
    /// ascending; only the upper triangle is accumulated and it is mirrored
    /// afterwards.
    pub fn gram(&self) -> Self {
        let n = self.cols;
        let mut out = Self::zeros(n, n);
        if n == 0 {
            return out;
        }
        // Four source rows per traversal of the output row; per element the
        // multiply-adds keep their ascending-`k` order (`add_scaled_rows`).
        for (i, out_row) in out.data.chunks_mut(n).enumerate() {
            let rows = self
                .rows_iter()
                .filter(|row| row[i] != T::ZERO)
                .map(|row| (&row[i..], row[i]));
            crate::kernels::add_scaled_rows(&mut out_row[i..], rows);
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in 0..i {
                let v = out.get(j, i);
                out.set(i, j, v);
            }
        }
        out
    }

    /// Copies the `rows × cols` sub-matrix starting at `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics when the window exceeds the matrix bounds.
    pub fn submatrix(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Self {
        assert!(
            row0 + rows <= self.rows && col0 + cols <= self.cols,
            "submatrix: window out of bounds"
        );
        Self::from_fn(rows, cols, |i, j| self.get(row0 + i, col0 + j))
    }

    /// Adds `block` into the window at `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics when the block exceeds the matrix bounds.
    pub fn add_submatrix(&mut self, row0: usize, col0: usize, block: &Self) {
        assert!(
            row0 + block.rows <= self.rows && col0 + block.cols <= self.cols,
            "add_submatrix: window out of bounds"
        );
        for i in 0..block.rows {
            for j in 0..block.cols {
                self.add_at(row0 + i, col0 + j, block.get(i, j));
            }
        }
    }

    /// Scales every element by `alpha`.
    pub fn scale(&self, alpha: T) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v * alpha).collect(),
        }
    }

    /// Adds `alpha` to each diagonal element (Levenberg–Marquardt damping).
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    pub fn add_diagonal(&self, alpha: T) -> Self {
        assert!(self.is_square(), "add_diagonal: matrix must be square");
        let mut out = self.clone();
        for i in 0..self.rows {
            out.add_at(i, i, alpha);
        }
        out
    }

    /// Maximum absolute element, or zero for an empty matrix. NaN elements
    /// never win the comparison, so check [`Matrix::all_finite`] first where
    /// a NaN must not pass.
    pub fn max_abs(&self) -> T {
        self.data
            .iter()
            .map(|v| v.abs())
            .fold(T::ZERO, |acc, v| if v > acc { v } else { acc })
    }

    /// `true` when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Symmetry check within tolerance `tol` (max-abs element difference).
    pub fn is_symmetric(&self, tol: T) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Element-wise cast to another scalar width.
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        let mut out = Matrix::zeros(0, 0);
        self.cast_into(&mut out);
        out
    }

    /// [`Matrix::cast`] into a caller-owned matrix — allocation-free once
    /// `out`'s buffer has grown to this shape (the f32 functional-model
    /// solver casts every damping retry through one reused buffer).
    pub fn cast_into<U: Scalar>(&self, out: &mut Matrix<U>) {
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data
            .extend(self.data.iter().map(|v| U::from_f64(v.to_f64())));
    }

    /// Cholesky factorization of `self` (must be symmetric positive definite).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotPositiveDefinite`] when a pivot is
    /// non-positive, and [`MathError::DimensionMismatch`] when not square.
    pub fn cholesky(&self) -> Result<crate::cholesky::Cholesky<T>> {
        crate::cholesky::Cholesky::factor(self)
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({}x{})", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        Ok(())
    }
}

impl<T: Scalar> Add for &Matrix<T> {
    type Output = Matrix<T>;
    fn add(self, rhs: Self) -> Matrix<T> {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl<T: Scalar> Sub for &Matrix<T> {
    type Output = Matrix<T>;
    fn sub(self, rhs: Self) -> Matrix<T> {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    type M = Matrix<f64>;
    type V = Vector<f64>;

    fn sample() -> M {
        M::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn transpose_is_elementwise_across_block_edges() {
        // Shapes around the 16-wide blocking.
        for (r, c) in [(1, 1), (3, 17), (17, 3), (16, 16), (33, 20)] {
            let m = M::from_fn(r, c, |i, j| (i * 100 + j) as f64 - 0.5);
            let out = m.transpose();
            assert_eq!(out.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(out.get(j, i).to_bits(), m.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn mat_vec_into_matches_per_row_sums_bitwise() {
        // Row counts around the four-row interleave, signed zeros (an
        // all-zero product row must keep the sign the serial `sum` gives)
        // and scale-diverse values.
        for rows in [0, 1, 3, 4, 5, 8, 11] {
            for cols in [0, 1, 7] {
                let m = M::from_fn(rows, cols, |i, j| match (i + 2 * j) % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    k => (k as f64 - 2.5) * 10f64.powi((i * 3 + j) as i32 % 9 - 4),
                });
                for v in [
                    V::zeros(cols),
                    (0..cols)
                        .map(|j| if j % 2 == 0 { -0.0 } else { 1.5 })
                        .collect(),
                    (0..cols).map(|j| 0.3 - j as f64).collect(),
                ] {
                    let serial: Vec<u64> = m
                        .rows_iter()
                        .map(|row| {
                            let s: f64 = row.iter().zip(v.as_slice()).map(|(&a, &b)| a * b).sum();
                            s.to_bits()
                        })
                        .collect();
                    let got: Vec<u64> = m.mat_vec(&v).iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, serial, "{rows}x{cols}");
                }
            }
        }
    }

    #[test]
    fn shape_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        assert!(M::identity(3).is_square());
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let m = sample();
        let i3 = M::identity(3);
        assert_eq!(m.try_mul(&i3).unwrap(), m);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn mul_matches_manual() {
        let a = M::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = M::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.try_mul(&b).unwrap();
        assert_eq!(c, M::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn try_mul_rejects_mismatch() {
        let a = M::zeros(2, 3);
        let b = M::zeros(2, 3);
        assert!(matches!(
            a.try_mul(&b),
            Err(MathError::DimensionMismatch { op: "mat_mul", .. })
        ));
    }

    #[test]
    fn mat_vec_and_transpose_mat_vec() {
        let m = sample();
        let v = V::from(vec![1.0, 1.0, 1.0]);
        assert_eq!(m.mat_vec(&v).as_slice(), &[6.0, 15.0]);
        let w = V::from(vec![1.0, 1.0]);
        assert_eq!(m.transpose_mat_vec(&w).as_slice(), &[5.0, 7.0, 9.0]);
        // Consistency with the explicit transpose.
        assert_eq!(
            m.transpose_mat_vec(&w).as_slice(),
            m.transpose().mat_vec(&w).as_slice()
        );
    }

    #[test]
    fn gram_equals_explicit_product() {
        let m = sample();
        let g = m.gram();
        let explicit = m.transpose().try_mul(&m).unwrap();
        assert_eq!(g, explicit);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn submatrix_roundtrip() {
        let m = sample();
        let s = m.submatrix(0, 1, 2, 2);
        assert_eq!(s, M::from_rows(&[&[2.0, 3.0], &[5.0, 6.0]]));
        let mut z = M::zeros(3, 3);
        z.add_submatrix(1, 1, &s);
        z.add_submatrix(1, 1, &s);
        assert_eq!(z.get(1, 1), 4.0);
        assert_eq!(z.get(2, 2), 12.0);
    }

    #[test]
    fn damping_adds_to_diagonal_only() {
        let m = M::identity(2);
        let d = m.add_diagonal(0.5);
        assert_eq!(d.get(0, 0), 1.5);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn norms() {
        let m = M::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn symmetry_check() {
        let s = M::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]);
        assert!(s.is_symmetric(0.0));
        let ns = M::from_rows(&[&[1.0, 2.0], &[2.1, 3.0]]);
        assert!(!ns.is_symmetric(1e-3));
        assert!(!sample().is_symmetric(1.0));
    }

    #[test]
    fn cast_width() {
        let m = M::from_rows(&[&[1.0 + 1e-12]]);
        let f: Matrix<f32> = m.cast();
        assert_eq!(f.get(0, 0), 1.0f32);
    }

    #[test]
    #[should_panic(expected = "from_vec: buffer size mismatch")]
    fn from_vec_checks_len() {
        let _ = M::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn row_mut_edits_in_place() {
        let mut m = sample();
        m.row_mut(1)[2] = 42.0;
        assert_eq!(m.get(1, 2), 42.0);
        m.row_mut(0).fill(0.0);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn rows_iter_walks_all_rows() {
        let m = sample();
        let rows: Vec<&[f64]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], &[1.0, 2.0, 3.0]);
        assert_eq!(rows[1], &[4.0, 5.0, 6.0]);
    }
}
