//! Schur complements and Schur-elimination linear solves.
//!
//! Two flavours, mirroring the paper's hardware blocks (Sec. 3.2, Sec. 4.4):
//!
//! * **D-type** — `V − W·U⁻¹·Wᵀ` with a *diagonal* `U`: inversion costs
//!   `O(p)` and the elimination is dominated by the rank-`p` outer-product
//!   accumulation. This is the NLS-solver path.
//! * **M-type** — `A − Λ·M⁻¹·Λᵀ` with a generic symmetric positive-definite
//!   `M`, inverted through Cholesky. This is the marginalization path.

use crate::block::{split_vector, BlockSpec, Blocked2x2};
use crate::cholesky::Cholesky;
use crate::diag::DiagMat;
use crate::error::{MathError, Result};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::vector::Vector;

/// D-type Schur complement `v − w·u⁻¹·wᵀ` (paper Fig. 3b).
///
/// `w` is the `q × p` lower-left block; the upper-right block is implied by
/// symmetry (`X = Wᵀ`), which is exactly the storage saving the paper notes
/// for the diagonal-`U` blocking.
///
/// # Errors
///
/// Returns [`MathError::SingularDiagonal`] when `u` has a zero entry and
/// [`MathError::DimensionMismatch`] when the block shapes disagree.
pub fn diag_schur_complement<T: Scalar>(
    u: &DiagMat<T>,
    w: &Matrix<T>,
    v: &Matrix<T>,
) -> Result<Matrix<T>> {
    if w.cols() != u.dim() || v.rows() != w.rows() || !v.is_square() {
        return Err(MathError::DimensionMismatch {
            op: "diag_schur",
            lhs: w.shape(),
            rhs: v.shape(),
        });
    }
    let u_inv = u.inverse()?;
    // w·u⁻¹ is a column scaling of w: O(q·p).
    let wu_inv = u_inv.mul_dense_right(w);
    // (w·u⁻¹)·wᵀ: O(q²·p) multiply-accumulates — the MAC workload of the
    // D-type Schur hardware block.
    let prod = wu_inv.try_mul(&w.transpose())?;
    Ok(v - &prod)
}

/// M-type Schur complement `a − λ·m⁻¹·λᵀ` with a generic SPD `m`
/// (paper Sec. 3.2.3).
///
/// # Errors
///
/// Returns [`MathError::NotPositiveDefinite`] when `m` is not SPD and
/// [`MathError::DimensionMismatch`] when the block shapes disagree.
pub fn dense_schur_complement<T: Scalar>(
    m: &Matrix<T>,
    lambda: &Matrix<T>,
    a: &Matrix<T>,
) -> Result<Matrix<T>> {
    if lambda.cols() != m.rows() || a.rows() != lambda.rows() || !a.is_square() {
        return Err(MathError::DimensionMismatch {
            op: "dense_schur",
            lhs: lambda.shape(),
            rhs: a.shape(),
        });
    }
    let m_inv = Cholesky::factor(m)?.inverse();
    let lm = lambda.try_mul(&m_inv)?;
    let prod = lm.try_mul(&lambda.transpose())?;
    Ok(a - &prod)
}

/// A blocked symmetric linear system `A·δp = b` solved by Schur elimination
/// with a diagonal leading block (paper Eq. 3–4).
///
/// ```
/// use archytas_math::{DMat, DVec, BlockSpec, SchurSystem};
///
/// // A = [diag(4,4)  X; Xᵀ  V] — the structure the M-DFG builder produces.
/// let a = DMat::from_rows(&[
///     &[4.0, 0.0, 1.0],
///     &[0.0, 4.0, 2.0],
///     &[1.0, 2.0, 6.0],
/// ]);
/// let b = DVec::from(vec![1.0, 2.0, 3.0]);
/// let sys = SchurSystem::new(&a, &b, BlockSpec::new(2, 3)?)?;
/// let x = sys.solve()?;
/// assert!((&a.mat_vec(&x) - &b).norm() < 1e-10);
/// # Ok::<(), archytas_math::MathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SchurSystem<T: Scalar> {
    u: DiagMat<T>,
    w: Matrix<T>,
    v: Matrix<T>,
    bx: Vector<T>,
    by: Vector<T>,
}

impl<T: Scalar> SchurSystem<T> {
    /// Blocks `a` and `b` at `spec`, requiring the leading block to be
    /// diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] on shape disagreements. The
    /// leading block's off-diagonal content is *not* validated here (the
    /// M-DFG builder guarantees it by construction); use
    /// [`Blocked2x2::leading_block_is_diagonal`] to check explicitly.
    pub fn new(a: &Matrix<T>, b: &Vector<T>, spec: BlockSpec) -> Result<Self> {
        let blocked = Blocked2x2::partition(a, spec)?;
        let (bx, by) = split_vector(b, spec)?;
        Ok(Self {
            u: DiagMat::from_dense_diagonal(&blocked.u),
            w: blocked.w,
            v: blocked.v,
            bx,
            by,
        })
    }

    /// Size of the diagonal (eliminated) block.
    pub fn p(&self) -> usize {
        self.u.dim()
    }

    /// Size of the reduced system.
    pub fn q(&self) -> usize {
        self.v.rows()
    }

    /// The reduced `q × q` Schur complement `V − W·U⁻¹·Wᵀ` and reduced
    /// right-hand side `by − W·U⁻¹·bx`.
    ///
    /// # Errors
    ///
    /// Propagates [`MathError::SingularDiagonal`] from the `U` inversion.
    pub fn reduced(&self) -> Result<(Matrix<T>, Vector<T>)> {
        let schur = diag_schur_complement(&self.u, &self.w, &self.v)?;
        let u_inv = self.u.inverse()?;
        let rhs = &self.by - &self.w.mat_vec(&u_inv.mul_vec(&self.bx));
        Ok((schur, rhs))
    }

    /// Solves the full system, returning `δp = [δpx; δpy]`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotPositiveDefinite`] when the reduced system is
    /// not SPD and [`MathError::SingularDiagonal`] when `U` is singular.
    pub fn solve(&self) -> Result<Vector<T>> {
        let (schur, rhs) = self.reduced()?;
        let dy = Cholesky::factor(&schur)?.solve(&rhs);
        // Back-substitute into the first block row: U·δpx = bx − Wᵀ·δpy.
        let u_inv = self.u.inverse()?;
        let wt_dy = self.w.transpose_mat_vec(&dy);
        let dx = u_inv.mul_vec(&(&self.bx - &wt_dy));
        Ok(dx.concat(&dy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    type M = Matrix<f64>;
    type V = Vector<f64>;

    /// SPD matrix with a diagonal leading p×p block.
    fn structured_spd(p: usize, q: usize) -> M {
        let n = p + q;
        let mut a = M::zeros(n, n);
        for i in 0..p {
            a.set(i, i, 4.0 + i as f64);
        }
        for i in 0..q {
            for j in 0..q {
                let v = if i == j {
                    8.0 + i as f64
                } else {
                    0.5 / (1.0 + (i as f64 - j as f64).abs())
                };
                a.set(p + i, p + j, v);
            }
        }
        for i in 0..p {
            for j in 0..q {
                let v = ((i * 3 + j) % 5) as f64 * 0.2 - 0.3;
                a.set(i, p + j, v);
                a.set(p + j, i, v);
            }
        }
        a
    }

    #[test]
    fn diag_schur_matches_dense_reference() {
        let a = structured_spd(4, 3);
        let spec = BlockSpec::new(4, 7).unwrap();
        let blocked = Blocked2x2::partition(&a, spec).unwrap();
        assert!(blocked.leading_block_is_diagonal(0.0));
        let u = DiagMat::from_dense_diagonal(&blocked.u);
        let fast = diag_schur_complement(&u, &blocked.w, &blocked.v).unwrap();
        // Reference: dense inversion path.
        let dense = dense_schur_complement(&blocked.u, &blocked.w, &blocked.v).unwrap();
        assert!((&fast - &dense).max_abs() < 1e-10);
    }

    #[test]
    fn schur_solve_matches_direct_cholesky() {
        let a = structured_spd(5, 4);
        let b: V = (0..9).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let spec = BlockSpec::new(5, 9).unwrap();
        let sys = SchurSystem::new(&a, &b, spec).unwrap();
        let x_schur = sys.solve().unwrap();
        let x_direct = Cholesky::factor(&a).unwrap().solve(&b);
        assert!((&x_schur - &x_direct).norm() < 1e-9);
        assert!((&a.mat_vec(&x_schur) - &b).norm() < 1e-9);
    }

    #[test]
    fn reduced_system_dimensions() {
        let a = structured_spd(3, 2);
        let b = V::zeros(5);
        let sys = SchurSystem::new(&a, &b, BlockSpec::new(3, 5).unwrap()).unwrap();
        assert_eq!(sys.p(), 3);
        assert_eq!(sys.q(), 2);
        let (s, rhs) = sys.reduced().unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(rhs.len(), 2);
    }

    #[test]
    fn dense_schur_on_spd_m() {
        // M-type: marginalize a 2-dim SPD block out of a 5-dim system.
        let full = structured_spd(0, 5); // fully dense SPD
        let m = full.submatrix(0, 0, 2, 2);
        let lambda = full.submatrix(2, 0, 3, 2);
        let a = full.submatrix(2, 2, 3, 3);
        let s = dense_schur_complement(&m, &lambda, &a).unwrap();
        // The Schur complement of an SPD matrix is SPD.
        assert!(Cholesky::factor(&s).is_ok());
        assert!(s.is_symmetric(1e-10));
    }

    #[test]
    fn singular_u_is_reported() {
        let mut a = structured_spd(2, 2);
        a.set(0, 0, 0.0);
        let sys = SchurSystem::new(&a, &V::zeros(4), BlockSpec::new(2, 4).unwrap()).unwrap();
        assert!(matches!(
            sys.solve(),
            Err(MathError::SingularDiagonal { index: 0 })
        ));
    }

    #[test]
    fn shape_validation() {
        let u = DiagMat::new(vec![1.0, 2.0]);
        let w = M::zeros(3, 2);
        let v = M::zeros(2, 2); // wrong: must be 3x3
        assert!(diag_schur_complement(&u, &w, &v).is_err());
    }
}
