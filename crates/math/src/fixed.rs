//! Const-generic fixed-size block types and fully unrolled micro-kernels.
//!
//! The sliding-window factor graph has a *fixed, known-at-design-time* block
//! structure — `stride = 15` state columns, `kb = 6` pose-tangent rows per
//! `W` block, scalar inverse-depth landmarks — and Archytas's synthesized
//! accelerators win precisely by specializing datapaths to those widths
//! (paper Sec. 4–5). This module is the software analogue: [`Vec`] wraps
//! `[F; N]` behind `#[repr(transparent)]` so a slice of a larger row can be
//! reinterpreted as a fixed-width block in place, and every kernel below
//! runs over compile-time trip counts that LLVM fully unrolls and
//! autovectorizes.
//!
//! # Bit-identity rules
//!
//! These kernels are drop-in replacements for the runtime-width forms in
//! [`crate::kernels`], dispatched when a run's length matches the SLAM
//! layout. They must therefore replay the slice kernels' per-element
//! floating-point operation sequence exactly:
//!
//! - The zero-skip forms compute the guarded multiply-add *branchlessly*:
//!   the candidate `acc + s·v` is always evaluated, and a select keeps the
//!   old `acc` when `v == 0`. A skipped element's stored bits are untouched
//!   (exactly as if the branch had been taken) and a kept element's value is
//!   the identical single-rounded multiply-add, so the result is
//!   bit-identical to the branchy form while the loop body stays
//!   branch-free for the vectorizer.
//! - Fused many-row forms traverse row-major (all elements of source row 0,
//!   then row 1, …) over an accumulator array instead of element-major.
//!   Each destination element still receives its guarded multiply-adds in
//!   ascending row order — the per-element sequence is unchanged, only the
//!   interleaving *between* independent elements differs — so the stored
//!   bits cannot change.
//! - [`syrk_scatter`] performs exactly one multiply-add per destination cell
//!   per call; with at most one operation per cell the loop nesting order is
//!   bit-free, and callers keep cross-call (per-landmark) ordering.
//! - No kernel reassociates a reduction.

use crate::scalar::Scalar;

/// Fixed-length vector view: a `#[repr(transparent)]` wrapper over `[F; N]`
/// so that an `N`-long prefix of any slice can be reinterpreted as a
/// fixed-width block without copying (the cooper-style column trick).
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec<F, const N: usize>(pub [F; N]);

impl<F: Scalar, const N: usize> Vec<F, N> {
    /// Reinterprets the first `N` elements of `s` as a fixed-width vector.
    ///
    /// # Panics
    ///
    /// Panics when `s.len() < N`.
    #[inline(always)]
    pub fn from_slice(s: &[F]) -> &Self {
        let arr: &[F; N] = (&s[..N]).try_into().unwrap();
        // SAFETY: repr(transparent) over [F; N].
        unsafe { &*(arr as *const [F; N] as *const Self) }
    }

    /// Mutable form of [`Vec::from_slice`].
    ///
    /// # Panics
    ///
    /// Panics when `s.len() < N`.
    #[inline(always)]
    pub fn from_mut_slice(s: &mut [F]) -> &mut Self {
        let arr: &mut [F; N] = (&mut s[..N]).try_into().unwrap();
        // SAFETY: repr(transparent) over [F; N].
        unsafe { &mut *(arr as *mut [F; N] as *mut Self) }
    }

    /// `self[i] += s * src[i]` — [`crate::kernels::add_scaled`] at width `N`.
    #[inline(always)]
    pub fn axpy(&mut self, src: &Self, s: F) {
        for i in 0..N {
            self.0[i] += s * src.0[i];
        }
    }

    /// `self[i] += src[i] * s` — the source-first operand order of the
    /// reduced-RHS sweep (`racc[r] += w·s2`). Multiplication order is kept
    /// distinct from [`Vec::axpy`] so each call site replays its slice
    /// predecessor's operand order exactly.
    #[inline(always)]
    pub fn axpy_src_s(&mut self, src: &Self, s: F) {
        for i in 0..N {
            self.0[i] += src.0[i] * s;
        }
    }

    /// Branchless fixed-width [`crate::kernels::add_scaled_skip`]:
    /// `self[i] += s * src[i]` wherever `src[i] != 0`, bit-identical to the
    /// guarded loop (see module docs).
    #[inline(always)]
    pub fn axpy_skip(&mut self, src: &Self, s: F) {
        for i in 0..N {
            let v = src.0[i];
            let cand = self.0[i] + s * v;
            self.0[i] = if v != F::ZERO { cand } else { self.0[i] };
        }
    }

    /// Fused pair form of [`Vec::axpy_skip`]: row 0's guarded multiply-add
    /// then row 1's, per element, in one traversal — bit-identical to two
    /// sequential [`crate::kernels::add_scaled_skip`] calls.
    #[inline(always)]
    pub fn axpy_skip2(&mut self, src0: &Self, s0: F, src1: &Self, s1: F) {
        for i in 0..N {
            let mut acc = self.0[i];
            let v0 = src0.0[i];
            let c0 = acc + s0 * v0;
            acc = if v0 != F::ZERO { c0 } else { acc };
            let v1 = src1.0[i];
            let c1 = acc + s1 * v1;
            acc = if v1 != F::ZERO { c1 } else { acc };
            self.0[i] = acc;
        }
    }

    /// Guarded fold for the `Wᵀ·δpy` gather of the back-substitution:
    /// returns `acc` after adding `self[i]·w[i]` for every `w[i] != 0`, in
    /// ascending element order. A reduction's accumulation order is part of
    /// its bits, so the chain stays serial; only the skip guard is evaluated
    /// branchlessly (the discarded candidate cannot perturb `acc`, see the
    /// module docs), which removes the data-dependent branch of the slice
    /// loop without touching its rounding sequence.
    #[inline(always)]
    pub fn dot_skip_fold(&self, w: &Self, mut acc: F) -> F {
        for i in 0..N {
            let v = w.0[i];
            let cand = acc + self.0[i] * v;
            acc = if v != F::ZERO { cand } else { acc };
        }
        acc
    }

    /// Branchless fixed-width [`crate::kernels::add_scaled_skip_rows`]:
    /// applies every `(src, s)` source row, in slice order, to each element.
    ///
    /// Traverses row-major over a register-resident accumulator copy of the
    /// destination (the element-major slice form would reload `dst` per
    /// element); per destination element the guarded multiply-adds still
    /// arrive in ascending row order, so the stored bits match the slice
    /// kernel exactly.
    ///
    /// # Panics
    ///
    /// Panics when any source row is shorter than `N`.
    #[inline(always)]
    pub fn axpy_skip_rows(&mut self, rows: &[(&[F], F)]) {
        let mut acc = self.0;
        for &(src, s) in rows {
            let src: &[F; N] = (&src[..N]).try_into().unwrap();
            for i in 0..N {
                let v = src[i];
                let cand = acc[i] + s * v;
                acc[i] = if v != F::ZERO { cand } else { acc[i] };
            }
        }
        self.0 = acc;
    }
}

/// Rank-`K` block-scatter SYRK update — the landmark-major Schur elimination
/// inner kernel at the sliding window's `kb = K` block height.
///
/// For one `K`-high `W` block row (scales `s[t] = w[t]·u⁻¹` precomputed by
/// the caller), adds `s[t] · w_block[bj]` into row `t` of `block_rows` at
/// every block column `c0 = cols[bj]`; `block_rows` is the `K` consecutive
/// destination rows (`pitch` elements each, contiguous).
///
/// Loop order is block-column-major (each `K`-wide source block is loaded
/// once and applied to all `K` destination rows) while the slice predecessor
/// is row-major; every destination cell receives exactly *one* multiply-add
/// per call either way — same operands, same single rounding — so the
/// interchange cannot change stored bits. Rows with `s[t] == 0` are skipped
/// exactly as the slice path's `continue` does.
///
/// # Panics
///
/// Panics when `block_rows` is shorter than `K·pitch`, a column run leaves a
/// row, or `vals` is shorter than `cols.len()·K`.
#[inline]
pub fn syrk_scatter<F: Scalar, const K: usize>(
    block_rows: &mut [F],
    pitch: usize,
    s: &[F; K],
    cols: &[u32],
    vals: &[F],
) {
    assert!(block_rows.len() >= K * pitch);
    for (bj, &c0) in cols.iter().enumerate() {
        let src = *Vec::<F, K>::from_slice(&vals[bj * K..]);
        let c0 = c0 as usize;
        for t in 0..K {
            if s[t] == F::ZERO {
                continue;
            }
            Vec::<F, K>::from_mut_slice(&mut block_rows[t * pitch + c0..]).axpy(&src, s[t]);
        }
    }
}

/// Fused rank-`K` accumulation — `K` sequential [`crate::kernels::add_scaled`]
/// calls in one traversal of `dst`.
///
/// Per element the `K` multiply-adds happen in slice order (`w += a[0]·srcs[0]`,
/// then `a[1]·srcs[1]`, …), each with its own rounding and no zero skip, so
/// the result is bit-identical to the sequential calls while `dst` is loaded
/// and stored once instead of `K` times.
#[inline]
pub fn add_scaled_panel<F: Scalar, const K: usize>(dst: &mut [F], srcs: &[&[F]; K], a: &[F; K]) {
    let n = dst.len();
    let srcs: [&[F]; K] = core::array::from_fn(|k| &srcs[k][..n]);
    for i in 0..n {
        let mut w = dst[i];
        for k in 0..K {
            w += a[k] * srcs[k][i];
        }
        dst[i] = w;
    }
}

/// Fused rank-`K` trailing-update kernel of the blocked Cholesky: `K`
/// [`crate::kernels::sub_scaled`] calls in one traversal.
///
/// Per element the `K` subtractions happen sequentially in slice order
/// (`w −= srcs[0]·a[0]`, then `srcs[1]·a[1]`, …), each with its own rounding
/// and the operand order `src·a` of [`crate::kernels::sub_scaled`], so a
/// panel of any width stays bit-identical to the unblocked
/// column-at-a-time loop.
#[inline]
pub fn sub_scaled_panel<F: Scalar, const K: usize>(dst: &mut [F], srcs: &[&[F]; K], a: &[F; K]) {
    let n = dst.len();
    for i in 0..n {
        let mut w = dst[i];
        for k in 0..K {
            w -= srcs[k][i] * a[k];
        }
        dst[i] = w;
    }
}

/// [`sub_scaled_panel`] on two consecutive trailing rows of the blocked
/// Cholesky at once, sharing each source load between them.
///
/// `dst0` is row `j` of the transposed trailing block from its diagonal on
/// (`n` elements) and `dst1` row `j + 1` from its diagonal on (`n − 1`
/// elements), so `dst1[t − 1]` sits above `dst0[t]` and both read
/// `srcs[k][t]`. Each element gets exactly the subtraction sequence of its
/// own [`sub_scaled_panel`] call (`a0` for row `j`, `a1` for row `j + 1`),
/// so the pair is bit-identical to the two calls.
///
/// # Panics
///
/// Panics when `dst0` is empty, `dst1` is shorter than `dst0.len() − 1`, or
/// a source is shorter than `dst0`.
#[inline]
pub fn sub_scaled_panel_pair<F: Scalar, const K: usize>(
    dst0: &mut [F],
    dst1: &mut [F],
    srcs: &[&[F]; K],
    a0: &[F; K],
    a1: &[F; K],
) {
    let n = dst0.len();
    let srcs: [&[F]; K] = core::array::from_fn(|k| &srcs[k][..n]);
    let dst1 = &mut dst1[..n - 1];
    let mut w = dst0[0];
    for k in 0..K {
        w -= srcs[k][0] * a0[k];
    }
    dst0[0] = w;
    for t in 1..n {
        let mut x = dst0[t];
        let mut y = dst1[t - 1];
        for k in 0..K {
            let s = srcs[k][t];
            x -= s * a0[k];
            y -= s * a1[k];
        }
        dst0[t] = x;
        dst1[t - 1] = y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    fn vals(n: usize, seed: u64) -> std::vec::Vec<f64> {
        (0..n)
            .map(|i| {
                let x = ((i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
                    >> 33) as f64
                    / 4.0e9
                    - 0.25;
                if i % 5 == 2 {
                    0.0
                } else {
                    x * (10.0f64).powi((i % 7) as i32 - 3)
                }
            })
            .collect()
    }

    fn assert_bits(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn view_roundtrip_is_in_place() {
        let mut s = vals(10, 1);
        let orig = s.clone();
        let v = Vec::<f64, 6>::from_mut_slice(&mut s);
        v.0[3] += 1.0;
        assert_eq!(s[3], orig[3] + 1.0);
        assert_eq!(s[6..], orig[6..]);
    }

    #[test]
    fn axpy_skip_matches_guarded_slice_kernel() {
        let src = vals(6, 3);
        let mut a = vals(6, 9);
        let mut b = a.clone();
        kernels::add_scaled_skip(&mut a, &src, -1.3);
        Vec::<f64, 6>::from_mut_slice(&mut b).axpy_skip(Vec::from_slice(&src), -1.3);
        assert_bits(&a, &b);
    }

    #[test]
    fn axpy_skip_discards_nonfinite_candidates() {
        // s non-finite and v == 0: the branchy kernel skips, so the
        // branchless select must discard the NaN candidate it computed.
        let src = [0.0, 2.0, -0.0];
        let mut a = [1.0, 1.0, 1.0];
        Vec::<f64, 3>::from_mut_slice(&mut a).axpy_skip(Vec::from_slice(&src), f64::INFINITY);
        assert_eq!(a[0], 1.0);
        assert_eq!(a[1], f64::INFINITY);
        assert_eq!(a[2], 1.0);
    }

    #[test]
    fn dot_skip_fold_matches_guarded_loop() {
        let w = vals(6, 13);
        let v = vals(6, 17);
        let mut acc = 0.375;
        let folded = Vec::<f64, 6>::from_slice(&v).dot_skip_fold(Vec::from_slice(&w), acc);
        for t in 0..6 {
            if w[t] == 0.0 {
                continue;
            }
            acc += v[t] * w[t];
        }
        assert_eq!(folded.to_bits(), acc.to_bits());
    }

    #[test]
    fn axpy_skip2_matches_slice_kernel() {
        let s0 = vals(15, 4);
        let s1 = vals(15, 5);
        let mut a = vals(15, 11);
        let mut b = a.clone();
        kernels::add_scaled_skip(&mut a, &s0, 0.7);
        kernels::add_scaled_skip(&mut a, &s1, -0.2);
        Vec::<f64, 15>::from_mut_slice(&mut b).axpy_skip2(
            Vec::from_slice(&s0),
            0.7,
            Vec::from_slice(&s1),
            -0.2,
        );
        assert_bits(&a, &b);
    }

    #[test]
    fn axpy_skip_rows_matches_slice_kernel() {
        let srcs: std::vec::Vec<std::vec::Vec<f64>> = (0..9).map(|k| vals(15, 40 + k)).collect();
        let rows: std::vec::Vec<(&[f64], f64)> = srcs
            .iter()
            .enumerate()
            .map(|(k, s)| (s.as_slice(), 0.3 * k as f64 - 1.1))
            .collect();
        let mut a = vals(15, 77);
        let mut b = a.clone();
        kernels::add_scaled_skip_rows(&mut a, &rows);
        Vec::<f64, 15>::from_mut_slice(&mut b).axpy_skip_rows(&rows);
        assert_bits(&a, &b);
    }

    #[test]
    fn syrk_scatter_matches_row_major_slice_loop() {
        // One landmark's rank-1 block update, replayed both ways.
        let pitch = 20;
        let cols: [u32; 3] = [0, 6, 12];
        let vals_ = vals(18, 8);
        let s = [0.5, 0.0, -1.5, 2.0, 0.25, -0.125];
        let mut a = vals(6 * pitch, 21);
        let mut b = a.clone();
        // Slice predecessor: row-major with the kb == 6 unroll.
        for (t, &st) in s.iter().enumerate() {
            if st == 0.0 {
                continue;
            }
            let prow = &mut a[t * pitch..(t + 1) * pitch];
            for (bj, &c0) in cols.iter().enumerate() {
                let c0 = c0 as usize;
                kernels::add_scaled(&mut prow[c0..c0 + 6], &vals_[bj * 6..], st);
            }
        }
        syrk_scatter::<f64, 6>(&mut b, pitch, &s, &cols, &vals_);
        assert_bits(&a, &b);
    }

    #[test]
    fn sub_scaled_panel_matches_sequential_calls() {
        let srcs: std::vec::Vec<std::vec::Vec<f64>> = (0..8).map(|k| vals(33, 60 + k)).collect();
        let refs: std::vec::Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
        let a: [f64; 8] = core::array::from_fn(|k| 0.4 * k as f64 - 1.3);
        let mut fused = vals(33, 91);
        let mut seq = fused.clone();
        sub_scaled_panel::<f64, 8>(&mut fused, refs.as_slice().try_into().unwrap(), &a);
        for k in 0..8 {
            kernels::sub_scaled(&mut seq, &srcs[k], a[k]);
        }
        assert_bits(&fused, &seq);
    }
}
