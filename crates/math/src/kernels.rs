//! Slice micro-kernels for the solver hot path.
//!
//! Every routine here is a flat loop over contiguous slices with the bounds
//! checks hoisted, shaped so LLVM's autovectorizer can emit SIMD for the
//! independent-element cases. They exist to give the block-sparse assembler,
//! the Schur elimination and the Cholesky update *one* shared, auditable set
//! of inner loops instead of N slightly-different open-coded variants.
//!
//! # Bit-identity rules
//!
//! The callers of these kernels promise bit-identical results across code
//! paths (dense vs. block-sparse, blocked vs. unblocked — see the
//! `block_sparse` module docs), so each kernel documents its floating-point
//! contract precisely:
//!
//! - Elementwise-independent updates (`add_scaled*`, `sub_scaled*`) perform
//!   exactly one rounding per element per source row, with a fixed operand
//!   order (`dst[i] op scale * src[i]`). Fusing several source rows into one
//!   traversal keeps the per-element operation *sequence* of the unfused
//!   calls, so the stored bits cannot change.
//! - No kernel reassociates a reduction; anything that sums across elements
//!   stays with its caller.
//!
//! The zero-skip variants replicate the assembler's `v != 0` guard: skipped
//! contributions are exact no-ops on the destination (see
//! [`BlockSparseSystem::add_v_row`](crate::BlockSparseSystem::add_v_row)
//! for why `±0.0` additions are bit-safe there), but the guard is part of
//! the replayed operation sequence, so the kernels keep it rather than
//! reason about it per call site. The guard is *evaluated branchlessly* (candidate
//! multiply-add plus a select, see [`crate::fixed`] module docs for the
//! bit-identity argument) so the loop body stays branch-free for the
//! autovectorizer.
//!
//! # Fixed-width dispatch
//!
//! The SLAM layout's run widths are compile-time constants — `6` (the
//! pose-tangent `W` block height) and `15` (the full keyframe state) — so
//! the zero-skip kernels dispatch those lengths to the fully unrolled
//! const-generic forms in [`crate::fixed`] and keep the runtime-width loop
//! as the fallback for every other run length (a row of the prior, a tail
//! of an IMU run). Both forms replay the identical per-element operation
//! sequence, so dispatch is invisible in the stored bits — the
//! `kernel_equivalence` proptests pin this.

use crate::fixed;
use crate::scalar::Scalar;

/// `dst[i] += s * src[i]` for every element — no zero skip.
///
/// One multiply-add per element, operand order `s * src[i]` first, then the
/// add (the dense product's inner loop). `src` must be at least as long as
/// `dst`.
#[inline(always)]
pub fn add_scaled<T: Scalar>(dst: &mut [T], src: &[T], s: T) {
    if dst.len() == 6 {
        return fixed::Vec::<T, 6>::from_mut_slice(dst).axpy(fixed::Vec::from_slice(src), s);
    }
    let n = dst.len();
    let src = &src[..n];
    for i in 0..n {
        dst[i] += s * src[i];
    }
}

/// Applies every `(src, s)` row, in iteration order, to `dst` exactly as
/// sequential [`add_scaled`] calls would (`dst[i] += s * src[i]`, no zero
/// skip), four rows per traversal through [`fixed::add_scaled_panel`]. Per
/// element the multiply-adds keep their sequence, so the result is
/// bit-identical to the sequential calls. Each `src` must be at least as
/// long as `dst`.
#[inline]
pub fn add_scaled_rows<'a, T: Scalar + 'a>(
    dst: &mut [T],
    rows: impl IntoIterator<Item = (&'a [T], T)>,
) {
    let mut srcs: [&[T]; 4] = [&[]; 4];
    let mut s = [T::ZERO; 4];
    let mut k = 0;
    for (src, sk) in rows {
        srcs[k] = src;
        s[k] = sk;
        k += 1;
        if k == 4 {
            fixed::add_scaled_panel(dst, &srcs, &s);
            k = 0;
        }
    }
    for j in 0..k {
        add_scaled(dst, srcs[j], s[j]);
    }
}

/// `dst[i] += s * src[i]` for every element with `src[i] != 0` — the
/// contiguous-run scatter write of the normal-equation assemblers.
#[inline(always)]
pub fn add_scaled_skip<T: Scalar>(dst: &mut [T], src: &[T], s: T) {
    match dst.len() {
        6 => fixed::Vec::<T, 6>::from_mut_slice(dst).axpy_skip(fixed::Vec::from_slice(src), s),
        15 => fixed::Vec::<T, 15>::from_mut_slice(dst).axpy_skip(fixed::Vec::from_slice(src), s),
        n => {
            let src = &src[..n];
            for i in 0..n {
                let v = src[i];
                let cand = dst[i] + s * v;
                dst[i] = if v != T::ZERO { cand } else { dst[i] };
            }
        }
    }
}

/// Fused many-row form of [`add_scaled_skip`]: applies every `(src, s)`
/// source row, in slice order, to each element in one traversal.
///
/// Bit-identical to calling [`add_scaled_skip`] once per row in the same
/// order (each destination element receives the same guarded multiply-adds
/// in the same sequence); the destination cache line is loaded once per
/// element instead of once per row.
#[inline(always)]
pub fn add_scaled_skip_rows<T: Scalar>(dst: &mut [T], rows: &[(&[T], T)]) {
    match dst.len() {
        6 => fixed::Vec::<T, 6>::from_mut_slice(dst).axpy_skip_rows(rows),
        15 => fixed::Vec::<T, 15>::from_mut_slice(dst).axpy_skip_rows(rows),
        n => {
            for i in 0..n {
                let mut acc = dst[i];
                for &(src, s) in rows {
                    let v = src[i];
                    let cand = acc + s * v;
                    acc = if v != T::ZERO { cand } else { acc };
                }
                dst[i] = acc;
            }
        }
    }
}

/// `dst[i] = dst[i] - src[i] * a` for every element — the Cholesky Update
/// phase's rank-1 row operation (`S_j ← S_j − l_k·l_jk`), operand order
/// `src[i] * a` then the subtract, matching the textbook serial loop.
#[inline]
pub fn sub_scaled<T: Scalar>(dst: &mut [T], src: &[T], a: T) {
    let n = dst.len();
    let src = &src[..n];
    for i in 0..n {
        dst[i] -= src[i] * a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic, scale-diverse values with a sprinkling of zeros.
        (0..n)
            .map(|i| {
                let x = ((i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
                    >> 33) as f64
                    / 4.0e9
                    - 0.25;
                if i % 7 == 3 {
                    0.0
                } else {
                    x * (10.0f64).powi((i % 5) as i32 - 2)
                }
            })
            .collect()
    }

    #[test]
    fn add_scaled_matches_scalar_loop() {
        let src = vals(33, 7);
        let mut dst = vals(33, 11);
        let mut reference = dst.clone();
        add_scaled(&mut dst, &src, 1.7);
        for (r, &v) in reference.iter_mut().zip(&src) {
            *r += 1.7 * v;
        }
        assert_eq!(dst, reference);
    }

    #[test]
    fn skip_rows_matches_sequential_calls() {
        let srcs: Vec<Vec<f64>> = (0..15).map(|k| vals(15, 100 + k)).collect();
        let scales: Vec<f64> = (0..15).map(|k| 0.1 * k as f64 - 0.7).collect();
        let rows: Vec<(&[f64], f64)> = srcs
            .iter()
            .zip(&scales)
            .map(|(s, &a)| (s.as_slice(), a))
            .collect();
        let mut fused = vals(15, 999);
        let mut seq = fused.clone();
        add_scaled_skip_rows(&mut fused, &rows);
        for &(src, a) in &rows {
            add_scaled_skip(&mut seq, src, a);
        }
        for (f, s) in fused.iter().zip(&seq) {
            assert_eq!(f.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn works_in_f32() {
        let src: Vec<f32> = vals(12, 4).iter().map(|&v| v as f32).collect();
        let mut dst: Vec<f32> = vals(12, 6).iter().map(|&v| v as f32).collect();
        let mut reference = dst.clone();
        sub_scaled(&mut dst, &src, 0.5f32);
        for (r, &v) in reference.iter_mut().zip(&src) {
            *r -= v * 0.5;
        }
        assert_eq!(dst, reference);
    }
}
