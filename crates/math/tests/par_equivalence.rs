//! Serial oracles for the dense `archytas-math` hot paths: the product and
//! Gram kernels must equal naive reference loops bit for bit. The references
//! spell out the accumulation order the kernels promise (i-k-j with the same
//! zero-skip), so any reordering inside a kernel shows up as a bit
//! difference. The Cholesky oracle lives in `kernel_equivalence.rs`.

use archytas_math::{DMat, DVec, Scalar};
use proptest::prelude::*;

fn bits(m: &DMat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Deterministic pseudo-random fill (SplitMix64-style) so proptest only has
/// to draw shapes and a seed, not whole buffers.
fn fill(rows: usize, cols: usize, seed: u64) -> DMat {
    DMat::from_fn(rows, cols, |i, j| {
        let mut z = seed
            .wrapping_add((i as u64) << 32 | j as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((z >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
    })
}

/// `a` with every third entry (by a seed-shifted diagonal pattern) zeroed,
/// so the zero-skip guards take both branches.
fn sparsify(mut a: DMat, seed: u64) -> DMat {
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            if (i + j + seed as usize).is_multiple_of(3) {
                a.set(i, j, f64::ZERO);
            }
        }
    }
    a
}

/// `a·b` in i-k-j order, skipping zero multiplicands of `a`.
fn naive_mul(a: &DMat, b: &DMat) -> DMat {
    let mut out = DMat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let x = a.get(i, k);
            if x == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out.set(i, j, out.get(i, j) + x * b.get(k, j));
            }
        }
    }
    out
}

/// `aᵀ·a`: upper triangle in i-k-j order (skipping zero `a[k][i]`), then
/// mirrored.
fn naive_gram(a: &DMat) -> DMat {
    let n = a.cols();
    let mut out = DMat::zeros(n, n);
    for i in 0..n {
        for k in 0..a.rows() {
            let x = a.get(k, i);
            if x == 0.0 {
                continue;
            }
            for j in i..n {
                out.set(i, j, out.get(i, j) + x * a.get(k, j));
            }
        }
    }
    for i in 0..n {
        for j in 0..i {
            out.set(i, j, out.get(j, i));
        }
    }
    out
}

#[test]
fn mul_matches_serial_oracle() {
    let a = sparsify(fill(67, 45, 1), 1);
    let b = fill(45, 53, 2);
    assert_eq!(bits(&a.try_mul(&b).unwrap()), bits(&naive_mul(&a, &b)));
}

#[test]
fn gram_matches_serial_oracle() {
    let a = sparsify(fill(91, 40, 3), 3);
    assert_eq!(bits(&a.gram()), bits(&naive_gram(&a)));
}

#[test]
fn transpose_mat_vec_matches_explicit_transpose() {
    let a = fill(33, 21, 5);
    let v: DVec = (0..33).map(|i| (i as f64 * 0.37).cos()).collect();
    let fused = a.transpose_mat_vec(&v);
    let explicit = a.transpose().mat_vec(&v);
    let close = fused
        .as_slice()
        .iter()
        .zip(explicit.as_slice())
        .all(|(x, y)| (x - y).abs() <= 1e-12 * (1.0 + y.abs()));
    assert!(close);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mul_oracle_random_shapes(
        (r, k, c) in (1usize..28, 1usize..28, 1usize..28),
        seed in 0u64..1_000_000,
    ) {
        let a = fill(r, k, seed);
        let b = fill(k, c, seed ^ 0xDEAD_BEEF);
        prop_assert_eq!(bits(&a.try_mul(&b).unwrap()), bits(&naive_mul(&a, &b)));
    }

    #[test]
    fn gram_oracle_random_shapes(
        (r, c) in (1usize..40, 1usize..32),
        seed in 0u64..1_000_000,
    ) {
        let a = fill(r, c, seed);
        let g = a.gram();
        prop_assert_eq!(g.shape(), (c, c));
        prop_assert_eq!(bits(&g), bits(&naive_gram(&a)));
    }

    #[test]
    fn zero_skip_never_changes_results(r in 1usize..20, c in 1usize..20, seed in 0u64..1000) {
        // Skipping a zero multiplicand must equal accumulating `0·b`.
        let a = sparsify(fill(r, c, seed), seed);
        let b = fill(c, r, seed ^ 0x5EED);
        let mut full = DMat::zeros(r, r);
        for i in 0..r {
            for k in 0..c {
                for j in 0..r {
                    full.set(i, j, full.get(i, j) + a.get(i, k) * b.get(k, j));
                }
            }
        }
        prop_assert_eq!(bits(&a.try_mul(&b).unwrap()), bits(&full));
        prop_assert_eq!(bits(&a.gram()), bits(&naive_gram(&a)));
    }
}
