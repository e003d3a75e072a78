//! Property-based bitwise-equivalence suite for the solver micro-kernels.
//!
//! The hot-path rewrite replaced open-coded inner loops with the fused /
//! blocked kernels in [`archytas_math::kernels`], promising *bit-identical*
//! results to the paths they replaced. These properties stress that promise
//! over random shapes (including empty and sub-`PANEL` edge cases), operand
//! sets with a deliberate mass of exact zeros (so every zero-skip guard
//! fires), and overlapping scatter destinations.

use archytas_math::fixed::{self, sub_scaled_panel, syrk_scatter};
use archytas_math::kernels::{
    add_scaled, add_scaled_rows, add_scaled_skip, add_scaled_skip_rows, sub_scaled,
};
use archytas_math::{
    BlockSparseSystem, Cholesky, DMat, DVec, MathError, Matrix, Scalar, SchurScratch, Vector,
    W_BLOCK_PITCH, W_BLOCK_ROWS,
};
use proptest::prelude::*;

/// Kernel operand values: signed, scale-diverse, with a deliberate mass of
/// exact zeros so the zero-skip guards actually take both branches.
fn val() -> impl Strategy<Value = f64> {
    (0u8..6, -10.0..10.0f64).prop_map(|(sel, v)| match sel {
        0 => 0.0,
        5 => v * 1e-7,
        _ => v,
    })
}

fn vals(n: impl Into<proptest::collection::SizeRange>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(val(), n)
}

fn assert_bits_eq(actual: &[f64], expected: &[f64]) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(actual.len(), expected.len());
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        prop_assert!(
            a.to_bits() == e.to_bits(),
            "element {} differs: {} vs {}",
            i,
            a,
            e
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fused many-row scatter == sequential guarded scatters, in row order —
    /// every source row aliases the same destination element.
    #[test]
    fn skip_rows_matches_sequential_bitwise(
        (dst, srcs, scales) in (0usize..=24, 0usize..=8).prop_flat_map(|(n, rows)| {
            (vals(n), proptest::collection::vec(vals(n), rows), vals(rows))
        })
    ) {
        let rows: Vec<(&[f64], f64)> = srcs
            .iter()
            .zip(&scales)
            .map(|(s, &a)| (s.as_slice(), a))
            .collect();
        let mut fused = dst.clone();
        let mut seq = dst;
        add_scaled_skip_rows(&mut fused, &rows);
        for &(src, a) in &rows {
            add_scaled_skip(&mut seq, src, a);
        }
        assert_bits_eq(&fused, &seq)?;
    }
}

/// Pins every `fixed::Vec` form at width `N` against the open-coded scalar
/// loop it replaced (written out here rather than routed through
/// `kernels::*`, whose length dispatch would make the comparison
/// tautological at the fixed widths).
fn check_fixed_vec_forms<const N: usize>(
    dst: &[f64],
    s0: &[f64],
    s1: &[f64],
    a0: f64,
    a1: f64,
    acc0: f64,
) -> std::result::Result<(), TestCaseError> {
    // axpy: dst[i] += a0 * s0[i].
    let mut got = dst.to_vec();
    let mut want = dst.to_vec();
    fixed::Vec::<f64, N>::from_mut_slice(&mut got).axpy(fixed::Vec::from_slice(s0), a0);
    for i in 0..N {
        want[i] += a0 * s0[i];
    }
    assert_bits_eq(&got, &want)?;

    // axpy_src_s: the source-first operand order dst[i] += s0[i] * a0.
    let mut got = dst.to_vec();
    let mut want = dst.to_vec();
    fixed::Vec::<f64, N>::from_mut_slice(&mut got).axpy_src_s(fixed::Vec::from_slice(s0), a0);
    for i in 0..N {
        want[i] += s0[i] * a0;
    }
    assert_bits_eq(&got, &want)?;

    // axpy_skip: the branchless select vs the guarded branch.
    let mut got = dst.to_vec();
    let mut want = dst.to_vec();
    fixed::Vec::<f64, N>::from_mut_slice(&mut got).axpy_skip(fixed::Vec::from_slice(s0), a0);
    for i in 0..N {
        if s0[i] != 0.0 {
            want[i] += a0 * s0[i];
        }
    }
    assert_bits_eq(&got, &want)?;

    // axpy_skip2: fused pair vs two sequential guarded sweeps.
    let mut got = dst.to_vec();
    let mut want = dst.to_vec();
    fixed::Vec::<f64, N>::from_mut_slice(&mut got).axpy_skip2(
        fixed::Vec::from_slice(s0),
        a0,
        fixed::Vec::from_slice(s1),
        a1,
    );
    for (src, a) in [(s0, a0), (s1, a1)] {
        for i in 0..N {
            if src[i] != 0.0 {
                want[i] += a * src[i];
            }
        }
    }
    assert_bits_eq(&got, &want)?;

    // axpy_skip_rows: fused many-row vs sequential guarded sweeps in order.
    let rows: [(&[f64], f64); 2] = [(s0, a0), (s1, a1)];
    let mut got = dst.to_vec();
    let want_rows = want; // seeded by the skip2 reference above — same math
    fixed::Vec::<f64, N>::from_mut_slice(&mut got).axpy_skip_rows(&rows);
    assert_bits_eq(&got, &want_rows)?;

    // dot_skip_fold: branchless-guard serial reduction vs the guarded loop.
    let got = fixed::Vec::<f64, N>::from_slice(s0).dot_skip_fold(fixed::Vec::from_slice(s1), acc0);
    let mut want = acc0;
    for i in 0..N {
        if s1[i] != 0.0 {
            want += s0[i] * s1[i];
        }
    }
    prop_assert!(
        got.to_bits() == want.to_bits(),
        "fold differs: {} vs {}",
        got,
        want
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `fixed::Vec` micro-kernel form at the two deployed widths (6 =
    /// pose-tangent runs, 15 = keyframe state) equals its open-coded scalar
    /// predecessor bitwise.
    #[test]
    fn fixed_vec_forms_match_scalar_bitwise(
        ((d6, x6, y6), (d15, x15, y15), (a0, a1, acc)) in
            ((vals(6usize), vals(6usize), vals(6usize)),
             (vals(15usize), vals(15usize), vals(15usize)),
             (val(), val(), val()))
    ) {
        check_fixed_vec_forms::<6>(&d6, &x6, &y6, a0, a1, acc)?;
        check_fixed_vec_forms::<15>(&d15, &x15, &y15, a0, a1, acc)?;
    }

    /// The block-column-major rank-6 SYRK scatter equals the row-major slice
    /// replay bitwise: one multiply-add per destination cell either way, so
    /// the loop interchange cannot move bits.
    #[test]
    fn syrk_scatter_matches_row_major_replay_bitwise(
        (stride, blocks, s, vals_flat, rows) in
            (6usize..=12, proptest::collection::vec(0u8..2, 1..=4)).prop_flat_map(|(stride, mask)| {
                let nb = mask.iter().filter(|&&m| m != 0).count();
                (Just(stride), Just(mask), vals(6usize), vals(nb * 6), vals(6 * 4 * stride))
            }).prop_map(|(stride, mask, s, vals_flat, rows)| {
                let cols: Vec<u32> = mask.iter().enumerate()
                    .filter(|(_, &m)| m != 0)
                    .map(|(b, _)| (b * stride) as u32)
                    .collect();
                (stride, cols, s, vals_flat, rows)
            })
    ) {
        let pitch = 4 * stride;
        let s: &[f64; 6] = s.as_slice().try_into().unwrap();
        let mut got = rows.clone();
        let mut want = rows;
        syrk_scatter::<f64, 6>(&mut got, pitch, s, &blocks, &vals_flat);
        for t in 0..6 {
            if s[t] == 0.0 {
                continue;
            }
            for (bj, &c0) in blocks.iter().enumerate() {
                for i in 0..6 {
                    want[t * pitch + c0 as usize + i] += s[t] * vals_flat[bj * 6 + i];
                }
            }
        }
        assert_bits_eq(&got, &want)?;
    }

    /// The `PANEL`-wide fused trailing update equals eight sequential rank-1
    /// `sub_scaled` sweeps bitwise (per element the subtractions happen in
    /// the same order with the same operand order).
    #[test]
    fn sub_scaled_panel_matches_sequential_bitwise(
        (dst, srcs, a) in (0usize..=40).prop_flat_map(|n| {
            (vals(n), proptest::collection::vec(vals(n), 8), vals(8usize))
        })
    ) {
        let refs: [&[f64]; 8] = std::array::from_fn(|k| srcs[k].as_slice());
        let a: &[f64; 8] = a.as_slice().try_into().unwrap();
        let mut fused = dst.clone();
        let mut seq = dst;
        sub_scaled_panel::<f64, 8>(&mut fused, &refs, a);
        for k in 0..8 {
            sub_scaled(&mut seq, &srcs[k], a[k]);
        }
        assert_bits_eq(&fused, &seq)?;
    }

    /// `add_scaled_rows` (four rows per traversal, then the remainder)
    /// equals one `add_scaled` per row in order, bitwise, for every row count
    /// around the fused width.
    #[test]
    fn add_scaled_rows_matches_sequential_bitwise(
        (dst, srcs, s) in (0usize..=40, 0usize..=9).prop_flat_map(|(n, rows)| {
            (vals(n), proptest::collection::vec(vals(n), rows), vals(rows))
        })
    ) {
        let mut fused = dst.clone();
        let mut seq = dst;
        add_scaled_rows(&mut fused, srcs.iter().map(Vec::as_slice).zip(s.iter().copied()));
        for (src, &sk) in srcs.iter().zip(&s) {
            add_scaled(&mut seq, src, sk);
        }
        assert_bits_eq(&fused, &seq)?;
    }

    /// The two-row trailing update equals a `sub_scaled_panel` call per row
    /// bitwise, the second row reading the sources one element in.
    #[test]
    fn sub_scaled_panel_pair_matches_two_panel_calls(
        (dst0, dst1, srcs, a) in (1usize..=40).prop_flat_map(|n| {
            (
                vals(n),
                vals(n - 1),
                proptest::collection::vec(vals(n), 8),
                proptest::collection::vec(vals(8usize), 2),
            )
        })
    ) {
        let refs: [&[f64]; 8] = std::array::from_fn(|k| srcs[k].as_slice());
        let shifted: [&[f64]; 8] = std::array::from_fn(|k| &srcs[k][1..]);
        let a0: &[f64; 8] = a[0].as_slice().try_into().unwrap();
        let a1: &[f64; 8] = a[1].as_slice().try_into().unwrap();
        let (mut pair0, mut pair1) = (dst0.clone(), dst1.clone());
        let (mut seq0, mut seq1) = (dst0, dst1);
        fixed::sub_scaled_panel_pair::<f64, 8>(&mut pair0, &mut pair1, &refs, a0, a1);
        sub_scaled_panel::<f64, 8>(&mut seq0, &refs, a0);
        sub_scaled_panel::<f64, 8>(&mut seq1, &shifted, a1);
        assert_bits_eq(&pair0, &seq0)?;
        assert_bits_eq(&pair1, &seq1)?;
    }
}

/// Any B yields an SPD matrix B·Bᵀ + (n+1)·I.
fn spd_strategy(n: usize) -> impl Strategy<Value = DMat> {
    proptest::collection::vec(-5.0..5.0f64, n * n).prop_map(move |data| {
        let b = DMat::from_vec(n, n, data);
        b.transpose().gram().add_diagonal(n as f64 + 1.0)
    })
}

/// Textbook unblocked column-at-a-time Cholesky in the same transposed
/// formulation as [`Cholesky::refactor`]: evaluate column `k`, then
/// immediately apply it to every trailing row, zero multipliers included.
/// Returns `Lᵀ`. This is the pre-blocking reference the `PANEL`-wide fused
/// sweeps, with their zero-row skips, must reproduce bit for bit.
fn unblocked_cholesky_lt<T: Scalar>(a: &Matrix<T>) -> Matrix<T> {
    let n = a.rows();
    let mut lt = Matrix::zeros(n, n);
    let mut work = a.clone();
    for k in 0..n {
        let d = work.get(k, k).sqrt();
        lt.set(k, k, d);
        for i in (k + 1)..n {
            lt.set(k, i, work.get(k, i) / d);
        }
        for j in (k + 1)..n {
            let ljk = lt.get(k, j);
            for i in j..n {
                work.set(j, i, work.get(j, i) - lt.get(k, i) * ljk);
            }
        }
    }
    lt
}

/// `factor` equals the unblocked loop bitwise (compared through the exact
/// widening to f64).
fn assert_cholesky_matches_unblocked<T: Scalar>(
    a: &Matrix<T>,
) -> std::result::Result<(), TestCaseError> {
    let wide = |m: &Matrix<T>| m.as_slice().iter().map(|v| v.to_f64()).collect::<Vec<_>>();
    let ch = Cholesky::factor(a).unwrap();
    assert_bits_eq(&wide(ch.lt()), &wide(&unblocked_cholesky_lt(a)))
}

/// An SPD matrix with the window's keyframe pattern: `kfs` states of 15
/// slots, the 6 pose slots coupled across every keyframe, the 9 speed/bias
/// slots only within their keyframe and its neighbours. Like an assembled
/// system it holds no `−0.0`.
fn keyframe_spd(kfs: usize, seed: u64) -> DMat {
    let n = kfs * W_BLOCK_PITCH;
    let pose = |i: usize| i % W_BLOCK_PITCH < W_BLOCK_ROWS;
    let coupled = |r: usize, c: usize| {
        (pose(r) && pose(c)) || (r / W_BLOCK_PITCH).abs_diff(c / W_BLOCK_PITCH) <= 1
    };
    let mut next = signed_stream(seed);
    let mut a = DMat::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            if coupled(i, j) {
                let v = next() + 0.0; // -0.0 + 0.0 is +0.0
                a.set(i, j, v);
                a.set(j, i, v);
            }
        }
    }
    for i in 0..n {
        let off: f64 = a.row(i).iter().map(|v| v.abs()).sum();
        a.set(i, i, 1.5 * off + 1.0 + next().abs());
    }
    a
}

#[test]
fn blocked_cholesky_matches_unblocked_on_many_panels() {
    // n = 90 spans eleven 8-wide panels plus a ragged tail.
    let n = 90;
    let b = DMat::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 23) as f64 - 11.0);
    assert_cholesky_matches_unblocked(&b.gram().add_diagonal(n as f64)).unwrap();

    // The keyframe pattern, up to the served n = 150: a panel of keyframe
    // `i` has exact-zero multipliers on every speed/bias row of keyframe
    // `≥ i + 2`, so the zero-row skip and the unpaired-row sweep both run.
    for (kfs, seed) in [(1, 1), (2, 2), (3, 3), (10, 4)] {
        let a = keyframe_spd(kfs, seed);
        let lt = unblocked_cholesky_lt(&a);
        for k in 0..a.rows() {
            for j in (k + 1)..a.rows() {
                if j % W_BLOCK_PITCH >= W_BLOCK_ROWS && j / W_BLOCK_PITCH >= k / W_BLOCK_PITCH + 2 {
                    assert_eq!(lt.get(k, j).to_bits(), 0, "multiplier ({k}, {j})");
                }
            }
        }
        assert_cholesky_matches_unblocked(&a).unwrap();
        assert_cholesky_matches_unblocked(&a.cast::<f32>()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The panel-blocked, kernel-fused factorization equals the unblocked
    /// loop bitwise — for sizes straddling the panel width.
    #[test]
    fn blocked_cholesky_matches_unblocked_bitwise(a in (1usize..=24).prop_flat_map(spd_strategy)) {
        assert_cholesky_matches_unblocked(&a)?;
    }

    /// The buffer-reusing triangular solve equals the allocating one bitwise,
    /// including when the reused buffers arrive with a stale shape.
    #[test]
    fn solve_into_matches_solve_bitwise(
        (a, b) in (1usize..=10).prop_flat_map(|n| (spd_strategy(n), vals(n)))
    ) {
        let b = DVec::from(b);
        let ch = Cholesky::factor(&a).unwrap();
        let reference = ch.solve(&b);
        let mut y = DVec::zeros(3);
        let mut x = DVec::zeros(17);
        ch.solve_into(&b, &mut y, &mut x);
        assert_bits_eq(x.as_slice(), reference.as_slice())?;
    }
}

/// Row-form forward substitution `L·x = b` — `acc = b[i]`, then
/// `acc −= l_ij·x_j` for ascending `j < i`, then one division by `l_ii` —
/// reading only the lower triangle of `l`. The oracle of the column sweep in
/// `Cholesky::solve_into`.
fn solve_lower_into<T: Scalar>(l: &Matrix<T>, b: &Vector<T>, x: &mut Vector<T>) {
    let n = l.rows();
    x.resize_fill(n, T::ZERO);
    for i in 0..n {
        let row = l.row(i);
        let mut acc = b[i];
        for j in 0..i {
            acc -= row[j] * x[j];
        }
        x[i] = acc / row[i];
    }
}

#[test]
fn row_form_oracle_solves_a_lower_system_ignoring_the_upper_triangle() {
    let l = DMat::from_rows(&[&[2.0, 999.0], &[1.0, 3.0]]);
    let mut x = DVec::zeros(0);
    solve_lower_into(&l, &DVec::from(vec![4.0, 11.0]), &mut x);
    assert_eq!(x.as_slice(), &[2.0, 3.0]);
}

/// A deterministic stream of signed, scale-diverse values with a mass of
/// `+0.0` and `-0.0`, for matrices too large to draw entry by entry.
fn signed_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut z = seed;
    move || {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut h = z;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let v = (h >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0;
        match h % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => v * 1e-7,
            3 => v * 1e5,
            _ => v,
        }
    }
}

/// A symmetric, strictly diagonally dominant (hence SPD) `n × n` matrix
/// whose off-diagonal entries come from [`signed_stream`].
fn signed_spd(n: usize, seed: u64) -> DMat {
    let mut next = signed_stream(seed);
    let mut a = DMat::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            let v = next();
            a.set(i, j, v);
            a.set(j, i, v);
        }
    }
    for i in 0..n {
        let off: f64 = a.row(i).iter().map(|v| v.abs()).sum();
        a.set(i, i, off + 1.0 + next().abs());
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The column-sweep forward substitution of `Cholesky::solve_into`
    /// equals the row-form substitution on `L = (Lᵀ)ᵀ` bitwise — in the
    /// intermediate `y` and, through `solve_upper_into(Lᵀ)`, in `x` — at
    /// the served shapes, with signed zeros in the matrix and right-hand side.
    #[test]
    fn column_sweep_solve_matches_row_form_oracle_bitwise(
        (n, seed) in (0usize..4, 0u64..u64::MAX).prop_map(|(i, seed)| ([1, 6, 15, 150][i], seed))
    ) {
        let a = signed_spd(n, seed);
        let mut next = signed_stream(seed ^ 0x5555);
        let b: DVec = (0..n).map(|_| next()).collect();
        let ch = Cholesky::factor(&a).unwrap();
        let (mut y_ref, mut x_ref) = (DVec::zeros(0), DVec::zeros(0));
        solve_lower_into(&ch.lt().transpose(), &b, &mut y_ref);
        archytas_math::solve_upper_into(ch.lt(), &y_ref, &mut x_ref);
        // Stale, differently shaped buffers must not leak into the result.
        let (mut y, mut x) = (DVec::from(vec![f64::NAN; 7]), DVec::zeros(n + 3));
        ch.solve_into(&b, &mut y, &mut x);
        assert_bits_eq(y.as_slice(), y_ref.as_slice())?;
        assert_bits_eq(x.as_slice(), x_ref.as_slice())?;
        assert_bits_eq(ch.solve(&b).as_slice(), x_ref.as_slice())?;
    }

    /// `refactor_diff` reads only the upper triangles of `v` and `prod`:
    /// overwriting both strict lower triangles with NaN leaves `Lᵀ` bitwise
    /// unchanged, and both equal `refactor` on the explicit difference —
    /// also through a factorization that last held a larger matrix.
    #[test]
    fn refactor_diff_reads_only_the_upper_triangle(
        (n, seed) in (1usize..=41, 0u64..u64::MAX)
            .prop_map(|(n, seed)| (if n == 41 { 150 } else { n }, seed))
    ) {
        // A symmetric product, and `v` boosted on the diagonal by the row
        // sums of `|prod|` so that `v − prod` stays dominant.
        let mut next = signed_stream(seed ^ 0xAAAA);
        let mut prod = DMat::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let x = next();
                prod.set(i, j, x);
                prod.set(j, i, x);
            }
        }
        let mut v = signed_spd(n, seed);
        for i in 0..n {
            let boost: f64 = prod.row(i).iter().map(|x| x.abs()).sum();
            v.set(i, i, v.get(i, i) + boost);
        }
        let mut reference = Cholesky::default();
        reference.refactor(&(&v - &prod)).unwrap();

        let mut ch = Cholesky::default();
        ch.refactor(&signed_spd(n + 5, seed ^ 1)).unwrap();
        ch.refactor_diff(&v, &prod).unwrap();
        assert_bits_eq(ch.lt().as_slice(), reference.lt().as_slice())?;

        let (mut v_nan, mut prod_nan) = (v.clone(), prod.clone());
        for i in 0..n {
            for j in 0..i {
                v_nan.set(i, j, f64::NAN);
                prod_nan.set(i, j, f64::NAN);
            }
        }
        ch.refactor_diff(&v_nan, &prod_nan).unwrap();
        assert_bits_eq(ch.lt().as_slice(), reference.lt().as_slice())?;
    }
}

/// A randomly shaped D-type block system in the window layout: `p`
/// landmarks, `nblocks` keyframe slots of 15 rows, a random block mask per
/// landmark (absent, random 6-high block, or a block of stored `+0.0`s), and
/// diagonals boosted to strict dominance so the assembled matrix is SPD.
#[derive(Debug, Clone)]
struct BlockProblem {
    p: usize,
    nblocks: usize,
    u: Vec<f64>,
    v_upper: Vec<f64>,
    /// Per landmark and slot: 0 no block, 1 the block's `w` values, 2 an
    /// all-zero block.
    pattern: Vec<Vec<u8>>,
    w: Vec<f64>,
    bx: Vec<f64>,
    by: Vec<f64>,
    lambda: Option<f64>,
}

fn block_problem_strategy() -> impl Strategy<Value = BlockProblem> {
    (1usize..=5, 1usize..=3)
        .prop_flat_map(|(p, nblocks)| {
            let q = nblocks * W_BLOCK_PITCH;
            (
                Just((p, nblocks)),
                (
                    vals(p),
                    vals(q * q),
                    proptest::collection::vec(proptest::collection::vec(0u8..3, nblocks), p),
                ),
                (
                    vals(p * nblocks * W_BLOCK_ROWS),
                    vals(p),
                    vals(q),
                    (0u8..3, 0.01..10.0f64).prop_map(|(sel, l)| (sel == 0).then_some(l)),
                ),
            )
        })
        .prop_map(
            |((p, nblocks), (u, v_upper, pattern), (w, bx, by, lambda))| BlockProblem {
                p,
                nblocks,
                u,
                v_upper,
                pattern,
                w,
                bx,
                by,
                lambda,
            },
        )
}

/// The dense `(A, b)` image of `s`.
fn dense<T: Scalar>(s: &BlockSparseSystem<T>) -> (Matrix<T>, Vector<T>) {
    let (mut a, mut b) = (Matrix::zeros(0, 0), Vector::zeros(0));
    s.to_dense_into(&mut a, &mut b);
    (a, b)
}

/// The dense D-type Schur solve of `[U Wᵀ; W V]·x = [bx; by]` over `Matrix`
/// operations, with `U` the diagonal of the leading `p × p` block: invert `U`
/// entrywise, form `(W·U⁻¹)·Wᵀ` with `try_mul`, factor `V − W·U⁻¹·Wᵀ`, solve
/// against `by − W·(U⁻¹·bx)`, then back-substitute `U⁻¹·(bx − Wᵀ·δpy)`.
/// The bitwise oracle of `BlockSparseSystem::solve_into`.
fn dense_schur_solve<T: Scalar>(a: &Matrix<T>, b: &Vector<T>, p: usize) -> Vector<T> {
    let q = a.rows() - p;
    let w = a.submatrix(p, 0, q, p);
    let v = a.submatrix(p, p, q, q);
    let bx: Vector<T> = b.iter().take(p).copied().collect();
    let by: Vector<T> = b.iter().skip(p).copied().collect();
    let u_inv: Vec<T> = (0..p).map(|i| T::ONE / a.get(i, i)).collect();
    let wu_inv = Matrix::from_fn(q, p, |i, k| w.get(i, k) * u_inv[k]);
    let schur = &v - &wu_inv.try_mul(&w.transpose()).unwrap();
    let s2: Vector<T> = (0..p).map(|k| u_inv[k] * bx[k]).collect();
    let rhs = &by - &w.mat_vec(&s2);
    let dy = Cholesky::factor(&schur).expect("SPD").solve(&rhs);
    let r = &bx - &w.transpose_mat_vec(&dy);
    let dx = (0..p).map(|k| u_inv[k] * r[k]);
    dx.chain(dy.iter().copied()).collect()
}

/// The block-sparse solve of `s` into a fresh scratch.
fn block_solve<T: Scalar>(s: &BlockSparseSystem<T>) -> Vector<T> {
    let mut out = Vector::zeros(0);
    s.solve_into(&mut SchurScratch::default(), &mut out)
        .unwrap();
    out
}

/// The block-sparse solve of the system `load_dense` lays out from `s`'s
/// dense image, at `s`'s precision.
fn loaded_solve<T: Scalar>(s: &BlockSparseSystem<T>) -> Vector<T> {
    let (a, b) = dense(s);
    let mut loaded = BlockSparseSystem::<T>::new();
    loaded.load_dense(&a, &b, s.p()).unwrap();
    block_solve(&loaded)
}

fn bits32(v: &Vector<f32>) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Assembles the problem through the sparse build API, with the diagonal
/// boosted to strict dominance (row sums of `|W|` and `|V|` plus a margin).
#[allow(clippy::needless_range_loop)] // index math mirrors the matrix layout
fn build_system(pb: &BlockProblem) -> BlockSparseSystem<f64> {
    let q = pb.nblocks * W_BLOCK_PITCH;
    let widx = |lm: usize, b: usize, t: usize| (lm * pb.nblocks + b) * W_BLOCK_ROWS + t;
    let wval = |lm: usize, b: usize, t: usize| match pb.pattern[lm][b] {
        1 => pb.w[widx(lm, b, t)],
        _ => 0.0,
    };
    let vsym = |r: usize, c: usize| {
        let (lo, hi) = if r <= c { (r, c) } else { (c, r) };
        pb.v_upper[lo * q + hi]
    };

    // Row sums for dominance: landmark rows see their W entries; pose rows
    // see their V off-diagonals plus every W entry landing on them.
    let mut lm_row = vec![0.0f64; pb.p];
    let mut pose_row = vec![0.0f64; q];
    for lm in 0..pb.p {
        for b in 0..pb.nblocks {
            for t in 0..W_BLOCK_ROWS {
                let v = wval(lm, b, t);
                lm_row[lm] += v.abs();
                pose_row[b * W_BLOCK_PITCH + t] += v.abs();
            }
        }
    }
    for r in 0..q {
        for c in 0..q {
            if r != c {
                pose_row[r] += vsym(r, c).abs();
            }
        }
    }

    let mut s = BlockSparseSystem::new();
    s.reset(pb.p, q);
    for j in 0..pb.p {
        s.add_u(j, pb.u[j].abs() + lm_row[j] + 1.0);
        s.sub_bx(j, -pb.bx[j]);
    }
    for r in 0..q {
        s.add_v(r, r, vsym(r, r).abs() + pose_row[r] + 1.0);
        for c in (r + 1)..q {
            s.add_v(r, c, vsym(r, c));
        }
        s.sub_by(r, -pb.by[r]);
    }
    for lm in 0..pb.p {
        for b in 0..pb.nblocks {
            if pb.pattern[lm][b] != 0 {
                for t in 0..W_BLOCK_ROWS {
                    s.add_w(lm, b * W_BLOCK_PITCH + t, wval(lm, b, t));
                }
            }
        }
    }
    if let Some(lambda) = pb.lambda {
        s.damp(lambda, 1e-9);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The block-sparse Schur solve — assembled through the kernel-backed
    /// elimination and triangular paths — equals the dense Schur reference
    /// bitwise for random landmark and keyframe counts, block masks
    /// (including landmarks with no block and blocks of stored zeros) and
    /// damping.
    #[test]
    fn block_solve_matches_dense_schur_bitwise(pb in block_problem_strategy()) {
        let s = build_system(&pb);
        let (a, b) = dense(&s);
        let reference = dense_schur_solve(&a, &b, s.p());
        assert_bits_eq(block_solve(&s).as_slice(), reference.as_slice())?;
    }

    /// A system loaded from its own dense image — which drops the blocks of
    /// stored zeros — solves bitwise equal to the block-sparse original: at
    /// f64, and at f32 against the original's f32 cast.
    #[test]
    fn loaded_dense_image_solves_bitwise_equal(pb in block_problem_strategy()) {
        let s = build_system(&pb);
        assert_bits_eq(loaded_solve(&s).as_slice(), block_solve(&s).as_slice())?;

        let mut s32 = BlockSparseSystem::<f32>::new();
        s.cast_into(&mut s32);
        let (a, b) = dense(&s);
        let mut loaded32 = BlockSparseSystem::<f32>::new();
        loaded32.load_dense(&a, &b, s.p()).unwrap();
        prop_assert_eq!(bits32(&block_solve(&loaded32)), bits32(&block_solve(&s32)));
    }

    /// `to_dense_into` after `load_dense` gives back the loaded `(a, b)` bit
    /// for bit.
    #[test]
    fn load_dense_round_trips_the_dense_image(pb in block_problem_strategy()) {
        let (a, b) = dense(&build_system(&pb));
        let mut loaded = BlockSparseSystem::<f64>::new();
        loaded.load_dense(&a, &b, pb.p).unwrap();
        let (ra, rb) = dense(&loaded);
        prop_assert_eq!(ra.shape(), a.shape());
        assert_bits_eq(ra.as_slice(), a.as_slice())?;
        assert_bits_eq(rb.as_slice(), b.as_slice())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Landmarks whose `W` blocks are not adjacent (a keyframe skipped
    /// between two observers) solve bitwise equal to the dense Schur oracle
    /// — the upper-triangle product must still fill every cross-block cell
    /// the factorization reads.
    #[test]
    fn non_adjacent_w_blocks_match_dense_schur_bitwise(
        ((u, v_upper, w), (bx, by)) in (
            (vals(3usize), vals(60usize * 60), vals(3 * 4 * W_BLOCK_ROWS)),
            (vals(3usize), vals(60usize)),
        )
    ) {
        // Landmark 0 sees blocks 0 and 2, landmark 1 blocks 1 and 3, and
        // landmark 2 blocks 0 and 3.
        let pattern = vec![vec![1, 0, 1, 0], vec![0, 1, 0, 1], vec![1, 0, 0, 1]];
        let pb = BlockProblem { p: 3, nblocks: 4, u, v_upper, pattern, w, bx, by, lambda: Some(0.1) };
        let s = build_system(&pb);
        let (a, b) = dense(&s);
        let reference = dense_schur_solve(&a, &b, s.p());
        assert_bits_eq(block_solve(&s).as_slice(), reference.as_slice())?;
    }
}

/// A well-conditioned system: 3 landmarks, 2 keyframe slots.
fn fixed_system() -> BlockSparseSystem<f64> {
    let (p, q) = (3, 2 * W_BLOCK_PITCH);
    let mut s = BlockSparseSystem::new();
    s.reset(p, q);
    for j in 0..p {
        s.add_u(j, 5.0 + j as f64);
        s.sub_bx(j, -(0.3 + 0.1 * j as f64));
    }
    for r in 0..q {
        s.add_v(r, r, 10.0 + r as f64 * 0.5);
        s.sub_by(r, -(r as f64 * 0.7 - 2.0));
        for c in (r + 1)..q {
            s.add_v(r, c, 0.3 / (1.0 + (r as f64 - c as f64).abs()));
        }
    }
    // Landmark 0 seen by both keyframe slots, 1 only by the first,
    // 2 only by the second; insert out of order to exercise sorting.
    for t in 0..W_BLOCK_ROWS {
        s.add_w(0, 15 + t, 0.2 * t as f64 - 0.3);
        s.add_w(0, t, 0.1 * t as f64 + 0.05);
        s.add_w(1, t, -0.15 + 0.07 * t as f64);
        s.add_w(2, 15 + t, 0.12 - 0.04 * t as f64);
    }
    s
}

#[test]
fn solve_matches_dense_schur_bitwise() {
    let s = fixed_system();
    let (a, b) = dense(&s);
    let reference = dense_schur_solve(&a, &b, s.p());
    assert_eq!(block_solve(&s).as_slice(), reference.as_slice());
}

#[test]
fn damped_solve_matches_dense_damped_solve() {
    let mut s = fixed_system();
    s.damp(0.37, 1e-9);
    let (a, b) = dense(&s);
    let reference = dense_schur_solve(&a, &b, s.p());
    assert_eq!(block_solve(&s).as_slice(), reference.as_slice());
}

/// A served system can hold a `W` block whose entries all sum to `+0.0`
/// (its contributions cancel exactly); `load_dense` does not rebuild it.
/// Dropping it moves no bit of the solve, at f64 and at f32.
#[test]
fn all_zero_w_block_solves_bitwise_equal_to_its_loaded_image() {
    let mut s = fixed_system();
    for t in 0..W_BLOCK_ROWS {
        s.add_w(1, 15 + t, 0.25);
        s.add_w(1, 15 + t, -0.25);
    }
    s.damp(0.37, 1e-9);
    let (a, _) = dense(&s);
    assert!((0..W_BLOCK_ROWS).all(|t| a.get(3 + 15 + t, 1).to_bits() == 0));
    assert_eq!(block_solve(&s).as_slice(), loaded_solve(&s).as_slice());
    let mut s32 = BlockSparseSystem::<f32>::new();
    s.cast_into(&mut s32);
    assert_eq!(bits32(&block_solve(&s32)), bits32(&loaded_solve(&s32)));
}

#[test]
fn f32_twin_solve_matches_dense_solve_of_the_cast() {
    let mut s = fixed_system();
    s.damp(0.37, 1e-9);
    let (a, b) = dense(&s);
    let (a32, b32) = (a.cast::<f32>(), b.cast::<f32>());
    let reference = dense_schur_solve(&a32, &b32, s.p());
    // A twin that last held a larger system: stale blocks must not leak.
    let mut twin = BlockSparseSystem::<f32>::new();
    let mut big = BlockSparseSystem::<f64>::new();
    big.reset(5, 3 * W_BLOCK_PITCH);
    big.cast_into(&mut twin);
    s.cast_into(&mut twin);
    let (ta, tb) = dense(&twin);
    assert_eq!(ta.as_slice(), a32.as_slice());
    assert_eq!(tb.as_slice(), b32.as_slice());
    assert_eq!(block_solve(&twin).as_slice(), reference.as_slice());
}

#[test]
fn scratch_reuse_across_shapes_is_clean() {
    let s1 = fixed_system();
    let mut s2 = BlockSparseSystem::<f64>::new();
    // Smaller system after a bigger one: stale scratch rows must not leak.
    s2.reset(1, W_BLOCK_PITCH);
    s2.add_u(0, 4.0);
    s2.sub_bx(0, -1.0);
    for r in 0..W_BLOCK_PITCH {
        s2.add_v(r, r, 9.0);
        s2.sub_by(r, -0.5);
    }
    for t in 0..W_BLOCK_ROWS {
        s2.add_w(0, t, 0.1 + 0.1 * t as f64);
    }
    let mut scratch = SchurScratch::default();
    let mut out = DVec::zeros(0);
    s1.solve_into(&mut scratch, &mut out).unwrap();
    let (a, b) = dense(&s2);
    let reference = dense_schur_solve(&a, &b, 1);
    s2.solve_into(&mut scratch, &mut out).unwrap();
    assert_eq!(out.as_slice(), reference.as_slice());
}

/// `load_dense` rejects what a dense D-type Schur solve cannot partition — a
/// non-square matrix, a right-hand side of the wrong length, a split beyond
/// the dimension — and what does not fit the window layout: a pose block
/// that is not whole 15-row slots, or a `W` entry in rows 6..15 of a slot.
/// Every boundary case loads.
#[test]
fn load_dense_checks_its_input() {
    let (a, b) = dense(&fixed_system());
    let n = a.rows();
    let mut sys = BlockSparseSystem::<f64>::new();
    let mismatch = |r: Result<(), MathError>| matches!(r, Err(MathError::DimensionMismatch { .. }));
    assert!(mismatch(sys.load_dense(&a, &b, n + 1)));
    assert!(mismatch(sys.load_dense(
        &a.submatrix(0, 0, n, n - 1),
        &b,
        3
    )));
    let short_b: DVec = b.iter().take(n - 1).copied().collect();
    assert!(mismatch(sys.load_dense(&a, &short_b, 3)));
    // Pose rows that are not whole keyframe slots.
    for p in [0, 2, 4, n - 1] {
        assert!(mismatch(sys.load_dense(&a, &b, p)), "split at {p}");
    }
    // A landmark–pose entry outside the pose-tangent rows of its slot.
    let mut stray = a.clone();
    stray.set(3 + 15 + 8, 1, 0.5);
    stray.set(1, 3 + 15 + 8, 0.5);
    assert!(mismatch(sys.load_dense(&stray, &b, 3)));
    for p in [3, n] {
        sys.load_dense(&a, &b, p).unwrap();
        assert_eq!((sys.p(), sys.q()), (p, n - p));
    }
    sys.load_dense(&DMat::identity(15), &DVec::zeros(15), 0)
        .unwrap();
    assert_eq!((sys.p(), sys.q()), (0, 15));
    sys.load_dense(&DMat::zeros(0, 0), &DVec::zeros(0), 0)
        .unwrap();
    assert_eq!(sys.dim(), 0);
}

/// One randomized visual factor in the SLAM layout: a landmark column, two
/// ascending 6-wide pose runs at block starts, two residual rows.
#[derive(Debug, Clone)]
struct VisualObs {
    lm: usize,
    rf: usize,
    rs: usize,
    jr: [f64; 2],
    f: [[f64; 6]; 2],
    s: [[f64; 6]; 2],
    e: [f64; 2],
    w2: f64,
}

fn visual_obs_strategy(p: usize, nblocks: usize) -> impl Strategy<Value = VisualObs> {
    (
        (0..p, 0..nblocks, 0..nblocks - 1),
        (vals(2usize), vals(2usize), 0.01..4.0f64),
        (vals(6usize), vals(6usize), vals(6usize), vals(6usize)),
    )
        .prop_map(|((lm, ba, bb), (jr, e, w2), (f0, f1, s0, s1))| {
            // Two distinct blocks, ascending: `bb` skips over `ba`.
            let bb = if bb >= ba { bb + 1 } else { bb };
            let (bf, bs) = (ba.min(bb), ba.max(bb));
            VisualObs {
                lm,
                rf: bf * 15,
                rs: bs * 15,
                jr: jr.try_into().unwrap(),
                f: [f0.try_into().unwrap(), f1.try_into().unwrap()],
                s: [s0.try_into().unwrap(), s1.try_into().unwrap()],
                e: e.try_into().unwrap(),
                w2,
            }
        })
}

/// The per-source-column scatter of one visual factor — the exact sequence
/// of guarded multiply-adds that [`BlockSparseSystem::add_visual_obs6`]
/// fuses, replayed through the single-entry and single-row writers: `b` and
/// diagonal updates per column in row-0-then-row-1 order, the `W` runs as
/// the cross-block storage, upper-triangle `V` runs only.
fn replay_visual_percolumn(sys: &mut BlockSparseSystem<f64>, o: &VisualObs) {
    let (e, w2) = (o.e, o.w2);
    // Source column 1: the inverse depth.
    let (v0, v1) = (o.jr[0], o.jr[1]);
    if v0 != 0.0 || v1 != 0.0 {
        let (wv0, wv1) = (w2 * v0, w2 * v1);
        if v0 != 0.0 {
            sys.sub_bx(o.lm, wv0 * e[0]);
        }
        if v1 != 0.0 {
            sys.sub_bx(o.lm, wv1 * e[1]);
        }
        if v0 != 0.0 {
            sys.add_u(o.lm, wv0 * v0);
        }
        if v1 != 0.0 {
            sys.add_u(o.lm, wv1 * v1);
        }
        // One entry at a time, with the run kernels' zero-entry guard:
        // row 0's contribution, then row 1's.
        for (r0, run) in [(o.rf, &o.f), (o.rs, &o.s)] {
            for (t, (&j0, &j1)) in run[0].iter().zip(&run[1]).enumerate() {
                if v0 != 0.0 && j0 != 0.0 {
                    sys.add_w(o.lm, r0 + t, wv0 * j0);
                }
                if v1 != 0.0 && j1 != 0.0 {
                    sys.add_w(o.lm, r0 + t, wv1 * j1);
                }
            }
        }
    }
    // Source columns in the pose runs (first run carries the cross block).
    for (run, r0, cross) in [(&o.f, o.rf, true), (&o.s, o.rs, false)] {
        for ti in 0..6 {
            let (v0, v1) = (run[0][ti], run[1][ti]);
            if v0 == 0.0 && v1 == 0.0 {
                continue;
            }
            let ri = r0 + ti;
            let (wv0, wv1) = (w2 * v0, w2 * v1);
            if v0 != 0.0 {
                sys.sub_by(ri, wv0 * e[0]);
            }
            if v1 != 0.0 {
                sys.sub_by(ri, wv1 * e[1]);
            }
            if v0 != 0.0 {
                sys.add_v_row(ri, ri, &run[0][ti..], wv0);
            }
            if v1 != 0.0 {
                sys.add_v_row(ri, ri, &run[1][ti..], wv1);
            }
            if cross {
                if v0 != 0.0 {
                    sys.add_v_row(ri, o.rs, &o.s[0], wv0);
                }
                if v1 != 0.0 {
                    sys.add_v_row(ri, o.rs, &o.s[1], wv1);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused whole-observation visual scatter equals the generic
    /// per-source-column scatter bitwise — across repeated observations per
    /// landmark (so block lookups find existing blocks, insert new ones and
    /// insert mid-stream) and zero Jacobian entries (so every single-row
    /// fallback runs).
    #[test]
    fn fused_visual_scatter_matches_percolumn_bitwise(
        (p, nblocks, obs) in (1usize..=3, 2usize..=4).prop_flat_map(|(p, nblocks)| {
            (
                Just(p),
                Just(nblocks),
                proptest::collection::vec(visual_obs_strategy(p, nblocks), 1..=8),
            )
        })
    ) {
        let q = nblocks * W_BLOCK_PITCH;
        let mut fused = BlockSparseSystem::new();
        let mut seq = BlockSparseSystem::new();
        fused.reset(p, q);
        seq.reset(p, q);
        for o in &obs {
            fused.add_visual_obs6(
                o.lm, o.rf, o.rs, o.jr, [&o.f[0], &o.f[1]], [&o.s[0], &o.s[1]], o.e, o.w2,
            );
            replay_visual_percolumn(&mut seq, o);
        }
        let (fa, fb) = dense(&fused);
        let (sa, sb) = dense(&seq);
        assert_bits_eq(fa.as_slice(), sa.as_slice())?;
        assert_bits_eq(fb.as_slice(), sb.as_slice())?;
    }
}
