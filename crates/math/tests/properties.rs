//! Property-based tests for the linear-algebra substrate.

use archytas_math::{
    solve_lower, solve_upper, BlockSpec, Blocked2x2, Cholesky, DMat, DVec, DiagMat, SchurSystem,
};
use proptest::prelude::*;

const DIM: std::ops::RangeInclusive<usize> = 1..=10;

fn vec_strategy(n: usize) -> impl Strategy<Value = DVec> {
    proptest::collection::vec(-10.0..10.0f64, n).prop_map(DVec::from)
}

fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = DMat> {
    proptest::collection::vec(-5.0..5.0f64, rows * cols)
        .prop_map(move |data| DMat::from_vec(rows, cols, data))
}

/// Any B produces an SPD matrix B·Bᵀ + (n+1)·I.
fn spd_strategy(n: usize) -> impl Strategy<Value = DMat> {
    mat_strategy(n, n).prop_map(move |b| {
        let g = b.transpose().gram(); // (Bᵀ)ᵀ·Bᵀ = B·Bᵀ
        g.add_diagonal(n as f64 + 1.0)
    })
}

proptest! {
    #[test]
    fn transpose_is_involutive(n in DIM, m in DIM, seed in 0u64..1000) {
        let a = DMat::from_fn(n, m, |i, j| ((i * 31 + j * 17 + seed as usize) % 13) as f64);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_associates_with_vector((a, b, v) in DIM.prop_flat_map(|n| {
        (mat_strategy(n, n), mat_strategy(n, n), vec_strategy(n))
    })) {
        // (A·B)·v == A·(B·v)
        let lhs = a.try_mul(&b).unwrap().mat_vec(&v);
        let rhs = a.mat_vec(&b.mat_vec(&v));
        prop_assert!((&lhs - &rhs).norm() < 1e-8 * (1.0 + lhs.norm()));
    }

    #[test]
    fn gram_is_symmetric_psd(a in DIM.prop_flat_map(|n| mat_strategy(n + 2, n))) {
        let g = a.gram();
        prop_assert!(g.is_symmetric(1e-12));
        // xᵀGx = |Ax|² ≥ 0 for a few probe vectors.
        for k in 0..3 {
            let x: DVec = (0..g.rows()).map(|i| ((i + k) % 3) as f64 - 1.0).collect();
            let quad = x.dot(&g.mat_vec(&x));
            prop_assert!(quad >= -1e-9);
        }
    }

    #[test]
    fn cholesky_reconstructs(a in DIM.prop_flat_map(spd_strategy)) {
        let ch = Cholesky::factor(&a).unwrap();
        let rec = ch.l().try_mul(&ch.l().transpose()).unwrap();
        prop_assert!((&rec - &a).max_abs() < 1e-8 * (1.0 + a.max_abs()));
    }

    #[test]
    fn cholesky_solve_has_small_residual((a, b) in DIM.prop_flat_map(|n| {
        (spd_strategy(n), vec_strategy(n))
    })) {
        let x = Cholesky::factor(&a).unwrap().solve(&b);
        prop_assert!((&a.mat_vec(&x) - &b).norm() < 1e-7 * (1.0 + b.norm()));
    }

    #[test]
    fn triangular_solvers_invert((a, b) in DIM.prop_flat_map(|n| {
        (spd_strategy(n), vec_strategy(n))
    })) {
        let l = Cholesky::factor(&a).unwrap().into_l();
        let y = solve_lower(&l, &b);
        prop_assert!((&l.mat_vec(&y) - &b).norm() < 1e-8 * (1.0 + b.norm()));
        let u = l.transpose();
        let z = solve_upper(&u, &b);
        prop_assert!((&u.mat_vec(&z) - &b).norm() < 1e-8 * (1.0 + b.norm()));
    }

    #[test]
    fn diag_inverse_roundtrips(d in proptest::collection::vec(0.1..10.0f64, 1..12)) {
        let dm = DiagMat::new(d);
        let inv = dm.inverse().unwrap();
        let product = inv.mul_dense(&dm.to_dense());
        prop_assert!((&product - &DMat::identity(dm.dim())).max_abs() < 1e-12);
    }

    #[test]
    fn block_partition_roundtrips((a, p) in DIM.prop_flat_map(|n| {
        (mat_strategy(n, n), 0..=n)
    })) {
        let n = a.rows();
        let spec = BlockSpec::new(p, n).unwrap();
        let blocked = Blocked2x2::partition(&a, spec).unwrap();
        prop_assert_eq!(blocked.assemble(), a);
    }

    /// Schur elimination must agree with a direct dense solve on any SPD
    /// system whose leading block has been diagonalized — the core soundness
    /// property behind the paper's D-type Schur optimization.
    #[test]
    fn schur_solve_equals_direct((a0, b, p) in (2..=10usize).prop_flat_map(|n| {
        (spd_strategy(n), vec_strategy(n), 1..n)
    })) {
        // Zero the off-diagonal entries of the leading p×p block (symmetry is
        // preserved), then boost the diagonal so the result is strictly
        // diagonally dominant and therefore still SPD.
        let n = a0.rows();
        let mut a = a0.clone();
        for i in 0..p {
            for j in 0..p {
                if i != j {
                    a.set(i, j, 0.0);
                }
            }
        }
        let max_off_row_sum = (0..n)
            .map(|i| (0..n).filter(|&j| j != i).map(|j| a.get(i, j).abs()).sum::<f64>())
            .fold(0.0f64, f64::max);
        let a = a.add_diagonal(max_off_row_sum + 1.0);
        let spec = BlockSpec::new(p, n).unwrap();
        let sys = SchurSystem::new(&a, &b, spec).unwrap();
        let x_schur = sys.solve().unwrap();
        let x_direct = Cholesky::factor(&a).unwrap().solve(&b);
        prop_assert!((&x_schur - &x_direct).norm() < 1e-6 * (1.0 + x_direct.norm()));
    }

    #[test]
    fn f32_cast_stays_close(a in DIM.prop_flat_map(spd_strategy)) {
        // The hardware functional model runs in f32; casting must stay within
        // single-precision distance of the f64 original.
        let f = a.cast::<f32>().cast::<f64>();
        prop_assert!((&f - &a).max_abs() <= 1e-4 * (1.0 + a.max_abs()));
    }
}
