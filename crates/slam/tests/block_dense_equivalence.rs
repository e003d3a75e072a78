//! Bit-identity of the block-sparse solver pipeline against the dense
//! reference path.
//!
//! The block-sparse assembler + reused-workspace solve (`solve_in_workspace`)
//! must produce bit-for-bit the same reports and optimized windows as the
//! dense path (`solve_with_in_workspace` + `schur_linear_solver`), on fixed and
//! property-generated window shapes, with and without an IMU/marginalization
//! prior.

use archytas_math::{BlockSparseSystem, DMat, SchurScratch};
use archytas_slam::{
    build_block_normal_equations, build_normal_equations, schur_linear_solver, solve_in_workspace,
    solve_with_in_workspace, try_marginalize_oldest, FactorWeights, ImuConstraint, ImuSample,
    KeyframeState, Landmark, LmConfig, Observation, Pose, Preintegration, Prior, Quat,
    SlidingWindow, SolveReport, SolverWorkspace, Vec3, GRAVITY,
};
use proptest::prelude::*;

const DAMP_FLOOR: f64 = 1e-9;

/// SplitMix64 → uniform f64 in [0, 1); deterministic per seed.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

fn centered(state: &mut u64) -> f64 {
    uniform(state) - 0.5
}

/// A visual-only window with pseudo-random geometry: `num_kf` keyframes on a
/// gently curving trajectory and `num_lm` landmarks spread across anchors.
fn make_window(num_kf: usize, num_lm: usize, seed: u64) -> SlidingWindow {
    assert!(num_kf >= 2);
    let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
    let mut w = SlidingWindow::new();
    let mut poses = Vec::new();
    for i in 0..num_kf {
        let pose = Pose::new(
            Quat::exp(&Vec3::new(
                0.02 * centered(&mut s),
                0.015 * i as f64 + 0.02 * centered(&mut s),
                0.02 * centered(&mut s),
            )),
            Vec3::new(
                0.35 * i as f64,
                0.05 * centered(&mut s),
                0.05 * centered(&mut s),
            ),
        );
        poses.push(pose);
        w.keyframes
            .push(KeyframeState::at_pose(pose, i as f64 * 0.1));
    }
    for l in 0..num_lm {
        let anchor = l % (num_kf - 1);
        let bearing = Vec3::new(0.8 * centered(&mut s), 0.5 * centered(&mut s), 1.0);
        let depth = 4.0 + 4.0 * uniform(&mut s);
        let p_w = poses[anchor].transform(&(bearing * depth));
        // Slightly wrong inverse depth so the solver has work to do.
        let inv_depth = (1.0 / depth) * (1.0 + 0.2 * centered(&mut s));
        w.landmarks.push(Landmark {
            id: l as u64,
            anchor,
            bearing,
            inv_depth,
        });
        for (kf, pose) in poses.iter().enumerate().skip(anchor + 1) {
            let p_c = pose.inverse_transform(&p_w);
            if p_c.z() > 0.1 {
                w.observations.push(Observation {
                    landmark: l,
                    keyframe: kf,
                    uv: [
                        p_c.x() / p_c.z() + 0.002 * centered(&mut s),
                        p_c.y() / p_c.z() + 0.002 * centered(&mut s),
                    ],
                });
            }
        }
    }
    w
}

/// A window with IMU constraints, suitable for producing a marginalization
/// prior (mirrors the marginalization test fixture).
fn make_imu_window() -> SlidingWindow {
    let mut w = SlidingWindow::new();
    for i in 0..4 {
        w.keyframes.push(KeyframeState::at_pose(
            Pose::new(Quat::IDENTITY, Vec3::new(i as f64 * 0.4, 0.0, 0.0)),
            i as f64 * 0.1,
        ));
        w.keyframes[i].velocity = Vec3::new(4.0, 0.0, 0.0);
    }
    let specs = [
        (0usize, 0.1, 0.05, 5.0),
        (0, -0.2, 0.1, 7.0),
        (1, 0.15, -0.1, 6.0),
        (1, -0.1, -0.2, 5.5),
        (2, 0.05, 0.15, 6.5),
    ];
    for (idx, (anchor, x, y, d)) in specs.iter().enumerate() {
        let bearing = Vec3::new(*x, *y, 1.0);
        let p_w = w.keyframes[*anchor].pose.transform(&(bearing * *d));
        w.landmarks.push(Landmark {
            id: idx as u64,
            anchor: *anchor,
            bearing,
            inv_depth: 1.0 / d,
        });
        for kf in (*anchor + 1)..w.keyframes.len() {
            let p_c = w.keyframes[kf].pose.inverse_transform(&p_w);
            w.observations.push(Observation {
                landmark: idx,
                keyframe: kf,
                uv: [p_c.x() / p_c.z(), p_c.y() / p_c.z()],
            });
        }
    }
    for i in 0..w.keyframes.len() - 1 {
        let samples: Vec<ImuSample> = (0..20)
            .map(|_| ImuSample {
                gyro: Vec3::ZERO,
                accel: -GRAVITY,
                dt: 0.005,
            })
            .collect();
        w.imu.push(ImuConstraint {
            first: i,
            preintegration: Preintegration::integrate(&samples, Vec3::ZERO, Vec3::ZERO),
        });
    }
    w
}

/// Dense reference damping, replicating the solver's in-place rule
/// `d + λ·max(d, floor)` on a fresh copy of `a`.
fn damp_dense(a: &DMat, lambda: f64) -> DMat {
    let mut out = a.clone();
    for i in 0..a.rows() {
        let d = a.get(i, i);
        out.set(i, i, d + lambda * d.max(DAMP_FLOOR));
    }
    out
}

/// The dense reference solve in a fresh workspace.
fn dense_solve(
    window: &mut SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
    config: &LmConfig,
) -> SolveReport {
    let mut ws = SolverWorkspace::new();
    solve_with_in_workspace(
        &mut ws,
        window,
        weights,
        prior,
        config,
        &schur_linear_solver,
    )
}

/// Asserts both solves agree bit-for-bit: report and optimized states.
fn assert_solve_equivalent(window: &SlidingWindow, prior: Option<&Prior>, config: &LmConfig) {
    let weights = FactorWeights::default();

    let mut dense_w = window.clone();
    let dense_report = dense_solve(&mut dense_w, &weights, prior, config);

    let mut block_w = window.clone();
    let mut ws = SolverWorkspace::new();
    let block_report = solve_in_workspace(&mut ws, &mut block_w, &weights, prior, config);

    assert_reports_equal(&dense_report, &block_report);
    assert_windows_equal(&dense_w, &block_w);
}

fn assert_reports_equal(dense: &SolveReport, block: &SolveReport) {
    assert_eq!(dense.iterations, block.iterations);
    assert_eq!(dense.initial_cost.to_bits(), block.initial_cost.to_bits());
    assert_eq!(dense.final_cost.to_bits(), block.final_cost.to_bits());
    assert_eq!(dense.converged, block.converged);
    assert_eq!(dense.lambda.to_bits(), block.lambda.to_bits());
    assert_eq!(
        dense.last_step_norm.to_bits(),
        block.last_step_norm.to_bits()
    );
    assert_eq!(dense.step_norms.len(), block.step_norms.len());
    for (a, b) in dense.step_norms.iter().zip(&block.step_norms) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

fn assert_windows_equal(dense: &SlidingWindow, block: &SlidingWindow) {
    // KeyframeState/Landmark derive PartialEq over f64 fields; combined with
    // the report's bitwise step norms this pins the optimized state.
    assert_eq!(dense.keyframes, block.keyframes);
    assert_eq!(dense.landmarks, block.landmarks);
    assert_eq!(dense.observations, block.observations);
}

#[test]
fn block_assembly_matches_dense_bitwise() {
    for (num_kf, num_lm, seed) in [(2, 1, 3), (3, 7, 11), (4, 12, 7), (5, 20, 42)] {
        let w = make_window(num_kf, num_lm, seed);
        let weights = FactorWeights::default();
        let ne = build_normal_equations(&w, &weights, None);

        let mut sys = BlockSparseSystem::new();
        let info = build_block_normal_equations(&w, &weights, None, &mut sys);
        assert_eq!(info.cost.to_bits(), ne.cost.to_bits());
        assert_eq!(info.num_landmarks, ne.num_landmarks);
        assert_eq!(info.used_observations, ne.used_observations);

        let (a, b) = sys.to_dense();
        assert_eq!(a.rows(), ne.a.rows());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert_eq!(
                    a.get(i, j).to_bits(),
                    ne.a.get(i, j).to_bits(),
                    "A[{i}][{j}] differs ({num_kf} kf, {num_lm} lm)"
                );
            }
            assert_eq!(b[i].to_bits(), ne.b[i].to_bits(), "b[{i}] differs");
        }
    }
}

#[test]
fn damped_linear_solve_matches_dense() {
    let w = make_window(4, 14, 9);
    let weights = FactorWeights::default();
    let ne = build_normal_equations(&w, &weights, None);

    let mut sys = BlockSparseSystem::new();
    build_block_normal_equations(&w, &weights, None, &mut sys);
    let mut scratch = SchurScratch::default();
    let mut out = archytas_math::DVec::zeros(0);

    // Sequential damp calls exercise the snapshot-undo path: the second
    // damping must start from the undamped diagonal, not stack on the first.
    for lambda in [1e-4, 3e-2, 0.5] {
        let damped = damp_dense(&ne.a, lambda);
        let reference =
            schur_linear_solver(&damped, &ne.b, ne.num_landmarks).expect("dense solve succeeds");

        sys.damp(lambda, DAMP_FLOOR);
        sys.solve_into(&mut scratch, &mut out)
            .expect("block solve succeeds");
        assert_eq!(out.len(), reference.len());
        for i in 0..out.len() {
            assert_eq!(
                out[i].to_bits(),
                reference[i].to_bits(),
                "x[{i}] differs at lambda={lambda}"
            );
        }
    }
}

#[test]
fn full_solve_equivalent_visual_only() {
    let config = LmConfig::default();
    for (num_kf, num_lm, seed) in [(2, 3, 1), (3, 10, 5), (4, 24, 17)] {
        let w = make_window(num_kf, num_lm, seed);
        assert_solve_equivalent(&w, None, &config);
    }
}

#[test]
fn full_solve_equivalent_with_imu_and_prior() {
    let weights = FactorWeights::default();
    let full = make_imu_window();
    let result = try_marginalize_oldest(&full, &weights, None).unwrap();
    let mut w = result.window;
    // Perturb the survivors so the prior actually pulls on the solution.
    for kf in w.keyframes.iter_mut().skip(1) {
        kf.pose.trans = kf.pose.trans + Vec3::new(0.01, -0.005, 0.004);
    }
    for lm in &mut w.landmarks {
        lm.inv_depth *= 1.05;
    }
    assert_solve_equivalent(&w, Some(&result.prior), &LmConfig::default());
}

#[test]
fn workspace_reuse_across_window_shapes() {
    // One workspace across windows of growing and shrinking size: buffers are
    // resized and reused, and every solve must still match a fresh dense run.
    let config = LmConfig::default();
    let weights = FactorWeights::default();
    let mut ws = SolverWorkspace::new();
    for (num_kf, num_lm, seed) in [(4, 20, 2), (2, 2, 8), (5, 30, 21), (3, 1, 13)] {
        let template = make_window(num_kf, num_lm, seed);

        let mut dense_w = template.clone();
        let dense_report = dense_solve(&mut dense_w, &weights, None, &config);

        let mut block_w = template.clone();
        let block_report = solve_in_workspace(&mut ws, &mut block_w, &weights, None, &config);

        assert_reports_equal(&dense_report, &block_report);
        assert_windows_equal(&dense_w, &block_w);
    }
}

#[test]
fn no_landmark_window_falls_back_identically() {
    // p = 0: the Schur split degenerates and both paths go straight through
    // a dense Cholesky of the pose block (held together by the prior).
    let weights = FactorWeights::default();
    let full = make_imu_window();
    let result = try_marginalize_oldest(&full, &weights, None).unwrap();
    let mut w = result.window;
    w.landmarks.clear();
    w.observations.clear();
    assert_solve_equivalent(&w, Some(&result.prior), &LmConfig::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_full_solve_equivalent(
        num_kf in 2usize..5,
        num_lm in 1usize..14,
        seed in 0u64..1_000_000,
    ) {
        let w = make_window(num_kf, num_lm, seed);
        let config = LmConfig { max_iterations: 3, ..LmConfig::default() };
        assert_solve_equivalent(&w, None, &config);
    }
}
