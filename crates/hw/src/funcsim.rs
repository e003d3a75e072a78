//! Functional model of the accelerator datapath.
//!
//! The generated FPGA designs compute in single precision; the host software
//! computes in double. Served windows reproduce the accelerator's numerics
//! through `archytas_slam`'s LM loop at `Precision::F32`: the block-sparse
//! system is assembled and damped in f64, then cast to f32 for the D-type
//! Schur → Cholesky → substitution pipeline the fabric implements (Fig. 5).
//! That is how the dynamic-optimization accuracy claims (Sec. 7.6) are
//! checked. [`f32_linear_solver`] is the same datapath behind the dense
//! callback of `solve_with_in_workspace`: it loads the dense image of the
//! damped system into an f32 `BlockSparseSystem`, in the window's 6-high
//! `W` block layout, and runs the same `solve_into` with the same
//! fixed-width kernels, so its increments are bit-identical to the served
//! ones. It is kept for callers that time each linear solve and for the
//! equivalence tests below.

use archytas_math::{BlockSparseSystem, DMat, DVec, FVec, SchurScratch};
use std::cell::RefCell;

thread_local! {
    // Reused f32 system, Schur scratch and increment: the LM loop calls the
    // linear solver once per damping retry, and the (q+p)² load and solve
    // buffers would otherwise dominate its allocation traffic. The
    // `LinearSolver` signature is a plain fn, so the reuse lives in
    // thread-local storage rather than a workspace argument.
    static F32_STAGE: RefCell<(BlockSparseSystem<f32>, SchurScratch<f32>, FVec)> =
        RefCell::new((BlockSparseSystem::new(), SchurScratch::default(), FVec::zeros(0)));
}

/// Solves the damped normal equations in the accelerator's single-precision
/// datapath. Returns `None` when the f32 factorization fails, when the f32
/// solution is not finite (the LM loop raises λ, exactly as on the FPGA), or
/// when `a`, `b` and `num_landmarks` do not describe one square system in
/// the window layout (see `BlockSparseSystem::load_dense`).
pub fn f32_linear_solver(a: &DMat, b: &DVec, num_landmarks: usize) -> Option<DVec> {
    F32_STAGE.with(|stage| {
        let (sys, scratch, x32) = &mut *stage.borrow_mut();
        sys.load_dense(a, b, num_landmarks).ok()?;
        sys.solve_into(scratch, x32).ok()?;
        x32.all_finite().then(|| x32.cast())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archytas_dataset::{kitti_sequences, PipelineConfig, VioPipeline};
    use archytas_math::BlockSparseSystem;
    use archytas_slam::{
        build_block_normal_equations, schur_linear_solver, solve_in_workspace,
        solve_with_in_workspace, DegradeReason, FactorWeights, KeyframeState, Landmark, LmConfig,
        Observation, Pose, Precision, Prior, Quat, SlidingWindow, SolveOutcome, SolveReport,
        SolverWorkspace, Vec3, INITIAL_LAMBDA, LAMBDA_UP, MAX_RETRIES, STATE_DIM,
    };

    /// A dense SPD system in the window layout: `landmarks` inverse depths
    /// and `keyframes` 15-dim states, each landmark coupled only to the
    /// 6 pose-tangent rows of every keyframe slot.
    fn spd_system(landmarks: usize, keyframes: usize) -> (DMat, DVec) {
        let n = landmarks + STATE_DIM * keyframes;
        let b = DMat::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1);
        let mut a = b.gram().add_diagonal(n as f64);
        // Diagonalize the landmark block and clear the landmark columns
        // outside the pose-tangent rows, then restore positive definiteness
        // by making the matrix strictly diagonally dominant.
        for i in 0..landmarks {
            for j in 0..n {
                let off_tangent = j >= landmarks && (j - landmarks) % STATE_DIM >= 6;
                if i != j && (j < landmarks || off_tangent) {
                    a.set(i, j, 0.0);
                    a.set(j, i, 0.0);
                }
            }
        }
        let max_off = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| a.get(i, j).abs())
                    .sum::<f64>()
            })
            .fold(0.0f64, f64::max);
        let a = a.add_diagonal(max_off + 1.0);
        let rhs: DVec = (0..n).map(|i| (i as f64) * 0.2 - 1.0).collect();
        (a, rhs)
    }

    #[test]
    fn f32_solution_close_to_f64() {
        let (a, b) = spd_system(25, 1);
        let x64 = schur_linear_solver(&a, &b, 25).unwrap();
        let x32 = f32_linear_solver(&a, &b, 25).unwrap();
        let rel = (&x64 - &x32).norm() / x64.norm();
        assert!(rel < 1e-4, "relative error {rel}");
        // But not identical — the datapath genuinely runs in f32.
        assert!((&x64 - &x32).norm() > 0.0);
    }

    #[test]
    fn f32_handles_no_landmarks() {
        let (a, b) = spd_system(0, 1);
        let x = f32_linear_solver(&a, &b, 0).unwrap();
        assert!((&a.mat_vec(&x) - &b).norm() < 1e-2);
    }

    #[test]
    fn f32_reports_indefinite_systems() {
        let mut a = DMat::identity(STATE_DIM);
        a.set(2, 2, -1.0);
        let mut sys = BlockSparseSystem::<f32>::new();
        // The layout loads; the factorization is what refuses it.
        sys.load_dense(&a, &DVec::zeros(STATE_DIM), 0).unwrap();
        assert!(f32_linear_solver(&a, &DVec::zeros(STATE_DIM), 0).is_none());
    }

    /// Both dense-callback solvers refuse inputs that are not one square
    /// window-shaped system split at `num_landmarks`, rather than panicking.
    #[test]
    fn dense_callback_solvers_reject_malformed_input() {
        let (a, b) = spd_system(5, 1);
        let non_square = a.submatrix(0, 0, 20, 19);
        let short_b: DVec = b.iter().take(19).copied().collect();
        for solver in [f32_linear_solver, schur_linear_solver] {
            assert!(solver(&a, &b, 5).is_some());
            assert!(solver(&a, &b, 21).is_none(), "more landmarks than rows");
            assert!(solver(&a, &b, 6).is_none(), "pose rows not whole slots");
            assert!(solver(&non_square, &b, 5).is_none(), "non-square a");
            assert!(solver(&a, &short_b, 5).is_none(), "short b");
        }
    }

    /// The toy window of the accuracy check: three keyframes, twenty
    /// landmarks with inverse depths 10 % off.
    fn toy_window() -> SlidingWindow {
        let mut w = SlidingWindow::new();
        let kf0 = KeyframeState::at_pose(Pose::IDENTITY, 0.0);
        let kf1 = KeyframeState::at_pose(
            Pose::new(
                Quat::exp(&Vec3::new(0.0, 0.01, 0.0)),
                Vec3::new(0.4, 0.0, 0.0),
            ),
            0.1,
        );
        let kf2 = KeyframeState::at_pose(Pose::new(Quat::IDENTITY, Vec3::new(0.8, 0.05, 0.0)), 0.2);
        w.keyframes = vec![kf0, kf1, kf2];
        for l in 0..20 {
            let bearing = Vec3::new(
                (l as f64 / 20.0 - 0.5) * 0.6,
                ((l * 3 % 20) as f64 / 20.0 - 0.5) * 0.4,
                1.0,
            );
            let depth = 4.0 + (l % 6) as f64;
            let p_w = kf0.pose.transform(&(bearing * depth));
            w.landmarks.push(Landmark {
                id: l as u64,
                anchor: 0,
                bearing,
                inv_depth: 1.0 / depth * 1.1,
            });
            for kf in 1..3usize {
                let p_c = w.keyframes[kf].pose.inverse_transform(&p_w);
                if p_c.z() > 0.1 {
                    w.observations.push(Observation {
                        landmark: l,
                        keyframe: kf,
                        uv: [p_c.x() / p_c.z(), p_c.y() / p_c.z()],
                    });
                }
            }
        }
        w
    }

    fn f32_config(max_iterations: usize) -> LmConfig {
        LmConfig {
            precision: Precision::F32,
            ..LmConfig::with_iterations(max_iterations)
        }
    }

    /// Pipeline configuration of a served session: Huber-robust weights and
    /// the f32 datapath.
    fn served_config() -> PipelineConfig {
        PipelineConfig {
            weights: FactorWeights::default().with_huber(0.004),
            precision: Precision::F32,
            ..PipelineConfig::default()
        }
    }

    /// A served window: the third full window of a KITTI-like drive, with
    /// the marginalization prior its predecessors left behind.
    fn realistic_window() -> (SlidingWindow, Prior, FactorWeights) {
        let config = served_config();
        let data = kitti_sequences()[2].truncated(4.0).build();
        let mut pipeline = VioPipeline::new(config);
        let mut ws = SolverWorkspace::new();
        for frame in &data.frames {
            if !pipeline.push_frame(frame) {
                continue;
            }
            if pipeline.windows_processed() == 2 {
                let prior = pipeline.prior().expect("a slid window carries a prior");
                return (pipeline.window().clone(), prior.clone(), config.weights);
            }
            pipeline.optimize_and_slide_in(&mut ws, 3);
        }
        panic!("sequence too short for three windows");
    }

    /// Asserts two reports are equal bit for bit.
    fn assert_reports_bitwise(block: &SolveReport, dense: &SolveReport) {
        let bits = |r: &SolveReport| {
            (
                r.iterations,
                r.initial_cost.to_bits(),
                r.final_cost.to_bits(),
                r.converged,
                r.lambda.to_bits(),
                r.last_step_norm.to_bits(),
                r.step_norms.iter().map(|n| n.to_bits()).collect::<Vec<_>>(),
                r.rejected,
                r.outcome,
            )
        };
        assert_eq!(bits(block), bits(dense));
    }

    /// `Debug` prints every f64 in its shortest round-trip form, so equal
    /// renderings mean equal bits (signed zeros included).
    fn assert_windows_bitwise(block: &SlidingWindow, dense: &SlidingWindow) {
        assert_eq!(
            format!("{:?}", block.keyframes),
            format!("{:?}", dense.keyframes)
        );
        assert_eq!(
            format!("{:?}", block.landmarks),
            format!("{:?}", dense.landmarks)
        );
    }

    /// Runs the `F32` block-sparse solve (in `ws`) and the dense
    /// `f32_linear_solver` solve on copies of `window`; asserts they agree
    /// bit for bit and returns the block report.
    fn assert_f32_paths_agree(
        ws: &mut SolverWorkspace,
        window: &SlidingWindow,
        weights: &FactorWeights,
        prior: Option<&Prior>,
        config: &LmConfig,
    ) -> SolveReport {
        let mut block_w = window.clone();
        let block = solve_in_workspace(ws, &mut block_w, weights, prior, config);
        let mut dense_w = window.clone();
        let dense = solve_with_in_workspace(
            &mut SolverWorkspace::new(),
            &mut dense_w,
            weights,
            prior,
            config,
            &f32_linear_solver,
        );
        assert_reports_bitwise(&block, &dense);
        assert_windows_bitwise(&block_w, &dense_w);
        block
    }

    #[test]
    fn f32_block_solve_matches_dense_f32_solver_bitwise() {
        let mut ws = SolverWorkspace::new();
        let weights = FactorWeights::default();
        let r = assert_f32_paths_agree(&mut ws, &toy_window(), &weights, None, &f32_config(6));
        assert!(
            r.iterations >= 2,
            "toy solve stopped after {}",
            r.iterations
        );

        let (window, prior, weights) = realistic_window();
        assert!(window.num_keyframes() > 3 && window.num_landmarks() > 20);
        for iterations in [1, 3, 6] {
            let config = f32_config(iterations);
            let r = assert_f32_paths_agree(&mut ws, &window, &weights, Some(&prior), &config);
            assert!(!r.step_norms.is_empty());
        }

        // Zero landmarks: both paths run `refactor_diff` against an empty
        // Schur product.
        let mut bare = window;
        bare.landmarks.clear();
        bare.observations.clear();
        let r = assert_f32_paths_agree(&mut ws, &bare, &weights, Some(&prior), &f32_config(6));
        assert!(!r.step_norms.is_empty());
    }

    /// A whole served sequence, window after window (each solve feeding the
    /// next window's prior): the `F32` pipeline and the dense-callback
    /// pipeline close every window with identical bits.
    #[test]
    fn f32_served_sequence_matches_dense_replay() {
        let data = kitti_sequences()[0].truncated(6.0).build();
        let mut block = VioPipeline::new(served_config());
        let mut dense = VioPipeline::new(served_config());
        let (mut block_ws, mut dense_ws) = (SolverWorkspace::new(), SolverWorkspace::new());
        let mut windows = 0;
        for frame in &data.frames {
            let closes = block.push_frame(frame);
            assert_eq!(closes, dense.push_frame(frame));
            if !closes {
                continue;
            }
            let iterations = 1 + windows % 6;
            let b = block.optimize_and_slide_in(&mut block_ws, iterations);
            let d = dense.optimize_and_slide_with_in(&mut dense_ws, iterations, &f32_linear_solver);
            assert_reports_bitwise(&b.report, &d.report);
            assert_eq!(format!("{:?}", b.estimate), format!("{:?}", d.estimate));
            windows += 1;
        }
        assert!(windows >= 10, "only {windows} windows");
        assert_windows_bitwise(block.window(), dense.window());
    }

    /// An observation 1e34 off its projection puts right-hand-side entries
    /// above `f32::MAX`: finite in f64, infinite once cast. Neither f32 path
    /// may call that a non-finite objective — the f32 solve has no finite
    /// solution, so each damping retry is a failed linear solve.
    #[test]
    fn f32_overflow_counts_as_a_failed_solve_on_both_paths() {
        let mut window = toy_window();
        window.observations[0].uv = [1e34, -1e34];
        let weights = FactorWeights::default();
        let mut ws = SolverWorkspace::new();
        let (sys, _) = build_block_normal_equations(&mut ws, &window, &weights, None);
        let (mut a, mut b) = (DMat::zeros(0, 0), DVec::zeros(0));
        sys.to_dense_into(&mut a, &mut b);
        assert!(a.all_finite() && b.all_finite());
        assert!(b.iter().any(|v| v.abs() > f64::from(f32::MAX)));

        // The λ trajectory of the failing retries: every one of the
        // `MAX_RETRIES + 1` dampings fails and raises λ.
        let r = assert_f32_paths_agree(&mut ws, &window, &weights, None, &f32_config(3));
        assert_eq!(
            r.outcome,
            SolveOutcome::Degraded {
                reason: DegradeReason::LinearSolveFailed
            }
        );
        assert_eq!(r.iterations, 1);
        let expected = INITIAL_LAMBDA * LAMBDA_UP.powi(MAX_RETRIES as i32 + 1);
        assert!((r.lambda / expected - 1.0).abs() < 1e-12, "λ {}", r.lambda);
    }

    /// End-to-end: the accelerator's estimate must match the software's to
    /// sub-millimetre accuracy on a toy window (Sec. 7.6 reports ≤0.01 cm
    /// mean degradation).
    #[test]
    fn accelerated_estimate_matches_software() {
        let weights = FactorWeights::default();
        let cfg = LmConfig::default();

        let mut ws = SolverWorkspace::new();
        let mut sw = toy_window();
        let r_sw = solve_in_workspace(&mut ws, &mut sw, &weights, None, &cfg);
        let mut acc = toy_window();
        let r_acc = solve_in_workspace(
            &mut ws,
            &mut acc,
            &weights,
            None,
            &LmConfig {
                precision: Precision::F32,
                ..cfg
            },
        );

        assert!(r_acc.final_cost < r_sw.initial_cost * 1e-3);
        for (a, b) in sw.keyframes.iter().zip(&acc.keyframes) {
            let d = a.pose.translation_distance(&b.pose);
            assert!(d < 1e-4, "pose divergence {d} m");
        }
        // But not identical: the solve genuinely ran in f32.
        assert_ne!(
            format!("{:?}", sw.keyframes),
            format!("{:?}", acc.keyframes)
        );
    }
}
