//! Bit-identity of the block-sparse solver pipeline against dense
//! references.
//!
//! The block-sparse assembler must produce bit-for-bit the `(A, b)` and cost
//! of an independent dense assembly written straight from the factor
//! evaluators, and the reused-workspace block solve (`solve_in_workspace`)
//! must produce bit-for-bit the same reports and optimized windows as a
//! dense solve of the same damped systems (`solve_with_in_workspace` +
//! `schur_linear_solver`), on fixed and property-generated window shapes,
//! with and without an IMU/marginalization prior.

use archytas_math::{BlockSparseSystem, DMat, DVec, Scalar, SchurScratch, Vector};
use archytas_slam::{
    build_block_normal_equations, evaluate_imu, evaluate_visual, schur_linear_solver,
    solve_in_workspace, solve_with_in_workspace, try_marginalize_oldest_in, FactorWeights,
    ImuConstraint, ImuSample, KeyframeState, Landmark, LmConfig, Observation, Pose, Preintegration,
    Prior, Quat, SlidingWindow, SolveReport, SolverWorkspace, Vec3, GRAVITY, STATE_DIM,
    VISUAL_WEIGHT,
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

/// Normal equations of the dense oracle, with the assembly metadata.
struct DenseNormalEquations {
    a: DMat,
    b: DVec,
    cost: f64,
    num_landmarks: usize,
    used_observations: usize,
}

/// One weighted residual row `e` with Jacobian entries `cols` (ascending
/// global columns): `b[i] -= (w²·Jᵢ)·e` and `A[i][j] += (w²·Jᵢ)·Jⱼ` for
/// `i ≤ j`.
fn add_row(a: &mut DMat, b: &mut DVec, cols: &[(usize, f64)], e: f64, w2: f64) {
    for (k, &(i, ji)) in cols.iter().enumerate() {
        let wj = w2 * ji;
        b[i] -= wj * e;
        for &(j, jj) in &cols[k..] {
            a.add_at(i, j, wj * jj);
        }
    }
}

/// Dense assembly of a window's normal equations from the public factor
/// evaluators, independent of the library's assembler: every factor row in
/// turn (visual factors, then IMU factors) onto the upper triangle, the
/// triangle mirrored, then the marginalization prior — or, without one,
/// the gauge pin on keyframe 0.
fn dense_normal_equations(
    w: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
) -> DenseNormalEquations {
    let n = w.state_dim();
    let (mut a, mut b) = (DMat::zeros(n, n), DVec::zeros(n));
    let (mut cost, mut used) = (0.0, 0);
    for obs in &w.observations {
        let lm = &w.landmarks[obs.landmark];
        if lm.anchor == obs.keyframe {
            continue;
        }
        let Some(ev) = evaluate_visual(
            &w.keyframes[lm.anchor].pose,
            &w.keyframes[obs.keyframe].pose,
            &lm.bearing,
            lm.inv_depth,
            obs.uv,
        ) else {
            continue;
        };
        used += 1;
        let loss = weights.visual_loss(ev.residual[0], ev.residual[1]);
        let mut runs = [
            (w.kf_offset(lm.anchor), ev.j_anchor),
            (w.kf_offset(obs.keyframe), ev.j_obs),
        ];
        runs.sort_by_key(|r| r.0);
        for r in 0..2 {
            let e = ev.residual[r];
            cost += 0.5 * loss.rho_w2 * e * e;
            let mut cols = vec![(obs.landmark, ev.j_rho[r])];
            for (off, j) in &runs {
                cols.extend(j[r].iter().enumerate().map(|(c, &v)| (off + c, v)));
            }
            add_row(&mut a, &mut b, &cols, e, loss.w2);
        }
    }
    for cons in &w.imu {
        let ev = evaluate_imu(
            &w.keyframes[cons.first],
            &w.keyframes[cons.first + 1],
            &cons.preintegration,
        );
        let (off_i, off_j) = (w.kf_offset(cons.first), w.kf_offset(cons.first + 1));
        for r in 0..STATE_DIM {
            let wr = FactorWeights::imu_row(r);
            let (w2, e) = (wr * wr, ev.residual[r]);
            cost += 0.5 * w2 * e * e;
            let cols: Vec<(usize, f64)> = ev.j_i[r]
                .iter()
                .enumerate()
                .map(|(c, &v)| (off_i + c, v))
                .chain(ev.j_j[r].iter().enumerate().map(|(c, &v)| (off_j + c, v)))
                .collect();
            add_row(&mut a, &mut b, &cols, e, w2);
        }
    }
    for i in 0..n {
        for j in i + 1..n {
            a.set(j, i, a.get(i, j));
        }
    }
    let off = w.kf_offset(0);
    if let Some(p) = prior {
        let (info, grad) = (p.information(), p.gradient(w));
        for i in 0..p.dim() {
            b[off + i] -= grad[i];
            for j in 0..p.dim() {
                a.add_at(off + i, off + j, info.get(i, j));
            }
        }
        cost += p.cost(w);
    } else {
        for c in 0..STATE_DIM {
            a.add_at(off + c, off + c, if c < 6 { 1e8 } else { 1e2 });
        }
    }
    DenseNormalEquations {
        a,
        b,
        cost,
        num_landmarks: w.num_landmarks(),
        used_observations: used,
    }
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

/// The dense-callback solve in a fresh workspace.
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
    assert_eq!(dense.rejected, block.rejected);
}

fn assert_windows_equal(dense: &SlidingWindow, block: &SlidingWindow) {
    // KeyframeState/Landmark derive PartialEq over f64 fields; combined with
    // the report's bitwise step norms this pins the optimized state.
    assert_eq!(dense.keyframes, block.keyframes);
    assert_eq!(dense.landmarks, block.landmarks);
    assert_eq!(dense.observations, block.observations);
}

/// The IMU window after one marginalization, its survivors perturbed so
/// the prior pulls on the solution, with that prior.
fn imu_window_with_prior() -> (SlidingWindow, Prior) {
    let mut w = make_imu_window();
    let mut prior = None;
    try_marginalize_oldest_in(
        &mut SolverWorkspace::new(),
        &mut w,
        &FactorWeights::default(),
        &mut prior,
    )
    .expect("the IMU fixture marginalizes");
    for kf in w.keyframes.iter_mut().skip(1) {
        kf.pose.trans = kf.pose.trans + Vec3::new(0.01, -0.005, 0.004);
    }
    for lm in &mut w.landmarks {
        lm.inv_depth *= 1.05;
    }
    (w, prior.expect("marginalization fills the prior"))
}

/// A visual window with every third observation shifted far off its
/// projection, under a Huber threshold that the clean observations pass
/// and the shifted ones exceed.
fn huber_window() -> (SlidingWindow, FactorWeights) {
    let mut w = make_window(4, 12, 7);
    for obs in w.observations.iter_mut().step_by(3) {
        obs.uv[0] += 0.05;
    }
    (w, FactorWeights::default().with_huber(0.005))
}

#[test]
fn block_assembly_matches_dense_bitwise() {
    let mut cases: Vec<(String, SlidingWindow, FactorWeights, Option<Prior>)> = Vec::new();
    for (num_kf, num_lm, seed) in [(2, 1, 3), (3, 7, 11), (4, 12, 7), (5, 20, 42)] {
        let w = make_window(num_kf, num_lm, seed);
        let label = format!("{num_kf} kf, {num_lm} lm");
        cases.push((label, w, FactorWeights::default(), None));
    }
    let weights = FactorWeights::default();
    cases.push(("IMU, gauge".into(), make_imu_window(), weights, None));
    let (w, prior) = imu_window_with_prior();
    cases.push(("IMU, prior".into(), w, weights, Some(prior)));
    let (w, huber) = huber_window();
    cases.push(("Huber".into(), w, huber, None));

    for (label, w, weights, prior) in &cases {
        let ne = dense_normal_equations(w, weights, prior.as_ref());

        let mut ws = SolverWorkspace::new();
        let (sys, info) = build_block_normal_equations(&mut ws, w, weights, prior.as_ref());
        assert_eq!(info.cost.to_bits(), ne.cost.to_bits());
        assert_eq!(info.num_landmarks, ne.num_landmarks);
        assert_eq!(info.used_observations, ne.used_observations);

        let (mut a, mut b) = (DMat::zeros(0, 0), DVec::zeros(0));
        sys.to_dense_into(&mut a, &mut b);
        assert_eq!(a.rows(), ne.a.rows());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert_eq!(
                    a.get(i, j).to_bits(),
                    ne.a.get(i, j).to_bits(),
                    "A[{i}][{j}] differs ({label})"
                );
            }
            assert_eq!(b[i].to_bits(), ne.b[i].to_bits(), "b[{i}] differs");
        }
    }
}

#[test]
fn huber_case_downweights_only_the_shifted_observations() {
    // Guards the Huber assembly case above: it must exercise both sides of
    // the threshold, or it would only repeat the quadratic cases.
    let (w, huber) = huber_window();
    let wv2 = VISUAL_WEIGHT * VISUAL_WEIGHT;
    let weights_sq: Vec<f64> = w
        .observations
        .iter()
        .filter_map(|obs| {
            let lm = &w.landmarks[obs.landmark];
            let ev = evaluate_visual(
                &w.keyframes[lm.anchor].pose,
                &w.keyframes[obs.keyframe].pose,
                &lm.bearing,
                lm.inv_depth,
                obs.uv,
            )?;
            Some(huber.visual_loss(ev.residual[0], ev.residual[1]).w2)
        })
        .collect();
    assert!(weights_sq.contains(&wv2));
    assert!(weights_sq.iter().any(|&s| s < wv2));
}

#[test]
fn damped_linear_solve_matches_dense() {
    let w = make_window(4, 14, 9);
    let weights = FactorWeights::default();
    let ne = dense_normal_equations(&w, &weights, None);

    let mut ws = SolverWorkspace::new();
    let (sys, _) = build_block_normal_equations(&mut ws, &w, &weights, None);
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

/// Nothing the served solve reads lies below `V`'s diagonal: NaN added to
/// every strict-lower entry of an assembled, damped window with a prior
/// leaves the bits of the f64 solve and of the f32 solve of its cast
/// unchanged, and so does a re-assembly over the poisoned system.
#[test]
fn solves_never_read_below_the_v_diagonal() {
    let (w, prior) = imu_window_with_prior();
    let weights = FactorWeights::default();
    fn poison<T: Scalar>(sys: &mut BlockSparseSystem<T>) {
        for r in 0..sys.q() {
            for c in 0..r {
                sys.add_v(r, c, T::from_f64(f64::NAN));
            }
        }
    }
    let solve = |sys: &BlockSparseSystem<f64>, poisoned: bool| {
        let mut out = DVec::zeros(0);
        sys.solve_into(&mut SchurScratch::default(), &mut out)
            .expect("f64 solve succeeds");
        let mut sys32 = BlockSparseSystem::<f32>::new();
        sys.cast_into(&mut sys32);
        if poisoned {
            poison(&mut sys32);
        }
        let mut out32 = Vector::<f32>::zeros(0);
        sys32
            .solve_into(&mut SchurScratch::default(), &mut out32)
            .expect("f32 solve succeeds");
        let bits64: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        let bits32: Vec<u32> = out32.iter().map(|v| v.to_bits()).collect();
        (bits64, bits32)
    };

    let mut ws = SolverWorkspace::new();
    let (sys, _) = build_block_normal_equations(&mut ws, &w, &weights, Some(&prior));
    sys.damp(1e-4, DAMP_FLOOR);
    let clean = solve(sys, false);
    poison(sys);
    assert_eq!(solve(sys, true), clean);

    // `reset` zeroes the upper triangle only: the NaNs stay, unread.
    let (sys, _) = build_block_normal_equations(&mut ws, &w, &weights, Some(&prior));
    sys.damp(1e-4, DAMP_FLOOR);
    assert_eq!(solve(sys, true), clean);
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
    let (w, prior) = imu_window_with_prior();
    assert_solve_equivalent(&w, Some(&prior), &LmConfig::default());
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
    let mut w = make_imu_window();
    let mut prior = None;
    try_marginalize_oldest_in(&mut SolverWorkspace::new(), &mut w, &weights, &mut prior).unwrap();
    w.landmarks.clear();
    w.observations.clear();
    assert_solve_equivalent(&w, prior.as_ref(), &LmConfig::default());
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
