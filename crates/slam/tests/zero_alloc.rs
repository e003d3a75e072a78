//! Counting-allocator proof that the LM hot path is allocation-free after
//! warmup.
//!
//! One test function only: the counter is a process-global, so this file must
//! not share its binary with other tests whose threads would allocate
//! concurrently.
//!
//! The measurement is a *per-iteration delta*: with a warmed
//! [`SolverWorkspace`], a 6-iteration solve must allocate exactly as much as
//! a 1-iteration solve on an identical window — i.e. the five extra LM
//! iterations (assembly, damping, Schur elimination, Cholesky, triangular
//! solves, cost evaluation, candidate bookkeeping) perform zero heap
//! allocations. Per-solve fixed costs that don't scale with iterations
//! cancel out of the delta.
//!
//! The same proof covers the served precision: at [`Precision::F32`] the
//! extra iterations (now including the cast into the workspace's f32 twin)
//! and extra damping retries allocate nothing either. It also covers the
//! served shape, a window carrying a marginalization prior (whose delta
//! and gradient temporaries live in the workspace), and the
//! marginalize-and-slide that follows each served window, which must not
//! allocate at all once the workspace and the prior have grown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use archytas_slam::{
    build_block_normal_equations, solve_in_workspace, try_marginalize_oldest_in, DegradeReason,
    FactorWeights, ImuConstraint, ImuSample, KeyframeState, Landmark, LmConfig, Observation, Pose,
    Precision, Preintegration, Prior, Quat, SlidingWindow, SolveOutcome, SolveReport,
    SolverWorkspace, Vec3, INITIAL_LAMBDA, LAMBDA_UP, MAX_RETRIES,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A visual+inertial window shaped like the benchmark's (several keyframes,
/// dozens of landmarks, IMU chain), perturbed so LM actually iterates.
/// Landmark `l` is anchored at keyframe `l % anchors` and observed from every
/// other keyframe that sees it.
fn make_window(num_kf: usize, num_lm: usize, anchors: usize) -> SlidingWindow {
    let mut gt_poses = Vec::new();
    let mut w = SlidingWindow::new();
    for i in 0..num_kf {
        let pose = Pose::new(
            Quat::exp(&Vec3::new(0.0, 0.01 * i as f64, 0.0)),
            Vec3::new(0.3 * i as f64, 0.02 * i as f64, 0.0),
        );
        gt_poses.push(pose);
        w.keyframes
            .push(KeyframeState::at_pose(pose, i as f64 * 0.1));
    }
    for l in 0..num_lm {
        let fx = (l as f64 / num_lm as f64 - 0.5) * 0.8;
        let fy = ((l * 7 % num_lm) as f64 / num_lm as f64 - 0.5) * 0.5;
        let depth = 4.0 + (l % 5) as f64;
        let bearing = Vec3::new(fx, fy, 1.0);
        let anchor = l % anchors;
        let p_w = gt_poses[anchor].transform(&(bearing * depth));
        w.landmarks.push(Landmark {
            id: l as u64,
            anchor,
            bearing,
            inv_depth: 1.0 / depth,
        });
        for (kf, pose) in gt_poses.iter().enumerate() {
            if kf == anchor {
                continue;
            }
            let p_c = pose.inverse_transform(&p_w);
            if p_c.z() > 0.1 {
                w.observations.push(Observation {
                    landmark: l,
                    keyframe: kf,
                    uv: [p_c.x() / p_c.z(), p_c.y() / p_c.z()],
                });
            }
        }
    }
    for i in 0..num_kf.saturating_sub(1) {
        let samples: Vec<ImuSample> = (0..20)
            .map(|_| ImuSample {
                gyro: Vec3::new(0.0, 0.1, 0.0),
                accel: Vec3::new(0.2, 0.0, 9.81),
                dt: 0.005,
            })
            .collect();
        w.imu.push(ImuConstraint {
            first: i,
            preintegration: Preintegration::integrate(&samples, Vec3::ZERO, Vec3::ZERO),
        });
    }
    // Perturb so the cost is far from the minimum and every budgeted
    // iteration accepts a step.
    for i in 1..w.keyframes.len() {
        w.keyframes[i] = w.keyframes[i].boxplus(&[
            0.01, -0.01, 0.005, 0.05, -0.03, 0.02, 0.01, -0.01, 0.005, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        ]);
    }
    for lm in &mut w.landmarks {
        lm.inv_depth *= 1.2;
    }
    w
}

/// Allocations of one warmed solve of `window` under `config`: the minimum
/// over repeats. The counter is process-global, so a concurrent harness
/// thread can leak stray allocations into a measured region; the solver
/// itself is deterministic and noise only ever *adds*, so the minimum is the
/// solver's true count. The input window is cloned outside the measured
/// region.
fn measure(
    ws: &mut SolverWorkspace,
    window: &SlidingWindow,
    prior: Option<&Prior>,
    weights: &FactorWeights,
    config: &LmConfig,
) -> (u64, SolveReport) {
    let mut best = u64::MAX;
    let mut report = None;
    for _ in 0..5 {
        let mut w = window.clone();
        let before = allocations();
        let r = solve_in_workspace(ws, &mut w, weights, prior, config);
        best = best.min(allocations() - before);
        report = Some(r);
    }
    (best, report.expect("measured at least once"))
}

/// Asserts that the LM iterations beyond the first allocate nothing at
/// `precision`: a warmed 6-iteration solve allocates exactly as much as a
/// 1-iteration solve of the same window (and prior).
fn assert_iterations_allocate_nothing(
    ws: &mut SolverWorkspace,
    window: &SlidingWindow,
    prior: Option<&Prior>,
    weights: &FactorWeights,
    precision: Precision,
) {
    let config = |iterations| LmConfig {
        precision,
        ..LmConfig::with_iterations(iterations)
    };
    // Warmup: grow every workspace buffer (block system, Schur scratch,
    // Cholesky, f32 twin, candidate window, increment) to this window's
    // shape.
    let r = solve_in_workspace(ws, &mut window.clone(), weights, prior, &config(6));
    assert!(r.iterations >= 1);

    let (short_allocs, short) = measure(ws, window, prior, weights, &config(1));
    let (long_allocs, long) = measure(ws, window, prior, weights, &config(6));

    // Both solves must have actually iterated (same window, same warmed
    // workspace — the only difference is the iteration budget).
    assert_eq!(short.iterations, 1);
    assert!(
        long.iterations > short.iterations,
        "{precision:?} (prior: {}): long solve stopped after {} iterations",
        prior.is_some(),
        long.iterations
    );
    assert_eq!(
        long_allocs,
        short_allocs,
        "{precision:?} (prior: {}): the {} extra LM iterations allocated {} times \
         (1-iter solve: {short_allocs}, {}-iter solve: {long_allocs})",
        prior.is_some(),
        long.iterations - short.iterations,
        long_allocs as i64 - short_allocs as i64,
        long.iterations,
    );
}

#[test]
fn lm_iterations_allocate_nothing_after_warmup() {
    let weights = FactorWeights::default();
    let window = make_window(6, 60, 1);
    let mut ws = SolverWorkspace::new();
    assert_iterations_allocate_nothing(&mut ws, &window, None, &weights, Precision::F64);
    assert_iterations_allocate_nothing(&mut ws, &window, None, &weights, Precision::F32);

    // The served shape: a window that has slid once and carries the prior
    // its marginalization produced.
    let mut served = make_window(8, 80, 4);
    let mut slot = None;
    try_marginalize_oldest_in(
        &mut SolverWorkspace::new(),
        &mut served,
        &weights,
        &mut slot,
    )
    .unwrap();
    let prior = slot.unwrap();
    assert!(served.num_landmarks() > 0 && prior.dim() > 0);
    for precision in [Precision::F64, Precision::F32] {
        assert_iterations_allocate_nothing(&mut ws, &served, Some(&prior), &weights, precision);
    }

    // Steady-state marginalize-and-slide into the warmed workspace: the
    // window shrinks in place and the new prior reuses the old one's
    // buffers, so nothing is allocated. Inputs are cloned outside the
    // measured region; minimum over repeats, as above.
    let marginalize = |ws: &mut SolverWorkspace| {
        let mut w = served.clone();
        let mut slot = Some(prior.clone());
        let before = allocations();
        let am = try_marginalize_oldest_in(ws, &mut w, &weights, &mut slot).expect("SPD");
        let allocated = allocations() - before;
        assert!(am > 0 && w.num_keyframes() + 1 == served.num_keyframes());
        allocated
    };
    marginalize(&mut ws);
    let slide_best = (0..5).map(|_| marginalize(&mut ws)).min().unwrap();
    assert_eq!(
        slide_best, 0,
        "warmed marginalize-and-slide allocated {slide_best} times"
    );

    // F32 damping retries. One observation 1e34 off its projection puts
    // right-hand-side entries beyond f32 range, so every retry runs the full
    // damp → cast → Schur → Cholesky → substitution cycle and then rejects
    // the non-finite f32 increment. All `MAX_RETRIES + 1` failing retries
    // together must allocate no more than a 1-iteration solve of the clean
    // window, whose single damping is accepted.
    let mut overflowing = window.clone();
    overflowing.observations[0].uv = [1e34, -1e34];
    let f32_config = |iterations| LmConfig {
        precision: Precision::F32,
        ..LmConfig::with_iterations(iterations)
    };
    let (clean_allocs, clean) = measure(&mut ws, &window, None, &weights, &f32_config(1));
    let (retry_allocs, retried) = measure(&mut ws, &overflowing, None, &weights, &f32_config(6));
    let failed = SolveOutcome::Degraded {
        reason: DegradeReason::LinearSolveFailed,
    };
    assert_eq!((clean.step_norms.len(), retried.outcome), (1, failed));
    let expected = INITIAL_LAMBDA * LAMBDA_UP.powi(MAX_RETRIES as i32 + 1);
    assert!(
        (retried.lambda / expected - 1.0).abs() < 1e-12,
        "every retry ran"
    );
    assert!(
        retry_allocs <= clean_allocs,
        "{} failing F32 damping retries allocated {retry_allocs} times, \
         a clean 1-iteration solve {clean_allocs}",
        MAX_RETRIES + 1,
    );

    // The fixed-width dispatch path in isolation: on this window the block
    // assembler and Schur solve run the fused kb = 6 kernels (whole-
    // observation visual scatter, rank-6 SYRK, fold back-substitution), and
    // a warmed assemble→damp→solve cycle must not allocate at all — not
    // merely "no more than a 1-iteration solve". Same minimum-over-repeats
    // discipline as above for counter noise.
    // The f32 leg repeats it through the cast: damp in f64, cast into the
    // warmed f32 twin, solve there, cast the increment back.
    let mut scratch = archytas_math::SchurScratch::default();
    let mut delta = archytas_math::DVec::zeros(0);
    let mut sys32 = archytas_math::BlockSparseSystem::<f32>::new();
    let mut scratch32 = archytas_math::SchurScratch::default();
    let mut delta32 = archytas_math::FVec::zeros(0);
    let mut cycle = |ws: &mut SolverWorkspace| {
        let (sys, _) = build_block_normal_equations(ws, &window, &weights, None);
        sys.damp(1e-3, 1e-9);
        sys.solve_into(&mut scratch, &mut delta).unwrap();
        sys.cast_into(&mut sys32);
        sys32.solve_into(&mut scratch32, &mut delta32).unwrap();
        delta32.cast_into(&mut delta);
    };
    let mut lin_ws = SolverWorkspace::new();
    cycle(&mut lin_ws);

    let mut direct_best = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        cycle(&mut lin_ws);
        direct_best = direct_best.min(allocations() - before);
    }
    assert_eq!(
        direct_best, 0,
        "warmed fixed-width assemble/damp/solve/cast cycle allocated {direct_best} times"
    );
}
