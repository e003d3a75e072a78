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

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use archytas_slam::{
    solve_in_workspace, FactorWeights, ImuConstraint, ImuSample, KeyframeState, Landmark, LmConfig,
    Observation, Pose, Preintegration, Quat, SlidingWindow, SolverWorkspace, Vec3,
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
fn make_window(num_kf: usize, num_lm: usize) -> SlidingWindow {
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
        let p_w = gt_poses[0].transform(&(bearing * depth));
        w.landmarks.push(Landmark {
            id: l as u64,
            anchor: 0,
            bearing,
            inv_depth: 1.0 / depth,
        });
        for kf in 1..num_kf {
            let p_c = gt_poses[kf].inverse_transform(&p_w);
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

#[test]
fn lm_iterations_allocate_nothing_after_warmup() {
    let weights = FactorWeights::default();
    let window = make_window(6, 60);
    let mut ws = SolverWorkspace::new();

    // Warmup: grow every workspace buffer (block system, Schur scratch,
    // Cholesky, candidate window, increment) to this window's shape.
    let mut warm = window.clone();
    let r = solve_in_workspace(
        &mut ws,
        &mut warm,
        &weights,
        None,
        &LmConfig::with_iterations(6),
    );
    assert!(r.iterations >= 1);

    // The counter is process-global, so a concurrent harness thread can leak
    // stray allocations into a measured region. The solver itself is
    // deterministic, and noise only ever *adds* — so measure each budget
    // several times (cloning the input window outside the measured region)
    // and take the minimum, which is the solver's true count.
    let mut measure = |iterations: usize| -> (u64, usize) {
        let mut best = u64::MAX;
        let mut iters_ran = 0;
        for _ in 0..5 {
            let mut w = window.clone();
            let before = allocations();
            let r = solve_in_workspace(
                &mut ws,
                &mut w,
                &weights,
                None,
                &LmConfig::with_iterations(iterations),
            );
            best = best.min(allocations() - before);
            iters_ran = r.iterations;
        }
        (best, iters_ran)
    };

    let (short_allocs, short_iters) = measure(1);
    let (long_allocs, long_iters) = measure(6);

    // Both solves must have actually iterated (same window, same warmed
    // workspace — the only difference is the iteration budget).
    assert_eq!(short_iters, 1);
    assert!(
        long_iters > short_iters,
        "long solve stopped after {long_iters} iterations"
    );

    assert_eq!(
        long_allocs,
        short_allocs,
        "the {} extra LM iterations allocated {} times \
         (1-iter solve: {short_allocs}, {long_iters}-iter solve: {long_allocs})",
        long_iters - short_iters,
        long_allocs as i64 - short_allocs as i64,
    );

    // The fixed-width dispatch path in isolation: on this window the block
    // assembler and Schur solve run the fused kb = 6 kernels (whole-
    // observation visual scatter, rank-6 SYRK, fold back-substitution), and
    // a warmed assemble→damp→solve cycle must not allocate at all — not
    // merely "no more than a 1-iteration solve". Same minimum-over-repeats
    // discipline as above for counter noise.
    let mut sys = archytas_math::BlockSparseSystem::new();
    let mut scratch = archytas_math::SchurScratch::default();
    let mut delta = archytas_math::DVec::zeros(0);
    let weights2 = FactorWeights::default();
    archytas_slam::build_block_normal_equations(&window, &weights2, None, &mut sys);
    sys.damp(1e-3, 1e-9);
    sys.solve_into(&mut scratch, &mut delta).unwrap();

    let mut direct_best = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        archytas_slam::build_block_normal_equations(&window, &weights2, None, &mut sys);
        sys.damp(1e-3, 1e-9);
        sys.solve_into(&mut scratch, &mut delta).unwrap();
        direct_best = direct_best.min(allocations() - before);
    }
    assert_eq!(
        direct_best, 0,
        "warmed fixed-width assemble/damp/solve cycle allocated {direct_best} times"
    );
}
