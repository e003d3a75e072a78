//! Workload-statistics and datapath-fidelity checks: the generated
//! sequences must exhibit the ratios the paper profiles, and the f32
//! accelerator datapath must track the f64 software solve within
//! single-precision error across realistic windows.

use archytas_dataset::{euroc_sequences, kitti_sequences, PipelineConfig, VioPipeline};
use archytas_hw::f32_linear_solver;
use archytas_math::{DMat, DVec};
use archytas_slam::{
    build_block_normal_equations, schur_linear_solver, FactorWeights, SolverWorkspace,
};

#[test]
fn paper_profiling_ratios_hold() {
    // Sec. 4.2: "a typical sliding window on average would have 10× more
    // feature points than keyframes" and "the number of observations is
    // typically 10× more than that of feature points" (within a window the
    // observation count is No ≈ 3–10 per feature; the 10× figure describes
    // dense stretches). Check the generated suites sit in those regimes.
    for spec in [
        kitti_sequences()[1].truncated(6.0),
        euroc_sequences()[0].truncated(6.0),
    ] {
        let data = spec.build();
        let workloads = data.window_workloads(10);
        let mean_features: f64 =
            workloads.iter().map(|w| w.features as f64).sum::<f64>() / workloads.len() as f64;
        let mean_ratio: f64 = workloads
            .iter()
            .map(|w| w.avg_observations_per_feature())
            .sum::<f64>()
            / workloads.len() as f64;
        assert!(
            mean_features > 10.0 * 10.0 * 0.5,
            "{}: features/keyframes ratio too low ({mean_features:.0}/10)",
            data.spec.name
        );
        assert!(
            (2.0..12.0).contains(&mean_ratio),
            "{}: observations/feature {mean_ratio:.1} out of regime",
            data.spec.name
        );
    }
}

#[test]
fn marginalization_count_tracks_window_slide() {
    let data = kitti_sequences()[4].truncated(5.0).build();
    let mut pipeline = VioPipeline::new(PipelineConfig::default());
    let mut ws = SolverWorkspace::new();
    let mut total_marginalized = 0usize;
    let mut windows = 0usize;
    for frame in &data.frames {
        if pipeline.push_frame(frame) {
            let r = pipeline.optimize_and_slide_in(&mut ws, 2);
            total_marginalized += r.workload.marginalized_features;
            windows += 1;
        }
    }
    assert!(windows > 10);
    // On a moving platform, features continuously age out of the window.
    let am_mean = total_marginalized as f64 / windows as f64;
    assert!(am_mean > 1.0, "mean am {am_mean:.1}");
}

#[test]
fn f32_datapath_tracks_f64_across_real_windows() {
    let data = kitti_sequences()[2].truncated(4.0).build();
    let mut pipeline = VioPipeline::new(PipelineConfig::default());
    let weights = FactorWeights::default();
    let mut checked = 0usize;
    let mut ws = SolverWorkspace::new();
    let (mut damped, mut b) = (DMat::zeros(0, 0), DVec::zeros(0));
    for frame in &data.frames {
        if !pipeline.push_frame(frame) {
            continue;
        }
        // Damped normal equations, as LM produces them.
        let (sys, info) =
            build_block_normal_equations(&mut ws, pipeline.window(), &weights, pipeline.prior());
        sys.damp(1e-3, 1e-9);
        sys.to_dense_into(&mut damped, &mut b);
        let x64 = schur_linear_solver(&damped, &b, info.num_landmarks).expect("f64 solvable");
        let x32 = f32_linear_solver(&damped, &b, info.num_landmarks).expect("f32 solvable");
        let rel = (&x64 - &x32).norm() / x64.norm().max(1e-12);
        assert!(rel < 5e-3, "window {checked}: f32 divergence {rel:.2e}");
        checked += 1;
        // Keep the sequence moving.
        let _ = pipeline.optimize_and_slide_in(&mut ws, 2);
        if checked >= 8 {
            break;
        }
    }
    assert!(checked >= 5, "checked only {checked} windows");
}

#[test]
fn drought_sequences_expose_runtime_dynamic_range() {
    // Sec. 6.1's premise: the feature count varies enough at run time that a
    // static worst-case design wastes work. The generated KITTI-like 00 must
    // have a ≥3× spread between its richest and poorest windows.
    // The deep droughts appear past the 40 s mark; cover the full drive.
    let data = kitti_sequences()[0].truncated(100.0).build();
    let workloads = data.window_workloads(10);
    let max = workloads.iter().map(|w| w.features).max().unwrap();
    let min = workloads.iter().map(|w| w.features).min().unwrap();
    assert!(
        max >= 3 * min.max(1),
        "feature spread {min}..{max} too flat for the runtime story"
    );
}
