//! End-to-end integration: algorithm description → generated accelerator →
//! on-vehicle execution on a synthetic sequence, checked against the CPU
//! baseline.

use std::sync::Arc;

use archytas_baselines::CpuPlatform;
use archytas_core::{
    elaborate, run_sequence, AlgorithmDescription, Archytas, DesignSpec, Executor, IterPolicy,
    RuntimeSystem, ITER_CAP,
};
use archytas_dataset::{euroc_sequences, kitti_sequences};
use archytas_hw::{AcceleratorModel, FpgaPlatform, HIGH_PERF};
use archytas_mdfg::ProblemShape;

#[test]
fn generate_then_drive_kitti() {
    // Generate an accelerator for the SLAM description.
    let spec = DesignSpec::zc706_power_optimal(4.0);
    let acc =
        Archytas::generate(&AlgorithmDescription::slam_typical(), &spec).expect("feasible design");
    let elab = elaborate(&acc.verilog);
    assert!(elab.is_ok(), "{:?}", elab.errors);

    // Drive a short KITTI-like sequence through it.
    let data = kitti_sequences()[3].truncated(4.0).build();
    let exec = Executor::Accelerator {
        model: Arc::new(AcceleratorModel::new(
            acc.design.config,
            FpgaPlatform::zc706(),
        )),
        runtime: None,
    };
    let run = run_sequence(&data, exec);
    assert!(!run.windows.is_empty());
    // Latency per window stays within the design constraint (the modelled
    // workload can only be easier than the spec's worst case).
    for w in &run.windows {
        assert!(
            w.latency_ms <= 4.0 + 1e-6,
            "window {} took {} ms",
            w.window_id,
            w.latency_ms
        );
    }
    // The estimator tracks ground truth.
    assert!(run.rmse_m < 1.0, "rmse {}", run.rmse_m);
}

#[test]
fn accelerator_beats_cpu_on_euroc() {
    let data = euroc_sequences()[0].truncated(4.0).build();

    let accel = Executor::Accelerator {
        model: Arc::new(AcceleratorModel::new(HIGH_PERF, FpgaPlatform::zc706())),
        runtime: None,
    };
    let accel_run = run_sequence(&data, accel);

    let cpu = Executor::Cpu {
        platform: CpuPlatform::intel_comet_lake(),
        iterations: ITER_CAP,
    };
    let cpu_run = run_sequence(&data, cpu);

    let speedup = cpu_run.total_time_ms / accel_run.total_time_ms;
    let energy = cpu_run.total_energy_mj / accel_run.total_energy_mj;
    assert!(speedup > 3.0, "speedup {speedup:.1}");
    assert!(energy > 20.0, "energy reduction {energy:.1}");
    // Single-precision datapath tracks the double-precision estimate.
    assert!(
        (accel_run.rmse_m - cpu_run.rmse_m).abs() < 0.05,
        "accel {} vs cpu {}",
        accel_run.rmse_m,
        cpu_run.rmse_m
    );
}

#[test]
fn dynamic_runtime_saves_energy_end_to_end() {
    let data = kitti_sequences()[5].truncated(4.0).build();
    let platform = FpgaPlatform::zc706();

    let run = |dynamic: bool| {
        let runtime = dynamic.then(|| {
            RuntimeSystem::new(
                HIGH_PERF,
                &ProblemShape::typical(),
                2.5,
                &platform,
                IterPolicy::default_table(),
            )
        });
        let exec = Executor::Accelerator {
            model: Arc::new(AcceleratorModel::new(HIGH_PERF, platform.clone())),
            runtime,
        };
        run_sequence(&data, exec)
    };
    let static_run = run(false);
    let dynamic_run = run(true);
    assert!(dynamic_run.total_energy_mj < static_run.total_energy_mj);
    assert!(dynamic_run.rmse_m < static_run.rmse_m + 0.05);
    // The runtime may only ever reduce per-window iterations below the cap.
    assert!(dynamic_run.windows.iter().all(|w| w.iterations <= ITER_CAP));
}

#[test]
fn non_slam_algorithms_generate_and_fit() {
    for desc in [
        AlgorithmDescription::curve_fitting(),
        AlgorithmDescription::pose_estimation(),
    ] {
        let spec = DesignSpec::zc706_power_optimal(2.0);
        let acc = Archytas::generate(&desc, &spec).expect("feasible");
        assert!(acc.design.resources.fits(&FpgaPlatform::zc706().capacity));
        assert!(acc.design.latency_ms <= 2.0);
        let elab = elaborate(&acc.verilog);
        assert!(elab.is_ok(), "{:?}", elab.errors);
    }
}
