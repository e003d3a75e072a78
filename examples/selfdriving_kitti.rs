//! Self-driving scenario: a KITTI-like drive processed end-to-end on the
//! High-Perf accelerator (with the dynamic run-time optimizer) and on the
//! Intel CPU baseline, comparing latency, energy and accuracy.
//!
//! The drive runs on the current estimator stack: every window is solved
//! through a reused `SolverWorkspace` (no per-window allocation) and the
//! runtime is fed the estimator's per-window health verdict via
//! `step_with_health`, so the watchdog telemetry printed at the end is
//! live — on this clean stream it must stay at zero.
//!
//! Run: `cargo run --release --example selfdriving_kitti`

use std::sync::Arc;

use archytas_baselines::CpuPlatform;
use archytas_core::{run_sequence, Executor, IterPolicy, RuntimeSystem, ITER_CAP};
use archytas_dataset::kitti_sequences;
use archytas_hw::{AcceleratorModel, FpgaPlatform, HIGH_PERF};
use archytas_mdfg::ProblemShape;

fn main() {
    let data = kitti_sequences()[0].truncated(20.0).build();
    println!(
        "sequence {}: {} frames, camera {}x{}",
        data.spec.name,
        data.frames.len(),
        data.camera.width,
        data.camera.height
    );

    // Accelerator with the dynamic optimizer (Sec. 6).
    let platform = FpgaPlatform::zc706();
    let accel = Executor::Accelerator {
        model: Arc::new(AcceleratorModel::new(HIGH_PERF, platform.clone())),
        runtime: Some(RuntimeSystem::new(
            HIGH_PERF,
            &ProblemShape::typical(),
            2.5,
            &platform,
            IterPolicy::default_table(),
        )),
    };
    let accel_run = run_sequence(&data, accel);

    // Software baseline on the 12-core Intel machine.
    let cpu = Executor::Cpu {
        platform: CpuPlatform::intel_comet_lake(),
        iterations: ITER_CAP,
    };
    let cpu_run = run_sequence(&data, cpu);

    println!("\n{:<26}{:>14}{:>14}", "", "accelerator", "Intel CPU");
    println!(
        "{:<26}{:>14.2}{:>14.2}",
        "mean window latency (ms)",
        accel_run.mean_latency_ms(),
        cpu_run.mean_latency_ms()
    );
    println!(
        "{:<26}{:>14.1}{:>14.1}",
        "total energy (mJ)", accel_run.total_energy_mj, cpu_run.total_energy_mj
    );
    println!(
        "{:<26}{:>14.2}{:>14.2}",
        "mean power (W)",
        accel_run.mean_power_w(),
        cpu_run.mean_power_w()
    );
    println!(
        "{:<26}{:>14.2}{:>14.2}",
        "mean NLS iterations",
        accel_run.mean_iterations(),
        cpu_run.mean_iterations()
    );
    println!(
        "{:<26}{:>14.2}{:>14.2}",
        "trajectory RMSE (cm)",
        accel_run.rmse_m * 100.0,
        cpu_run.rmse_m * 100.0
    );
    println!(
        "\nspeedup {:.1}x, energy reduction {:.1}x, accuracy within {:.2} cm",
        cpu_run.total_time_ms / accel_run.total_time_ms,
        cpu_run.total_energy_mj / accel_run.total_energy_mj,
        (accel_run.rmse_m - cpu_run.rmse_m).abs() * 100.0
    );

    // Show the run-time knob at work: the per-window iteration histogram,
    // with the modelled energy each budget bucket cost.
    let mut windows_by_iter = [0usize; ITER_CAP + 1];
    let mut energy_by_iter = [0.0f64; ITER_CAP + 1];
    for w in &accel_run.windows {
        let i = w.iterations.min(ITER_CAP);
        windows_by_iter[i] += 1;
        energy_by_iter[i] += w.energy_mj;
    }
    println!(
        "\nper-window NLS iterations chosen by the run-time system \
         ({} total over {} windows):",
        accel_run
            .windows
            .iter()
            .map(|w| w.iterations)
            .sum::<usize>(),
        accel_run.windows.len()
    );
    for (iter, &count) in windows_by_iter.iter().enumerate().filter(|(_, c)| **c > 0) {
        println!(
            "  Iter = {iter}: {count} windows ({:.1} mJ)",
            energy_by_iter[iter]
        );
    }

    // Health-fed runtime telemetry: on a clean drive the degradation
    // ladder never leaves Nominal and the watchdog never overrides the
    // power optimizer.
    println!(
        "estimator health: {} degraded window(s), watchdog engaged on {} window(s)",
        accel_run.degraded_windows(),
        accel_run.watchdog_windows()
    );
}
