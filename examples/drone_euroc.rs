//! Drone scenario: a EuRoC-like machine-hall flight on the Low-Power
//! design, static vs dynamically optimized — the run-time system's
//! clock-gating energy story (paper Sec. 6/7.6).
//!
//! Both runs solve every window through a reused `SolverWorkspace`, and
//! the dynamic run feeds the estimator's health verdict to the runtime
//! (`step_with_health`): its energy savings come with a safety interlock
//! that pins full compute whenever the estimator reports trouble.
//!
//! Run: `cargo run --release --example drone_euroc`

use std::sync::Arc;

use archytas_core::{run_sequence, Executor, IterPolicy, RuntimeSystem};
use archytas_dataset::euroc_sequences;
use archytas_hw::{window_energy_breakdown, AcceleratorModel, FpgaPlatform, PowerModel, LOW_POWER};
use archytas_mdfg::ProblemShape;

fn main() {
    let data = euroc_sequences()[2].truncated(20.0).build();
    println!("sequence {}: {} frames", data.spec.name, data.frames.len());

    let platform = FpgaPlatform::zc706();

    let model = Arc::new(AcceleratorModel::new(LOW_POWER, platform.clone()));

    let static_exec = Executor::Accelerator {
        model: Arc::clone(&model),
        runtime: None,
    };
    let static_run = run_sequence(&data, static_exec);

    let dynamic_exec = Executor::Accelerator {
        model,
        runtime: Some(RuntimeSystem::new(
            LOW_POWER,
            &ProblemShape::typical(),
            3.5,
            &platform,
            IterPolicy::default_table(),
        )),
    };
    let dynamic_run = run_sequence(&data, dynamic_exec);

    println!("\n{:<26}{:>12}{:>12}", "", "static", "dynamic");
    println!(
        "{:<26}{:>12.1}{:>12.1}",
        "total energy (mJ)", static_run.total_energy_mj, dynamic_run.total_energy_mj
    );
    println!(
        "{:<26}{:>12.2}{:>12.2}",
        "mean power (W)",
        static_run.mean_power_w(),
        dynamic_run.mean_power_w()
    );
    println!(
        "{:<26}{:>12.2}{:>12.2}",
        "mean NLS iterations",
        static_run.mean_iterations(),
        dynamic_run.mean_iterations()
    );
    println!(
        "{:<26}{:>12.3}{:>12.3}",
        "energy per window (mJ)",
        static_run.total_energy_mj / static_run.windows.len().max(1) as f64,
        dynamic_run.total_energy_mj / dynamic_run.windows.len().max(1) as f64
    );
    println!(
        "{:<26}{:>12.2}{:>12.2}",
        "trajectory RMSE (cm)",
        static_run.rmse_m * 100.0,
        dynamic_run.rmse_m * 100.0
    );
    println!(
        "\ndynamic optimization saves {:.1}% energy at {:+.2} cm RMSE impact",
        (1.0 - dynamic_run.total_energy_mj / static_run.total_energy_mj) * 100.0,
        (dynamic_run.rmse_m - static_run.rmse_m) * 100.0
    );
    println!(
        "safety interlock: {} degraded window(s), watchdog engaged on {} window(s) \
         (clean flight: both zero, so every saving above came from healthy windows)",
        dynamic_run.degraded_windows(),
        dynamic_run.watchdog_windows()
    );

    // Where the energy goes inside one window (per-block accounting from
    // the cycle-level simulator).
    let breakdown = window_energy_breakdown(
        &ProblemShape::typical(),
        &LOW_POWER,
        6,
        &PowerModel::for_platform(&platform),
        platform.clock_mhz,
    );
    println!(
        "
per-block energy of one full window ({:.2} ms):",
        breakdown.window_ms
    );
    for (block, active, idle) in &breakdown.per_block {
        println!("  {block:<18?} active {active:.3} mJ, idle {idle:.3} mJ");
    }
    println!(
        "  base/static: {:.3} mJ | idle headroom a finer gating scheme could reclaim: {:.3} mJ",
        breakdown.base_mj,
        breakdown.idle_mj()
    );

    // A flight battery story: mWh per minute of flight at 10 Hz windows.
    let per_minute_mwh = |mj_total: f64, windows: usize| {
        let mj_per_window = mj_total / windows.max(1) as f64;
        mj_per_window * 600.0 / 3600.0 // 600 windows/minute, mJ → mWh
    };
    println!(
        "localization energy: {:.2} mWh/min static vs {:.2} mWh/min dynamic",
        per_minute_mwh(static_run.total_energy_mj, static_run.windows.len()),
        per_minute_mwh(dynamic_run.total_energy_mj, dynamic_run.windows.len()),
    );
}
