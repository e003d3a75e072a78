//! Sec. 7.6 — dynamic optimization: per-window clock gating driven by the
//! iteration-count knob saves double-digit energy with no accuracy loss.
//!
//! Unlike Figs. 13–16 (model-driven sweeps), this experiment *runs the
//! estimator*: every window is optimized through the accelerator's f32
//! functional datapath, so the accuracy numbers are real.
//!
//! Run: `cargo run --release -p archytas-bench --bin sec7_6`

use archytas_bench::{banner, print_table};
use archytas_core::{run_sequence, Executor, IterPolicy, RuntimeSystem};
use archytas_dataset::{euroc_sequences, kitti_sequences, SequenceSpec};
use archytas_hw::{AcceleratorModel, FpgaPlatform, HIGH_PERF, LOW_POWER};
use archytas_mdfg::ProblemShape;

fn run_pair(
    spec: &SequenceSpec,
    config: archytas_hw::AcceleratorConfig,
    bound_ms: f64,
) -> Vec<String> {
    let data = spec.build();
    let platform = FpgaPlatform::zc706();

    let mut static_exec = Executor::Accelerator {
        model: AcceleratorModel::new(config, platform.clone()),
        runtime: None,
    };
    let static_run = run_sequence(&data, &mut static_exec);

    let mut dynamic_exec = Executor::Accelerator {
        model: AcceleratorModel::new(config, platform.clone()),
        runtime: Some(RuntimeSystem::new(
            config,
            &ProblemShape::typical(),
            bound_ms,
            &platform,
            IterPolicy::default_table(),
        )),
    };
    let dynamic_run = run_sequence(&data, &mut dynamic_exec);

    let saving = (1.0 - dynamic_run.total_energy_mj / static_run.total_energy_mj) * 100.0;
    let d_rmse_cm = (dynamic_run.rmse_m - static_run.rmse_m) * 100.0;
    vec![
        spec.name.clone(),
        format!("{:.1}", static_run.total_energy_mj),
        format!("{:.1}", dynamic_run.total_energy_mj),
        format!("{saving:.1}%"),
        format!("{:.2}", static_run.rmse_m * 100.0),
        format!("{:.2}", dynamic_run.rmse_m * 100.0),
        format!("{d_rmse_cm:+.2}"),
    ]
}

fn main() {
    banner(
        "Sec. 7.6",
        "dynamic optimization: energy saving and accuracy impact (estimator actually runs)",
    );

    let duration = if std::env::var("ARCHYTAS_FULL").is_ok() {
        40.0
    } else {
        12.0
    };
    let sequences = [
        kitti_sequences()[0].truncated(duration),
        kitti_sequences()[4].truncated(duration),
        euroc_sequences()[0].truncated(duration),
        euroc_sequences()[2].truncated(duration),
    ];

    for (dname, config, bound) in [("High-Perf", HIGH_PERF, 2.5), ("Low-Power", LOW_POWER, 3.5)] {
        println!("\n--- {dname} (gating bound {bound} ms) ---");
        // Each pair runs the full estimator twice — by far enough work to
        // justify one worker per sequence. Rows come back in input order.
        let rows: Vec<Vec<String>> =
            archytas_par::Pool::global().par_map(&sequences, |s| run_pair(s, config, bound));
        print_table(
            &[
                "sequence",
                "static E (mJ)",
                "dynamic E (mJ)",
                "saving",
                "static RMSE (cm)",
                "dynamic RMSE (cm)",
                "ΔRMSE (cm)",
            ],
            &rows,
        );
    }

    println!();
    println!("paper: High-Perf saves 21.6% (KITTI) / 20.8% (EuRoC); Low-Power 7.7% / 6.8%;");
    println!("       accuracy unchanged on KITTI, ≤0.01 cm mean degradation on EuRoC");
    println!("shape checks: double-digit savings on High-Perf > single/low-double on Low-Power;");
    println!("              ΔRMSE within noise (sometimes negative — the stochastic effect the paper notes)");
}
