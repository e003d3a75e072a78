//! Fig. 15 — speedup and energy reduction of the Fig. 14 Pareto-optimal
//! designs over the Intel and Arm baselines on a KITTI trace.
//!
//! The frontier sweep itself fans out over the worker pool (one synthesis
//! per latency bound), the CPU baselines are evaluated once per window
//! outside the design loop, and the per-design evaluation rows are
//! computed in parallel — all bit-identical to the serial path by
//! `archytas-par`'s determinism contract.
//!
//! Run: `cargo run --release -p archytas-bench --bin fig15`

use archytas_baselines::CpuPlatform;
use archytas_bench::{banner, cpu_window_means, mean, print_table, sequence_shapes};
use archytas_core::{pareto_frontier, DesignSpec};
use archytas_dataset::kitti_sequences;
use archytas_hw::{AcceleratorModel, FpgaPlatform};
use archytas_par::Pool;

fn main() {
    banner(
        "Fig. 15",
        "speedup & energy reduction of Pareto designs over Intel/Arm (KITTI trace)",
    );

    let data = kitti_sequences()[2].truncated(12.0).build();
    let shapes = sequence_shapes(&data, 10);

    let base = DesignSpec::zc706_power_optimal(20.0);
    let frontier = pareto_frontier(&base, (2.2, 10.0), 12);

    // The CPU means are design-independent; hoist them out of the loop.
    let (intel_ms, intel_mj) = cpu_window_means(&CpuPlatform::intel_comet_lake(), &shapes, 6);
    let (arm_ms, arm_mj) = cpu_window_means(&CpuPlatform::arm_a57(), &shapes, 6);

    // One evaluation task per frontier design, fanned out over the pool.
    let evals = Pool::global().par_map(&frontier, |p| {
        let model = AcceleratorModel::new(p.design.config, FpgaPlatform::zc706());
        let accel_ms: Vec<f64> = shapes
            .iter()
            .map(|s| model.window_latency_ms(s, 6))
            .collect();
        let accel_mj: Vec<f64> = shapes
            .iter()
            .map(|s| model.window_energy_mj(s, 6))
            .collect();
        (
            intel_ms / mean(&accel_ms),
            intel_mj / mean(&accel_mj),
            arm_ms / mean(&accel_ms),
            arm_mj / mean(&accel_mj),
        )
    });

    let mut rows = Vec::new();
    let mut best = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (p, (s_intel, e_intel, s_arm, e_arm)) in frontier.iter().zip(evals) {
        if s_intel > best.0 {
            best = (s_intel, e_intel, s_arm, e_arm);
        }
        rows.push(vec![
            format!("{:.2}", p.design.latency_ms),
            format!("{:.2}", p.design.power_w),
            format!("{s_intel:.1}x"),
            format!("{e_intel:.1}x"),
            format!("{s_arm:.1}x"),
            format!("{e_arm:.1}x"),
        ]);
    }
    print_table(
        &[
            "latency (ms)",
            "power (W)",
            "speedup vs Intel",
            "energy red. vs Intel",
            "speedup vs Arm",
            "energy red. vs Arm",
        ],
        &rows,
    );

    println!();
    println!(
        "best design: {:.1}x / {:.1}x over Intel, {:.1}x / {:.1}x over Arm",
        best.0, best.1, best.2, best.3
    );
    println!("paper's best on this figure: 7.4x / 83.1x over Intel, 32.0x / 12.9x over Arm");
    println!(
        "shape checks: higher speedup ⇒ higher energy reduction with taper; Arm speedup > Intel speedup; Intel energy reduction > Arm energy reduction"
    );
}
