//! Fig. 12 — RMSE falls as the average NLS iteration count rises
//! (profiled on KITTI).
//!
//! Run: `cargo run --release -p archytas-bench --bin fig12`

use archytas_bench::{banner, full_run, print_table};
use archytas_dataset::{kitti_sequences, PipelineConfig, VioPipeline};
use archytas_slam::{SolverWorkspace, TrajectoryMetrics};

fn main() {
    banner("Fig. 12", "RMSE vs NLS iteration count (KITTI profiling)");

    // Sequence 00 includes the feature droughts that make the iteration
    // count matter (Fig. 11) — the same coupling the paper's run-time
    // system exploits.
    let duration = if full_run() { 100.0 } else { 40.0 };
    let data = kitti_sequences()[0].truncated(duration).build();

    let mut ws = SolverWorkspace::new();
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for iterations in 1..=6usize {
        let mut pipeline = VioPipeline::new(PipelineConfig::default());
        let mut metrics = TrajectoryMetrics::new();
        for frame in &data.frames {
            if pipeline.push_frame(frame) {
                let r = pipeline.optimize_and_slide_in(&mut ws, iterations);
                metrics.record(&r.estimate, &r.ground_truth, 0.0);
            }
        }
        // Report RMSE in centimetres (the paper's axis is unit-normalized).
        let rmse_cm = metrics.rmse() * 100.0;
        series.push(rmse_cm);
        rows.push(vec![iterations.to_string(), format!("{rmse_cm:.2}")]);
    }
    print_table(&["avg NLS iterations", "RMSE (cm)"], &rows);

    let first = series[0];
    let last = series[5];
    println!();
    println!(
        "RMSE at 1 iteration: {first:.2} cm → at 6 iterations: {last:.2} cm ({:.1}x lower)",
        first / last.max(1e-9)
    );
    let mostly_monotone = series.windows(2).filter(|w| w[1] <= w[0] * 1.05).count() >= 4;
    println!(
        "paper's Fig. 12 shape {}: more iterations lower the error, with diminishing returns",
        if last < first && mostly_monotone {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
