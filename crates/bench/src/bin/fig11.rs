//! Fig. 11 — relative error (left y) rises as the number of feature points
//! (right y) falls, on a KITTI snapshot (sliding windows 400–900).
//!
//! Run: `cargo run --release -p archytas-bench --bin fig11`
//! (set `ARCHYTAS_FULL=1` for the full 400–900 window range; the default
//! covers a shorter stretch for turnaround).

use archytas_bench::{banner, mean, print_table};
use archytas_dataset::{kitti_sequences, PipelineConfig, VioPipeline};
use archytas_slam::SolverWorkspace;

/// Lag (in windows) over which the relative error is measured: 1 s of
/// motion, matching the scale of KITTI's segment-relative error metric.
const LAG: usize = 10;

fn main() {
    banner(
        "Fig. 11",
        "relative error vs feature-point count (KITTI snapshot)",
    );

    // The full 100 s drive covers the deep feature droughts (down to ~20
    // features/window); the paper's snapshot shows windows 400–900 of the
    // same kind of stretch.
    let (duration, first_window, last_window) = (100.0, 10usize, usize::MAX);
    let data = kitti_sequences()[0].truncated(duration).build();
    let mut pipeline = VioPipeline::new(PipelineConfig::default());
    let mut ws = SolverWorkspace::new();

    let mut history: Vec<(usize, usize, archytas_slam::Pose, archytas_slam::Pose)> = Vec::new();
    for frame in &data.frames {
        if !pipeline.push_frame(frame) {
            continue;
        }
        let r = pipeline.optimize_and_slide_in(&mut ws, 4);
        history.push((r.window_id, r.workload.features, r.estimate, r.ground_truth));
    }
    // Relative error over a LAG-window (≈1 s) span ending at each window.
    let mut series: Vec<(usize, usize, f64)> = Vec::new(); // (window, features, rel err)
    for i in LAG..history.len() {
        let (w, f, est, gt) = history[i];
        if !(first_window..=last_window).contains(&w) {
            continue;
        }
        let (_, _, est0, gt0) = history[i - LAG];
        let rel = archytas_slam::relative_error(&est0, &est, &gt0, &gt);
        series.push((w, f, rel));
    }

    // Print a decimated series (every 25th window) as the figure's points.
    let rows: Vec<Vec<String>> = series
        .iter()
        .step_by(25)
        .map(|(w, f, e)| vec![w.to_string(), f.to_string(), format!("{e:.4}")])
        .collect();
    print_table(&["window", "features", "relative error"], &rows);

    // The figure's claim: fewer features ⇒ higher error. Quantify with the
    // error split between the bottom and top feature-count quartiles.
    let mut sorted: Vec<usize> = series.iter().map(|(_, f, _)| *f).collect();
    sorted.sort_unstable();
    let q1 = sorted[sorted.len() / 4];
    let q3 = sorted[3 * sorted.len() / 4];
    let poor: Vec<f64> = series
        .iter()
        .filter(|(_, f, _)| *f <= q1)
        .map(|(_, _, e)| *e)
        .collect();
    let rich: Vec<f64> = series
        .iter()
        .filter(|(_, f, _)| *f >= q3)
        .map(|(_, _, e)| *e)
        .collect();
    println!();
    println!(
        "windows: {}   feature count range: {}..{} (Q1 {q1}, Q3 {q3})",
        series.len(),
        sorted[0],
        sorted[sorted.len() - 1]
    );
    println!(
        "mean relative error | feature-poor quartile: {:.4}   feature-rich quartile: {:.4} ({:.0}% higher when scarce)",
        mean(&poor),
        mean(&rich),
        (mean(&poor) / mean(&rich) - 1.0) * 100.0
    );
    println!(
        "paper's Fig. 11 shape {}: error is higher when features are scarce",
        if mean(&poor) > mean(&rich) * 1.1 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
