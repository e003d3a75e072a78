//! Fig. 16 — average speedup and energy reduction (±1 σ across sequences)
//! of the High-Perf and Low-Power designs over the Intel and Arm baselines
//! on the full KITTI + EuRoC suites (no dynamic optimization).
//!
//! Sequences are generated in parallel (`ARCHYTAS_THREADS` controls the
//! worker count); each CPU's per-window time is computed once per
//! sequence, and the designs are priced by direct model calls.
//!
//! Run: `cargo run --release -p archytas-bench --bin fig16`
//! (`ARCHYTAS_FULL=1` for full-length sequences).

use archytas_bench::{banner, fig16_result, print_table, suite};

fn main() {
    banner(
        "Fig. 16",
        "mean speedup & energy reduction of High-Perf / Low-Power (KITTI + EuRoC)",
    );

    let result = fig16_result(&suite());
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.design.to_string(),
                r.baseline.split(' ').next().unwrap_or("?").to_string(),
                format!("{:.1}x ± {:.1}", r.speedup.0, r.speedup.1),
                format!("{:.1}x ± {:.1}", r.energy_reduction.0, r.energy_reduction.1),
            ]
        })
        .collect();
    print_table(
        &["design", "baseline", "speedup", "energy reduction"],
        &rows,
    );

    println!();
    println!("paper's Fig. 16: High-Perf 6.2x/74.0x (Intel), 39.7x/14.6x (Arm);");
    println!("                 Low-Power 3.7x/68.6x (Intel), 23.6x/13.6x (Arm)");
    println!("shape checks: High-Perf > Low-Power in speedup; energy reduction vs Intel ≫ vs Arm;");
    println!("              error bars small relative to means (consistent across sequences)");
}
