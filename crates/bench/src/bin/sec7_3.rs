//! Sec. 7.3 — hardware generator efficiency: the synthesizer identifies a
//! design in seconds where exhaustively synthesizing the ~90,000-point
//! design space through the FPGA flow would take ~15 years.
//!
//! Run: `cargo run --release -p archytas-bench --bin sec7_3`
//!
//! Stdout (the design space and each search's design and candidate count)
//! is the same on every run; the wall times go to stderr.

use archytas_bench::banner;
use archytas_core::{synthesize, DesignSpec, ND_MAX, NM_MAX, S_MAX};
use std::time::Instant;

fn main() {
    banner("Sec. 7.3", "hardware generator efficiency");

    let space = ND_MAX * NM_MAX * S_MAX;
    println!(
        "design space: nd ∈ 1..={ND_MAX}, nm ∈ 1..={NM_MAX}, s ∈ 1..={S_MAX} → {space} designs"
    );

    // Exhaustive search through the real FPGA flow: ~1.5 h synthesis+layout
    // per design (paper's figure on their machine).
    let hours = space as f64 * 1.5;
    println!(
        "exhaustive search through synthesis/layout: {space} × 1.5 h ≈ {:.1} years (paper: 15 years)",
        hours / (24.0 * 365.0)
    );

    let mut total = std::time::Duration::ZERO;
    let mut designs = Vec::new();
    let bounds = [2.2, 3.0, 4.0, 6.0, 10.0];
    for bound in bounds {
        let start = Instant::now();
        let d = synthesize(&DesignSpec::zc706_power_optimal(bound)).expect("feasible");
        let dt = start.elapsed();
        total += dt;
        println!(
            "constraint {bound:>5.1} ms → (nd={:>2}, nm={:>2}, s={:>3}), power {:.2} W ({} candidates)",
            d.config.nd, d.config.nm, d.config.s, d.power_w, d.candidates_examined
        );
        eprintln!("constraint {bound:>5.1} ms: found in {dt:?}");
        designs.push(d);
    }
    eprintln!(
        "mean time to identify a design: {:.3} ms (paper: ~3 s including Verilog generation)",
        total.as_secs_f64() * 1e3 / bounds.len() as f64
    );
    eprintln!(
        "speedup over exhaustive synthesis-in-the-loop search: ~{:.0e}x",
        hours * 3600.0 / (total.as_secs_f64() / bounds.len() as f64)
    );
}
