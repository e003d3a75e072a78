//! Quickstart: generate a localization accelerator from a high-level
//! algorithm description and a design specification.
//!
//! Run: `cargo run --release --example quickstart`

use archytas_core::{elaborate, AlgorithmDescription, Archytas, DesignSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the algorithm: sliding-window visual-inertial MAP
    //    estimation at a typical KITTI-scale workload.
    let algorithm = AlgorithmDescription::slam_typical();

    // 2. State the design constraints: a power-optimal design on the ZC706
    //    that finishes every sliding window within 5 ms at the full
    //    iteration budget.
    let spec = DesignSpec::zc706_power_optimal(5.0);

    // 3. Generate: algorithm description → M-DFG → schedule → synthesized
    //    configuration → synthesizable Verilog.
    let accelerator = Archytas::generate(&algorithm, &spec)?;

    println!("=== Archytas quickstart ===");
    println!(
        "M-DFG blocking: NLS split p = {} (leading block diagonal: {})",
        accelerator.mdfg.nls_blocking.p, accelerator.mdfg.nls_blocking.leading_diagonal
    );
    println!(
        "shared hardware blocks across NLS/marginalization: {:?}",
        accelerator.schedule.shared_blocks
    );
    let d = &accelerator.design;
    println!(
        "synthesized configuration: nd = {}, nm = {}, s = {}",
        d.config.nd, d.config.nm, d.config.s
    );
    println!(
        "modelled: {:.2} ms/window, {:.2} W, {:.0} DSPs ({} candidates examined)",
        d.latency_ms, d.power_w, d.resources.dsp, d.candidates_examined
    );

    println!(
        "emitted Verilog: {} files, {} bytes",
        accelerator.verilog.files.len(),
        accelerator.verilog.total_bytes(),
    );
    let elab = elaborate(&accelerator.verilog);
    println!(
        "elaboration: {} modules, {} hierarchy levels, {} errors, {} warnings",
        elab.modules.len(),
        elab.hierarchy.len(),
        elab.errors.len(),
        elab.warnings.len()
    );
    if !elab.is_ok() {
        return Err(format!("elaboration failed: {}", elab.errors.join("; ")).into());
    }
    println!("\n--- archytas_top.v (first 24 lines) ---");
    for line in accelerator.verilog.files[0].contents.lines().take(24) {
        println!("{line}");
    }
    Ok(())
}
