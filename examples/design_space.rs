//! Design-space exploration: trace the latency-vs-power Pareto frontier on
//! three FPGA boards and write the Verilog of a chosen design to disk.
//!
//! Run: `cargo run --release --example design_space [output_dir]`

use archytas_core::{
    elaborate, emit_verilog, knob_bounds, pareto_frontier, synthesize, DesignSpec, Objective,
};
use archytas_hw::FpgaPlatform;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for platform in [
        FpgaPlatform::kintex7_160t(),
        FpgaPlatform::zc706(),
        FpgaPlatform::virtex7_690t(),
    ] {
        let (nd, nm, s) = knob_bounds(&platform);
        println!(
            "\n=== {} (knob lattice {}x{}x{} = {} designs) ===",
            platform.name,
            nd,
            nm,
            s,
            nd * nm * s
        );
        let base = DesignSpec {
            platform: platform.clone(),
            ..DesignSpec::zc706_power_optimal(20.0)
        };
        // Anchor the sweep at this board's fastest feasible design.
        let fastest = synthesize(&DesignSpec {
            objective: Objective::MinLatency,
            ..base.clone()
        })?;
        let frontier = pareto_frontier(
            &base,
            (fastest.latency_ms * 1.02, fastest.latency_ms * 4.0),
            8,
        );
        println!(
            "{:>12} {:>9} {:>15}",
            "latency(ms)", "power(W)", "(nd, nm, s)"
        );
        for p in &frontier {
            println!(
                "{:>12.2} {:>9.2} {:>15}",
                p.design.latency_ms,
                p.design.power_w,
                format!(
                    "({}, {}, {})",
                    p.design.config.nd, p.design.config.nm, p.design.config.s
                )
            );
        }
    }

    // Emit the Verilog for a balanced ZC706 design.
    let design = synthesize(&DesignSpec::zc706_power_optimal(3.0))?;
    let verilog = emit_verilog(&design.config);
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/generated_rtl".to_string());
    std::fs::create_dir_all(&out_dir)?;
    for file in &verilog.files {
        std::fs::write(format!("{out_dir}/{}", file.name), &file.contents)?;
    }
    println!(
        "\nwrote {} Verilog files for (nd={}, nm={}, s={}) to {out_dir}/ (elaboration: {})",
        verilog.files.len(),
        design.config.nd,
        design.config.nm,
        design.config.s,
        if elaborate(&verilog).is_ok() {
            "clean"
        } else {
            "PROBLEMS"
        }
    );
    Ok(())
}
