//! Per-phase cost attribution of the solver hot path on one realistic
//! window — the measurement behind DESIGN.md's "Solver hot path" table.
//!
//! Runs the full LM solve with `archytas_par::counters` enabled, plus
//! a component-level micro-timing pass (factor evaluation vs. scatter) that
//! the aggregate phase counters cannot separate, and prints the phase
//! totals as one timing-only `REC` line of kind `phases`.

use archytas_bench::json::{phase_array, rec_line, JsonLine};
use archytas_dataset::{kitti_sequences, PipelineConfig, VioPipeline};
use archytas_par::{counters, Pool};
use archytas_slam::{
    build_block_normal_equations, evaluate_cost, evaluate_imu, evaluate_visual, solve_in_workspace,
    FactorWeights, LmConfig, SlidingWindow, SolverWorkspace,
};
use archytas_telemetry::phase_rows;
use std::hint::black_box;
use std::time::Instant;

fn realistic_window() -> SlidingWindow {
    let data = kitti_sequences()[2].truncated(2.0).build();
    let mut pipeline = VioPipeline::new(PipelineConfig::default());
    for frame in &data.frames {
        if pipeline.push_frame(frame) {
            break;
        }
    }
    pipeline.window().clone()
}

const USAGE: &str = "perf_phases [REPS]   (REPS: repetitions per timing, at least 1; default 40)";

/// The optional positional repetition count: absent → 40; zero, an
/// unparseable value or a second argument is an error.
fn reps_from_args(mut args: impl Iterator<Item = String>) -> Result<usize, String> {
    let reps = match args.next() {
        None => 40,
        Some(a) => match a.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("REPS must be a positive integer, got {a:?}")),
        },
    };
    match args.next() {
        Some(extra) => Err(format!("unexpected argument {extra}")),
        None => Ok(reps),
    }
}

fn time_n(n: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        f();
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn main() {
    let window = realistic_window();
    let weights = FactorWeights::default();
    let reps = reps_from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {USAGE}");
        std::process::exit(2);
    });

    println!(
        "window: {} keyframes, {} landmarks, {} observations, {} imu factors",
        window.num_keyframes(),
        window.num_landmarks(),
        window.observations.len(),
        window.imu.len()
    );

    // Component micro-timings (not separable by the phase counters).
    let visual_eval_ns = time_n(reps, || {
        for obs in &window.observations {
            let lm = &window.landmarks[obs.landmark];
            if lm.anchor == obs.keyframe {
                continue;
            }
            black_box(evaluate_visual(
                &window.keyframes[lm.anchor].pose,
                &window.keyframes[obs.keyframe].pose,
                &lm.bearing,
                lm.inv_depth,
                obs.uv,
            ));
        }
    });
    let imu_eval_ns = time_n(reps, || {
        for cons in &window.imu {
            black_box(evaluate_imu(
                &window.keyframes[cons.first],
                &window.keyframes[cons.first + 1],
                &cons.preintegration,
            ));
        }
    });
    let mut sys = archytas_math::BlockSparseSystem::new();
    let assemble_ns = time_n(reps, || {
        black_box(build_block_normal_equations(
            &window, &weights, None, &mut sys,
        ));
    });
    let cost_ns = time_n(reps, || {
        black_box(evaluate_cost(&window, &weights, None));
    });
    println!("assemble total: {:>10.0} ns", assemble_ns);
    println!("  visual evals: {:>10.0} ns", visual_eval_ns);
    println!("  imu evals:    {:>10.0} ns", imu_eval_ns);
    println!(
        "  scatter(rest):{:>10.0} ns",
        assemble_ns - visual_eval_ns - imu_eval_ns
    );
    println!("evaluate_cost:  {:>10.0} ns", cost_ns);

    // Aggregate phase counters over full LM solves.
    let mut ws = SolverWorkspace::new();
    let config = LmConfig::with_iterations(6);
    counters::reset();
    counters::enable();
    let t = Instant::now();
    for _ in 0..reps {
        let mut w = window.clone();
        black_box(solve_in_workspace(&mut ws, &mut w, &weights, None, &config));
    }
    let total_ns = t.elapsed().as_nanos() as f64 / reps as f64;
    counters::disable();
    println!(
        "lm_6_iterations total: {:.0} ns/solve over {reps} solves",
        total_ns
    );
    let phases = phase_rows();
    for ph in &phases {
        println!(
            "  {:<18} {:>12.0} ns/solve  ({} calls)",
            ph.name,
            ph.wall_ns as f64 / reps as f64,
            ph.calls
        );
    }
    let timing = JsonLine::new()
        .uint("threads", Pool::global().threads() as u64)
        .raw("phases", &phase_array(&phases))
        .finish();
    println!("{}", rec_line("perf_phases", "phases", "{}", &timing));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<usize, String> {
        reps_from_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn reps_must_be_a_positive_integer() {
        assert_eq!(parse(&[]), Ok(40));
        assert_eq!(parse(&["7"]), Ok(7));
        assert!(parse(&["0"]).is_err(), "0 reps would divide by zero");
        assert!(parse(&["abc"]).is_err());
        assert!(parse(&["-3"]).is_err());
        assert!(parse(&["5", "6"]).is_err());
    }
}
