//! Criterion bench of the software solver — the native execution behind the
//! CPU baselines of Figs. 15–16: per-window linearization, Schur solve, a
//! full LM pass at f64 and at the served f32 precision, and a served
//! steady-state window (with its marginalization prior) solved and then
//! marginalized.
//!
//! Besides the criterion `case` records, the bench prints one timing-only
//! `REC` line of kind `phases`: the per-phase wall time the
//! `archytas_par::counters` attribute while the f64 full-window LM case
//! runs. `scripts/bench_smoke.sh` collects both into
//! `BENCH_criterion.jsonl`.

use archytas_bench::json::{phase_array, rec_line, JsonLine};
use archytas_dataset::{kitti_sequences, PipelineConfig, VioPipeline};
use archytas_fleet::fleet_pipeline_config;
use archytas_math::fixed::{self, sub_scaled_panel, syrk_scatter};
use archytas_math::{Cholesky, DVec, FMat, SchurScratch};
use archytas_par::{counters, Pool};
use archytas_slam::{
    build_block_normal_equations, solve_in_workspace, try_marginalize_oldest_in, FactorWeights,
    LmConfig, Precision, Prior, SlidingWindow, SolverWorkspace,
};
use archytas_telemetry::phase_rows;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Builds one realistic full window from a KITTI-like sequence.
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

/// A served steady-state window: the same sequence through the fleet's
/// pipeline configuration, taken at the first full window after the
/// pipeline has slid once, so it carries a marginalization prior.
fn steady_window_with_prior() -> (PipelineConfig, SlidingWindow, Prior) {
    let data = kitti_sequences()[2].truncated(4.0).build();
    let config = fleet_pipeline_config();
    let mut pipeline = VioPipeline::new(config);
    let mut ws = SolverWorkspace::new();
    for frame in &data.frames {
        if !pipeline.push_frame(frame) {
            continue;
        }
        if let Some(prior) = pipeline.prior() {
            return (config, pipeline.window().clone(), prior.clone());
        }
        pipeline.optimize_and_slide_in(&mut ws, 6);
    }
    panic!("sequence too short to slide a window");
}

fn bench_solver(c: &mut Criterion) {
    let window = realistic_window();
    let weights = FactorWeights::default();
    let mut group = c.benchmark_group("solver");
    group.sample_size(20);

    // One workspace serves every case below, as it serves a whole run.
    let mut ws = SolverWorkspace::new();
    // The window assembled into the block-structured system and solved via
    // Schur elimination that never materializes the dense `A`.
    group.bench_function("build_block_normal_equations", |b| {
        b.iter(|| build_block_normal_equations(&mut ws, black_box(&window), &weights, None).1)
    });

    // Damp as the LM loop does: the raw normal equations of a freshly
    // initialized window can be rank-deficient before damping.
    let (sys, _) = build_block_normal_equations(&mut ws, &window, &weights, None);
    sys.damp(1e-3, 1e-9);
    let mut scratch = SchurScratch::default();
    let mut delta = DVec::zeros(0);
    group.bench_function("block_schur_linear_solve", |b| {
        b.iter(|| {
            sys.solve_into(&mut scratch, &mut delta).expect("solvable");
            black_box(&delta);
        })
    });

    // Per-kernel microbenches of the deployed fixed-width forms, so the perf
    // gate tracks the kernels independently of the end-to-end phases.
    let n_blk6 = 64;
    let mut dst6 = vec![0.25f64; 6 * n_blk6];
    let src6a: Vec<f64> = (0..6 * n_blk6)
        .map(|i| (i % 7) as f64 * 0.25 - 0.5)
        .collect();
    let src6b: Vec<f64> = (0..6 * n_blk6)
        .map(|i| (i % 5) as f64 * 0.5 - 1.0)
        .collect();
    group.bench_function("kernel_mac6_fixed", |b| {
        b.iter(|| {
            for blk in 0..n_blk6 {
                let at = blk * 6;
                fixed::Vec::<f64, 6>::from_mut_slice(&mut dst6[at..]).axpy_skip2(
                    fixed::Vec::from_slice(&src6a[at..]),
                    0.75,
                    fixed::Vec::from_slice(&src6b[at..]),
                    -0.25,
                );
            }
            black_box(&mut dst6);
        })
    });

    let n_blk15 = 32;
    let mut dst15 = vec![0.25f64; 15 * n_blk15];
    let src15: Vec<f64> = (0..15 * n_blk15)
        .map(|i| (i % 11) as f64 * 0.125 - 0.5)
        .collect();
    group.bench_function("kernel_mac15_fixed", |b| {
        b.iter(|| {
            for blk in 0..n_blk15 {
                let at = blk * 15;
                fixed::Vec::<f64, 15>::from_mut_slice(&mut dst15[at..])
                    .axpy_skip(fixed::Vec::from_slice(&src15[at..]), 0.375);
            }
            black_box(&mut dst15);
        })
    });

    // Rank-6 SYRK block scatter (the Schur elimination inner kernel): one
    // 6-high W block row applied at four block columns of a 6 x 128 panel.
    let pitch = 128;
    let mut syrk_rows = vec![0.5f64; 6 * pitch];
    let syrk_cols: Vec<u32> = vec![0, 30, 60, 90];
    let syrk_vals: Vec<f64> = (0..6 * 4).map(|i| (i % 9) as f64 * 0.25 - 1.0).collect();
    let syrk_s = [0.5, -0.25, 0.0, 1.5, 0.125, -1.0];
    group.bench_function("kernel_syrk6_fixed", |b| {
        b.iter(|| {
            syrk_scatter::<f64, 6>(&mut syrk_rows, pitch, &syrk_s, &syrk_cols, &syrk_vals);
            black_box(&mut syrk_rows);
        })
    });

    // PANEL-wide fused trailing update: eight rank-1 sweeps in one pass.
    let mut panel_dst = vec![1.0f64; 256];
    let panel_srcs: Vec<Vec<f64>> = (0..8)
        .map(|k| {
            (0..256)
                .map(|i| ((i + k) % 13) as f64 * 0.0625 - 0.375)
                .collect()
        })
        .collect();
    let panel_a = [0.5, -0.25, 0.125, 0.75, -0.5, 0.25, -0.125, 0.0625];
    group.bench_function("kernel_panel8_fixed", |b| {
        b.iter(|| {
            let refs: [&[f64]; 8] = std::array::from_fn(|k| panel_srcs[k].as_slice());
            sub_scaled_panel::<f64, 8>(&mut panel_dst, &refs, &panel_a);
            black_box(&mut panel_dst);
        })
    });

    // The factorization the served solve runs on every damping attempt: the
    // blocked f32 `refactor_diff` of `V − W·U⁻¹·Wᵀ` at a served window's
    // reduced dimension (q = 150: ten 15-dim keyframe states), seeded from
    // the upper triangles of its two operands.
    let nq = 150;
    let band = |scale: f32, diag: f32| {
        let mut m = FMat::zeros(nq, nq);
        for r in 0..nq {
            for c in 0..nq {
                let v = scale / (1.0 + (r as f32 - c as f32).abs());
                m.set(r, c, if r == c { diag + v } else { v });
            }
        }
        m
    };
    let (v, prod) = (band(0.02, 2.0), band(0.01, 0.0));
    let mut chol = Cholesky::<f32>::default();
    group.bench_function("kernel_panel_factor", |b| {
        b.iter(|| {
            chol.refactor_diff(black_box(&v), black_box(&prod))
                .expect("SPD");
            black_box(&mut chol);
        })
    });

    // Per-phase attribution of the f64 full LM window below: the counters
    // are live for exactly that end-to-end bench, and their totals become
    // the `phases` record printed after the group.
    counters::reset();
    counters::enable();

    group.bench_function("lm_full_window_6_iterations", |b| {
        b.iter(|| {
            let mut w = window.clone();
            solve_in_workspace(
                &mut ws,
                &mut w,
                &weights,
                None,
                &LmConfig::with_iterations(6),
            )
        })
    });
    counters::disable();
    let phases = phase_rows();
    // The served precision: the same window through the accelerator's f32
    // datapath (f64 assembly and damping, cast, f32 block Schur solve).
    let served = LmConfig {
        precision: Precision::F32,
        ..LmConfig::with_iterations(6)
    };
    group.bench_function("lm_full_window_6_iterations_f32", |b| {
        b.iter(|| {
            let mut w = window.clone();
            solve_in_workspace(&mut ws, &mut w, &weights, None, &served)
        })
    });

    // The served shape: a steady-state window with its prior, solved at the
    // fleet's f32 precision through a reused workspace, then marginalized
    // into the same workspace. Each iteration clones the window (and, for
    // the marginalization, the prior it rebuilds in place).
    let (config, steady, prior) = steady_window_with_prior();
    let steady_lm = LmConfig {
        precision: config.precision,
        ..LmConfig::with_iterations(6)
    };
    group.bench_function("lm_steady_window_with_prior_f32", |b| {
        b.iter(|| {
            let mut w = steady.clone();
            solve_in_workspace(&mut ws, &mut w, &config.weights, Some(&prior), &steady_lm)
        })
    });
    group.bench_function("marginalize_oldest", |b| {
        b.iter(|| {
            let mut w = steady.clone();
            let mut slot = Some(prior.clone());
            try_marginalize_oldest_in(&mut ws, &mut w, &config.weights, &mut slot).expect("SPD")
        })
    });

    group.finish();
    let timing = JsonLine::new()
        .uint("threads", Pool::global().threads() as u64)
        .raw("phases", &phase_array(&phases))
        .finish();
    println!("{}", rec_line("criterion", "phases", "{}", &timing));
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
