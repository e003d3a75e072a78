//! Criterion bench of the accelerator simulators: the per-window
//! cycle-level simulation (Figs. 13/15's inner loop), the f32 functional
//! datapath, and the dataflow ablation (feature-stationary vs a
//! keyframe-stationary Jacobian unit).

use archytas_dataset::{kitti_sequences, PipelineConfig, VioPipeline};
use archytas_hw::{jacobian_feature_latency, simulate_window, AcceleratorConfig, HIGH_PERF};
use archytas_math::{BlockSparseSystem, FVec, SchurScratch};
use archytas_mdfg::ProblemShape;
use archytas_slam::{build_block_normal_equations, FactorWeights, SolverWorkspace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_accel(c: &mut Criterion) {
    let mut group = c.benchmark_group("accel_sim");

    let shape = ProblemShape::typical();
    for config in [AcceleratorConfig::new(8, 8, 16), HIGH_PERF] {
        group.bench_with_input(
            BenchmarkId::new("simulate_window", format!("nd{}", config.nd)),
            &config,
            |b, config| b.iter(|| simulate_window(black_box(&shape), config, 6)),
        );
    }

    // Dataflow ablation: the feature-stationary design pays No·Co per
    // feature (FIFO-fed); a keyframe-stationary alternative re-reads every
    // feature point from RAM, modelled as a 3× per-access penalty
    // (Sec. 4.2's power/latency argument for prioritizing feature reuse).
    group.bench_function("dataflow_ablation", |b| {
        b.iter(|| {
            let feature_stationary = shape.features as f64
                * jacobian_feature_latency(black_box(shape.obs_per_feature as f64));
            let keyframe_stationary = feature_stationary * 3.0;
            (feature_stationary, keyframe_stationary)
        })
    });

    // f32 functional datapath on a realistic window's normal equations, as
    // a served window runs it on every damping retry: cast the damped
    // block system into the f32 twin, then solve there.
    let data = kitti_sequences()[1].truncated(2.0).build();
    let mut pipeline = VioPipeline::new(PipelineConfig::default());
    for frame in &data.frames {
        if pipeline.push_frame(frame) {
            break;
        }
    }
    let mut ws = SolverWorkspace::new();
    let (sys, _) =
        build_block_normal_equations(&mut ws, pipeline.window(), &FactorWeights::default(), None);
    // Damp exactly as the LM loop does before handing the system to the
    // datapath: the raw gauge-pinned normal equations mix scales beyond
    // f32's range.
    sys.damp(1e-3, 1e-9);
    let mut sys32 = BlockSparseSystem::<f32>::new();
    let mut scratch32 = SchurScratch::default();
    let mut delta32 = FVec::zeros(0);
    group.sample_size(20);
    group.bench_function("f32_functional_solve", |b| {
        b.iter(|| {
            sys.cast_into(&mut sys32);
            sys32
                .solve_into(&mut scratch32, &mut delta32)
                .expect("solvable");
            black_box(&delta32);
        })
    });

    group.finish();
}

criterion_group!(benches, bench_accel);
criterion_main!(benches);
