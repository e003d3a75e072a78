//! Criterion bench for Sec. 7.3: time for the synthesizer to identify a
//! design in the ~90,000-point space (paper: seconds vs 15 years of
//! synthesis-in-the-loop search).
//!
//! Every case runs one untimed warmup search first so one-time process
//! state (allocator warmup, lazy platform tables) is paid
//! outside the sampling loop — `zc706_min_latency`'s historical
//! 748 µs-on-3.8 ms stddev was exactly this first-sample pollution.
//!
//! After the timed runs, per-case search counters are printed as
//! `SYNTHJSON {...}` lines that `bench_smoke.sh` folds into
//! `BENCH_par.json`'s `synth_search` section.

use archytas_core::{synthesize, DesignSpec, Objective, SynthesizedDesign};
use archytas_hw::FpgaPlatform;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn zc706_min_latency_spec() -> DesignSpec {
    DesignSpec {
        objective: Objective::MinLatency,
        ..DesignSpec::zc706_power_optimal(0.0)
    }
}

fn virtex7_min_latency_spec() -> DesignSpec {
    DesignSpec {
        platform: FpgaPlatform::virtex7_690t(),
        objective: Objective::MinLatency,
        ..DesignSpec::zc706_power_optimal(0.0)
    }
}

fn synthjson(case: &str, d: &SynthesizedDesign) -> String {
    format!(
        "SYNTHJSON {{\"case\":\"{case}\",\"examined\":{},\"pruned\":{}}}",
        d.candidates_examined, d.candidates_pruned
    )
}

fn bench_synthesizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesizer");
    group.sample_size(20);
    let mut counters: Vec<String> = Vec::new();

    group.bench_function("zc706_power_optimal_20ms", |b| {
        let spec = DesignSpec::zc706_power_optimal(20.0);
        counters.push(synthjson(
            "zc706_power_optimal_20ms",
            &synthesize(&spec).expect("feasible"),
        ));
        b.iter(|| synthesize(black_box(&spec)).expect("feasible"))
    });

    group.bench_function("zc706_min_latency", |b| {
        let spec = zc706_min_latency_spec();
        counters.push(synthjson(
            "zc706_min_latency",
            &synthesize(&spec).expect("feasible"),
        ));
        b.iter(|| synthesize(black_box(&spec)).expect("feasible"))
    });

    group.bench_function("virtex7_min_latency_scaled_lattice", |b| {
        let spec = virtex7_min_latency_spec();
        counters.push(synthjson(
            "virtex7_min_latency_scaled_lattice",
            &synthesize(&spec).expect("feasible"),
        ));
        b.iter(|| synthesize(black_box(&spec)).expect("feasible"))
    });

    group.finish();
    for line in counters {
        println!("{line}");
    }
}

criterion_group!(benches, bench_synthesizer);
criterion_main!(benches);
