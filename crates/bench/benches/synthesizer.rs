//! Criterion bench for Sec. 7.3: time for the synthesizer to identify a
//! design in the ~90,000-point space (paper: seconds vs 15 years of
//! synthesis-in-the-loop search).
//!
//! Every case runs one untimed warmup search first so one-time process
//! state (allocator warmup, lazy platform tables) is paid
//! outside the sampling loop — `zc706_min_latency`'s historical
//! 748 µs-on-3.8 ms stddev was exactly this first-sample pollution.
//!
//! Each case also prints one `REC` line of kind `search`: the selected
//! design (`nd`, `nm`, `s` and the latency and power bit patterns) in
//! `det`, identical at every pool size, and the `examined`/`pruned` search
//! counters in `timing`, which depend on thread timing (see
//! `archytas_core::synth`). `scripts/bench_smoke.sh` collects them into
//! `BENCH_criterion.jsonl` and byte-compares the `det` payloads of its
//! 1-thread and 4-thread runs.

use archytas_bench::json::{rec_line, JsonLine};
use archytas_core::{synthesize, DesignSpec, Objective, SynthesizedDesign};
use archytas_hw::FpgaPlatform;
use archytas_par::Pool;
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

fn search_rec(name: &str, d: &SynthesizedDesign) -> String {
    let det = JsonLine::new()
        .str("name", name)
        .uint("nd", d.config.nd as u64)
        .uint("nm", d.config.nm as u64)
        .uint("s", d.config.s as u64)
        .bits("latency_bits", d.latency_ms.to_bits())
        .bits("power_bits", d.power_w.to_bits())
        .finish();
    let timing = JsonLine::new()
        .uint("threads", Pool::global().threads() as u64)
        .uint("examined", d.candidates_examined as u64)
        .uint("pruned", d.candidates_pruned as u64)
        .finish();
    rec_line("criterion", "search", &det, &timing)
}

fn bench_synthesizer(c: &mut Criterion) {
    let cases = [
        (
            "zc706_power_optimal_20ms",
            DesignSpec::zc706_power_optimal(20.0),
        ),
        ("zc706_min_latency", zc706_min_latency_spec()),
        (
            "virtex7_min_latency_scaled_lattice",
            virtex7_min_latency_spec(),
        ),
    ];
    let mut group = c.benchmark_group("synthesizer");
    group.sample_size(20);
    for (case, spec) in &cases {
        group.bench_function(case, |b| {
            let design = synthesize(spec).expect("feasible");
            println!("{}", search_rec(&format!("synthesizer/{case}"), &design));
            b.iter(|| synthesize(black_box(spec)).expect("feasible"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_synthesizer);
criterion_main!(benches);
