//! Criterion bench for Sec. 7.3: time for the synthesizer to identify a
//! design in the ~90,000-point space (paper: seconds vs 15 years of
//! synthesis-in-the-loop search).
//!
//! Every case runs one untimed warmup search first so one-time process
//! state (allocator warmup, lazy platform tables) is paid
//! outside the sampling loop — `zc706_min_latency`'s historical
//! 748 µs-on-3.8 ms stddev was exactly this first-sample pollution.
//!
//! Each case also prints one `REC` line of kind `search` whose `det` holds
//! the selected design (`nd`, `nm`, `s` and the latency and power bit
//! patterns) and the `examined`/`pruned` search counters; the search is
//! serial, so all of it is deterministic. `scripts/bench_smoke.sh` collects
//! them into `BENCH_criterion.jsonl`, and `scripts/perf_gate.sh` byte-checks
//! each against the committed record at the same position.

use archytas_bench::json::{rec_line, JsonLine};
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

/// Eq. 11 on the Virtex-7 lattice at 1.25× the typical shape's minimum
/// latency — the tight bound under which the min-power search leans on its
/// latency-constraint cuts (the minimum is resolved once, outside timing).
fn virtex7_tight_min_power_spec() -> DesignSpec {
    let min_latency = synthesize(&virtex7_min_latency_spec())
        .expect("feasible")
        .latency_ms;
    DesignSpec {
        objective: Objective::MinPowerUnderLatency(1.25 * min_latency),
        ..virtex7_min_latency_spec()
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
        .uint("examined", d.candidates_examined as u64)
        .uint("pruned", d.candidates_pruned as u64)
        .finish();
    rec_line("criterion", "search", &det, "{}")
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
        (
            "virtex7_min_power_1_25x_scaled_lattice",
            virtex7_tight_min_power_spec(),
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
