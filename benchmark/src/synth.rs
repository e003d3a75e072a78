//! synth-sweep: cold `Archytas::generate` over the seeded design sweep,
//! checked against a traced replay of the flow's four stages.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use archytas_core::{
    emit_verilog, synthesize, AlgorithmDescription, Archytas, DesignSpec, Objective,
    SynthesizedDesign, VerilogDesign,
};
use archytas_fleet::fnv1a;
use archytas_mdfg::{build_mdfg, schedule};

use crate::stats::{self, Fastest, Repetition, Summary};
use crate::workloads::{synth_sweep, SweepObjective};
use crate::Output;

/// NLS iteration budget every sweep design must sustain.
const ITERATIONS: usize = 6;

/// One sweep point with its latency bound resolved.
#[derive(Debug, Clone)]
pub struct Request {
    description: AlgorithmDescription,
    spec: DesignSpec,
}

/// Set-up: generates the seeded sweep and resolves each min-power bound
/// against the best latency its shape reaches on its board, so every
/// request is feasible.
pub fn prepare(seed: u64) -> Vec<Request> {
    let mut best_ms: HashMap<(archytas_mdfg::ProblemShape, &'static str), f64> = HashMap::new();
    synth_sweep(seed)
        .into_iter()
        .map(|point| {
            let shape = point.description.shape;
            let spec = |objective| DesignSpec {
                shape,
                iterations: ITERATIONS,
                platform: point.platform.clone(),
                objective,
            };
            let objective = match point.objective {
                SweepObjective::MinLatency => Objective::MinLatency,
                SweepObjective::MinPowerAt(factor) => {
                    let best = *best_ms
                        .entry((shape, point.platform.name))
                        .or_insert_with(|| {
                            synthesize(&spec(Objective::MinLatency))
                                .expect("a min-latency design always fits")
                                .latency_ms
                        });
                    Objective::MinPowerUnderLatency(factor * best)
                }
            };
            Request {
                spec: spec(objective),
                description: point.description,
            }
        })
        .collect()
}

/// FNV-1a over every emitted file name and body.
fn verilog_hash(v: &VerilogDesign) -> u64 {
    let mut bytes = Vec::new();
    for f in &v.files {
        bytes.extend_from_slice(f.name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(f.contents.as_bytes());
        bytes.push(0);
    }
    fnv1a(&bytes)
}

/// Per-stage totals of the traced replay.
#[derive(Debug, Default)]
struct StageTrace {
    build: Duration,
    schedule: Duration,
    synth: Duration,
    verilog: Duration,
    examined: usize,
    pruned: usize,
    served: Vec<Duration>,
}

/// Replays one request through the stages `Archytas::generate` runs
/// (`build_mdfg`, `schedule`, `synthesize`, `emit_verilog`), timing each.
fn replay(request: &Request, trace: &mut StageTrace) -> Option<(SynthesizedDesign, u64)> {
    let t0 = Instant::now();
    let spec = DesignSpec {
        shape: request.description.shape,
        ..request.spec.clone()
    };
    let mdfg = build_mdfg(&request.description.shape);
    let t1 = Instant::now();
    let sched = schedule(&mdfg);
    let t2 = Instant::now();
    let design = synthesize(&spec).ok()?;
    let t3 = Instant::now();
    let verilog = emit_verilog(&design.config);
    let t4 = Instant::now();
    // Held until here, as `generate` returns them with the design.
    drop((mdfg, sched));
    let hash = verilog_hash(&verilog);
    trace.build += t1 - t0;
    trace.schedule += t2 - t1;
    trace.synth += t3 - t2;
    trace.verilog += t4 - t3;
    trace.examined += design.candidates_examined;
    trace.pruned += design.candidates_pruned;
    trace.served.push(t4 - t0);
    Some((design, hash))
}

/// Runs the sweep: the replay (correctness reference, and with `trace`
/// the per-stage times), then whole timed passes of cold generation for
/// `seconds`, every design checked against the replay as it is made. A
/// pass's throughput counts only the time spent inside `generate`; the
/// end-to-end figures take each design's fastest call over the passes.
/// Calls `between` after each timed pass.
pub fn run(requests: &[Request], seconds: f64, trace: bool, between: &mut dyn FnMut()) -> Output {
    let mut stages = StageTrace::default();
    let expected: Vec<Option<(SynthesizedDesign, u64)>> =
        requests.iter().map(|r| replay(r, &mut stages)).collect();

    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut passes = Vec::new();
    let mut fastest = Fastest::new(requests.len());
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut pass_ms = Vec::with_capacity(requests.len());
        let mut busy = Duration::ZERO;
        for (i, (request, want)) in requests.iter().zip(&expected).enumerate() {
            let t = Instant::now();
            let got = Archytas::generate(&request.description, &request.spec);
            let took = t.elapsed();
            busy += took;
            let ms = took.as_secs_f64() * 1e3;
            pass_ms.push(ms);
            fastest.record(i, ms);
            attempted += 1;
            let same = match (&got, want) {
                (Ok(g), Some((design, hash))) => {
                    g.design.same_design(design) && verilog_hash(&g.verilog) == *hash
                }
                _ => false,
            };
            failed += usize::from(!same);
        }
        passes.push(Repetition::new(pass_ms, requests.len(), busy.as_secs_f64()));
        between();
    }

    let fastest_ms: Vec<f64> = (0..requests.len()).map(|i| fastest.get(i)).collect();
    let pass_s = fastest_ms.iter().sum::<f64>() / 1e3;
    let summary = Summary::new(fastest_ms, requests.len() as f64 / pass_s);
    let mut out = Output {
        attempted,
        failed,
        workers: archytas_par::Pool::global().threads(),
        noun: "design",
        reps: passes,
        summary,
        ..Output::default()
    };
    out.table = vec![("designs_per_pass".into(), requests.len() as f64, "count")];
    if trace {
        let n = stages.served.len().max(1) as f64;
        let us = |d: Duration| d.as_secs_f64() * 1e6 / n;
        let served: Duration = stages.served.iter().sum();
        let traced: Vec<f64> = stages
            .served
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        out.per_layer = vec![
            ("mdfg.build_us", us(stages.build)),
            ("mdfg.schedule_us", us(stages.schedule)),
            ("core.synth_ms", us(stages.synth) / 1e3),
            ("core.verilog_us", us(stages.verilog)),
            ("core.synth_examined", stages.examined as f64 / n),
            ("core.synth_pruned", stages.pruned as f64 / n),
            ("trace.served_ms", us(served) / 1e3),
            (
                "trace.coverage",
                (stages.build + stages.schedule + stages.synth + stages.verilog).as_secs_f64()
                    / served.as_secs_f64(),
            ),
            ("trace.overhead", stats::median(&traced) / summary.p50_ms),
        ];
    }
    out
}
