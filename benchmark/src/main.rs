//! End-to-end benchmark of the Archytas reproduction: served fleet windows
//! (the runtime half) and accelerator generation (the synthesis half).
//!
//! ```text
//! archytas-benchmark --workload <fleet-steady|fleet-churn|synth-sweep>
//!                    --seed N --seconds S --trace 0|1
//! archytas-benchmark --contract   # prints BENCHMARK.json
//! archytas-benchmark --catalog    # prints catalog.json
//! ```
//!
//! Timed runs call only the stable entry points (`run_fleet`,
//! `run_session_alone`, `Archytas::generate`); `--trace 1` adds a serial
//! replay through each layer's public calls and reports per-layer metrics
//! instead of the end-to-end ones. Human-readable lines come first; the
//! last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. A run whose outputs
//! differ from the references exits non-zero.

mod catalog;
mod fleet;
mod stats;
mod synth;
mod workloads;

use std::time::Instant;

use catalog::{Metric, END_TO_END, PER_LAYER};
use stats::{Repetition, Summary};
use workloads::Workload;

/// Most set-ups per run: one before the timed run, then one after each
/// timed repetition, so they sample the host over the whole run.
const SETUP_REPS: usize = 12;
/// Fewest set-ups per run (topped up after a run with few repetitions).
const SETUP_MIN: usize = 3;

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Output {
    /// Operations attempted (fleet: the windows or frames the references
    /// expect, at least one per session; synth: designs).
    pub attempted: usize,
    /// Operations missing or differing from the references.
    pub failed: usize,
    /// Worker threads the timed run used.
    pub workers: usize,
    /// What one operation is ("window", "frame" or "design").
    pub noun: &'static str,
    /// Figures of each timed repetition (fleet batch or sweep pass).
    pub reps: Vec<Repetition>,
    /// The end-to-end figures over every repetition.
    pub summary: Summary,
    /// Per-layer values by catalog name, for the layers the run reached.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Workload-specific figures printed for people, with units.
    pub table: Vec<(String, f64, &'static str)>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--contract" => {
                print!("{}", catalog::benchmark_json());
                std::process::exit(0);
            }
            "--catalog" => {
                print!("{}", catalog::catalog_json());
                std::process::exit(0);
            }
            _ => {}
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(f64::from(catalog::RUN_SECONDS)),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

enum Prepared {
    Fleet(Box<workloads::FleetPlan>),
    Synth(Vec<synth::Request>),
}

/// The set-up phase: seeded spec generation plus input validation.
fn prepare(workload: Workload, seed: u64) -> Prepared {
    match workload {
        Workload::FleetSteady | Workload::FleetChurn => {
            let plan = if workload == Workload::FleetSteady {
                workloads::fleet_steady(seed)
            } else {
                workloads::fleet_churn(seed)
            };
            fleet::validate(&plan);
            Prepared::Fleet(Box::new(plan))
        }
        Workload::SynthSweep => Prepared::Synth(synth::prepare(seed)),
    }
}

/// Runs a prepared workload for `seconds` (at least one repetition),
/// calling `between` after each timed repetition.
fn run(prepared: Prepared, seconds: f64, trace: bool, between: &mut dyn FnMut()) -> Output {
    match prepared {
        Prepared::Fleet(plan) => fleet::run(&plan, seconds, trace, between),
        Prepared::Synth(requests) => synth::run(&requests, seconds, trace, between),
    }
}

/// The workloads whose traced runs reach the layers `workload` never does:
/// fleet-steady for the solve path and the fleet services, synth-sweep for
/// mdfg and synthesis.
fn companions(workload: Workload) -> &'static [Workload] {
    match workload {
        Workload::FleetSteady => &[Workload::SynthSweep],
        Workload::FleetChurn => &[Workload::FleetSteady, Workload::SynthSweep],
        Workload::SynthSweep => &[Workload::FleetSteady],
    }
}

/// Renders `metrics` (every catalog entry, 0 for absent ones) as the
/// result object's `metrics` member.
fn metrics_json(catalog: &[Metric], values: &[(&'static str, f64)]) -> String {
    let fields: Vec<String> = catalog
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |&(_, v)| v);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("archytas-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let t = Instant::now();
    let prepared = prepare(args.workload, args.seed);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let set_up_again = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        std::hint::black_box(prepare(args.workload, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    };
    let mut out = run(prepared, args.seconds, args.trace, &mut || {
        if setup_s.len() < SETUP_REPS {
            set_up_again(&mut setup_s);
        }
    });
    while setup_s.len() < SETUP_MIN {
        set_up_again(&mut setup_s);
    }
    if args.trace {
        // A layer this workload never reaches is measured by one traced
        // repetition of a workload that does, so every per-layer time is a
        // measurement rather than a constant 0. Those runs are checked
        // against their references like this one.
        for &other in companions(args.workload) {
            let extra = run(prepare(other, args.seed), 0.0, true, &mut || {});
            out.attempted += extra.attempted;
            out.failed += extra.failed;
            for (name, value) in extra.per_layer {
                if !out.per_layer.iter().any(|&(n, _)| n == name) {
                    out.per_layer.push((name, value));
                }
            }
        }
    }
    let summary = out.summary;
    let end_to_end = [
        ("ops_per_s", summary.ops_per_s),
        ("op_p50_ms", summary.p50_ms),
        // The set-up is deterministic too, so like the ops it is timed by
        // its fastest repeat.
        (
            "setup_s",
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        ),
    ];

    println!(
        "run workload={} seed={} seconds={} trace={} cpus={cpus} workers={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.workers
    );
    let noun = out.noun;
    for (i, r) in out.reps.iter().enumerate() {
        println!(
            "  repetition {i}: {:.3} {noun}s/s, p50 {:.4} ms, p95 {:.4} ms",
            r.ops_per_s,
            stats::percentile(&r.op_ms, 500),
            stats::percentile(&r.op_ms, 950),
        );
    }
    // The end-to-end figures take each operation's fastest repeat; the
    // tail pooled over every repetition is printed too.
    let mut pooled: Vec<f64> = out
        .reps
        .iter()
        .flat_map(|r| r.op_ms.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let mut table: Vec<(String, f64, &str)> = vec![
        ("repetitions".into(), out.reps.len() as f64, "count"),
        ("setups".into(), setup_s.len() as f64, "count"),
        (format!("{noun}s_per_s"), summary.ops_per_s, "1/s"),
        (format!("{noun}_p50_ms"), summary.p50_ms, "ms"),
        (format!("{noun}_p95_ms"), summary.p95_ms, "ms"),
        (
            format!("{noun}_p99_ms_pooled"),
            stats::percentile(&pooled, 990),
            "ms",
        ),
        (format!("{noun}_samples"), pooled.len() as f64, "count"),
    ];
    if let Some(level) = stats::tail_level(pooled.len()) {
        table.push((
            format!("{noun}_tail_permille_pooled"),
            f64::from(level),
            "permille",
        ));
        table.push((
            format!("{noun}_tail_ms_pooled"),
            stats::percentile(&pooled, level),
            "ms",
        ));
    }
    table.extend(out.table.iter().cloned());
    table.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
    table.push((
        "failed_share".into(),
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    ));
    for (name, value, unit) in &table {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    let catalog: &[Metric] = if args.trace { PER_LAYER } else { END_TO_END };
    let shown: &[(&str, f64)] = if args.trace {
        &out.per_layer
    } else {
        &end_to_end
    };
    for m in catalog {
        let value = shown.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v);
        match value {
            Some(v) => println!("  {:<28} {v:>14.6} {}", m.name, m.unit),
            None => println!(
                "  {:<28} {:>14} {} (layer not exercised)",
                m.name, "-", m.unit
            ),
        }
    }
    if args.trace {
        if let Some(&(_, c)) = out.per_layer.iter().find(|(n, _)| *n == "trace.coverage") {
            if c < 0.95 {
                println!(
                    "  FLAG trace.coverage {c:.4} < 0.95: layers do not add up to the served time"
                );
            }
        }
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(catalog, shown)
    );
    if !correct {
        eprintln!(
            "archytas-benchmark: {} of {} operations missing or differing from the references",
            out.failed, out.attempted
        );
        std::process::exit(1);
    }
}
