//! The metric and workload catalog: one source for `BENCHMARK.json` (the
//! benchmark's contract) and for `catalog.json` (the same metrics with the
//! layer each belongs to and what each should move).

use crate::workloads::{
    Workload, CHURN_LEAVE_AFTER, CHURN_ROUTES, CHURN_VEHICLES, CHURN_WORKERS, HELD_OUT_SEED,
    STEADY_SECONDS, SWEEP_SHAPES,
};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed in the result line.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The layer (crate or module) the metric measures.
    pub layer: &'static str,
    /// What the value is.
    pub meaning: &'static str,
    /// End-to-end metric a change in this layer should move (per-layer
    /// metrics) — empty for end-to-end metrics.
    pub moves: &'static str,
    /// Workloads on which the metric moves.
    pub on: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer: "end-to-end",
        meaning,
        moves: "",
        on: "all",
        bound: Some(bound),
    }
}

#[allow(clippy::too_many_arguments)]
const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    meaning: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        meaning,
        moves,
        on,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with `--trace 0`. An
/// "op" is a served window on fleet-steady, a served frame on fleet-churn
/// and a generated design on synth-sweep. A run repeats its workload's
/// batch (fleet) or pass (synth) for `--seconds`, and every repetition
/// replays identical deterministic ops, so each op is timed by its fastest
/// repeat in the run (see `stats::Fastest`): co-tenants of a shared host
/// only ever add time. The tails (p95 of the fastest repeats, pooled p99 and
/// the highest pooled percentile with ten samples beyond) are printed but
/// not gated: on a shared 2-vCPU host their run-to-run spread exceeds any
/// bound the contract allows.
pub const END_TO_END: &[Metric] = &[
    e2e(
        "ops_per_s",
        "1/s",
        Higher,
        "ops per second of a repetition at each op's fastest repeat: fleet, a batch's ops over (sum of every frame's fastest frame_wall_ns + the least worker time any batch spent outside frames) / workers; synth, a pass's designs over the sum of each design's fastest Archytas::generate call",
        0.25,
    ),
    e2e(
        "op_p50_ms",
        "ms",
        Lower,
        "median over ops of each op's fastest repeat, host wall time: the window-closing frame (fleet-steady), a frame (fleet-churn), one generate call (synth)",
        0.25,
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        "fastest of up to 12 set-ups spread over the run (one before the timed run, one after each timed repetition): generate the seeded specs and validate them (build each distinct sequence; probe each sweep shape's best latency)",
        0.25,
    ),
];

const STEADY: &str = "fleet-steady";
const CHURN: &str = "fleet-churn";
const SYNTH: &str = "synth-sweep";

/// Per-layer metrics, reported by every workload with `--trace 1`. Times
/// and counts are means per served window (fleet) or per design (synth)
/// unless stated otherwise; each names the end-to-end metric it should
/// move and on which workload (no change is predicted anywhere else). A
/// layer the workload never reaches is measured by one traced repetition
/// of a workload that does (fleet-steady for the fleet, solve and model
/// layers, synth-sweep for mdfg and synthesis), so no value is a constant.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    layer("slam.lm_head_ms", "ms", Lower, "slam", "optimize call start to first solver callback: linearization, assembly, cost", "op_p50_ms, printed window_p95_ms", STEADY),
    layer("slam.lm_gap_ms", "ms", Lower, "slam", "time between solver callbacks: step cost, accept/reject, re-linearization", "op_p50_ms, printed window_p95_ms", STEADY),
    layer("slam.tail_ms", "ms", Lower, "slam", "last solver callback to optimize return: marginalize and slide", "op_p50_ms, printed window_p95_ms", STEADY),
    layer("hw.f32_solve_ms", "ms", Lower, "hw", "f32 accelerator linear-solve callbacks", "op_p50_ms, ops_per_s", STEADY),
    layer("hw.f32_solve_calls", "count", Lower, "hw", "solver callbacks per window", "op_p50_ms, ops_per_s", STEADY),
    layer("hw.f32_solve_failures", "count", Lower, "hw", "callbacks that returned no step, total over the traced replay", "op_p50_ms, ops_per_s", STEADY),
    layer("slam.system_dim", "count", Lower, "slam", "mean dimension of the linear system a callback solves", "none (explains solve time)", STEADY),
    layer("slam.landmarks", "count", Lower, "slam", "landmarks in the window when it closes", "none (explains solve time)", STEADY),
    layer("dataset.push_frame_us", "us", Lower, "dataset", "VioPipeline::push_frame, per frame", "op_p50_ms, ops_per_s", CHURN),
    layer("dataset.stream_build_ms", "ms", Lower, "dataset", "sequence build + fault injection + truncation, per session", "ops_per_s", CHURN),
    layer("fleet.admit_us", "us", Lower, "fleet", "AdmittedSession::admit, per session", "ops_per_s", CHURN),
    layer("fleet.activate_ms", "ms", Lower, "fleet", "AdmittedSession::activate (first-activation stream build), per session", "ops_per_s", CHURN),
    layer("fleet.step_share", "ratio", Higher, "fleet", "sum of frame_wall_ns over workers x serving wall, untraced run", "ops_per_s", CHURN),
    layer("fleet.overhead_ms", "ms", Lower, "fleet", "workers x serving wall minus sum of frame_wall_ns, per batch, untraced run", "ops_per_s", CHURN),
    layer("fleet.quanta", "count", Lower, "fleet", "scheduler quanta per batch (SchedulerStats)", "ops_per_s", CHURN),
    layer("fleet.steals", "count", Lower, "fleet", "work steals per batch (SchedulerStats)", "ops_per_s", CHURN),
    layer("fleet.contended_probes", "count", Lower, "fleet", "try_lock misses per batch (SchedulerStats)", "ops_per_s", CHURN),
    layer("fleet.workspace_checkouts", "count", Lower, "fleet", "solver-scratch checkouts per batch (SchedulerStats)", "ops_per_s", CHURN),
    layer("core.runtime_step_us", "us", Lower, "core", "RuntimeSystem::step_with_health (Sec. 6 policy)", "op_p50_ms", STEADY),
    layer("core.iterations_per_window", "count", Lower, "core", "LM iterations the runtime grants (also sets the printed model_window_ms/mj)", "op_p50_ms", STEADY),
    layer("hw.price_us", "us", Lower, "hw", "Eq. 13 window pricing through the shared model cache", "op_p50_ms (expected ~0)", STEADY),
    layer("hw.model_cache_hit_ratio", "ratio", Higher, "hw", "shared accelerator-model cache hits over lookups, untraced run", "op_p50_ms (expected ~0)", STEADY),
    layer("telemetry.record_us", "us", Lower, "telemetry", "SessionTelemetry::record_window", "op_p50_ms (expected ~0)", STEADY),
    layer("mdfg.build_us", "us", Lower, "mdfg", "build_mdfg", "ops_per_s, op_p50_ms", SYNTH),
    layer("mdfg.schedule_us", "us", Lower, "mdfg", "schedule", "ops_per_s, op_p50_ms", SYNTH),
    layer("core.synth_ms", "ms", Lower, "core", "synthesize (pruned design-space search)", "ops_per_s, op_p50_ms", SYNTH),
    layer("core.verilog_us", "us", Lower, "core", "emit_verilog", "ops_per_s, op_p50_ms", SYNTH),
    layer("core.synth_examined", "count", Lower, "core", "lattice points the latency model evaluated", "ops_per_s, op_p50_ms", SYNTH),
    layer("core.synth_pruned", "count", Higher, "core", "lattice points cut by incumbent bounds", "ops_per_s, op_p50_ms", SYNTH),
    layer("trace.served_ms", "ms", Lower, "trace", "traced time the layers should add up to, per op (fleet-churn: whole sessions, activation included)", "none", "all"),
    layer("trace.coverage", "ratio", Higher, "trace", "sum of layer self times over trace.served_ms; near 1 by construction (the timed layers tile the served interval but for the timer reads between them), so it checks the tracer, not the program; flagged below 0.95", "none", "all"),
    layer("trace.overhead", "ratio", Lower, "trace", "median of the one traced replay over the untraced op_p50_ms (fastest repeat): above 1 by the replay's timer reads and cold caches (most on synth-sweep, whose replay is each design's first call); well below 1 means the replay skips work the served path does", "none", "all"),
];

/// Why a workload is in the benchmark, with its size.
pub fn workload_why(w: Workload) -> String {
    match w {
        Workload::FleetSteady => format!(
            "8-vehicle mix x {STEADY_SECONDS} s per batch, 1 worker, warm windows with a prior: \
             the slam/hw/math solve path does ~99% of the work"
        ),
        Workload::FleetChurn => format!(
            "{CHURN_VEHICLES} vehicles on {CHURN_ROUTES} routes, {CHURN_WORKERS} workers, each leaving after \
             {CHURN_LEAVE_AFTER} frames: admission, activation, frontend, scheduling; no solver"
        ),
        Workload::SynthSweep => format!(
            "{} cold Archytas::generate calls per pass ({SWEEP_SHAPES} shapes x 3 boards x 4 objectives): \
             mdfg and core::synth do all the work",
            SWEEP_SHAPES * 12
        ),
    }
}

/// How long one run measures: `run_seconds` in `BENCHMARK.json` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u32 = 20;

/// Minimal JSON string escaping (the catalog holds only printable ASCII).
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metric_json(m: &Metric, full: bool) -> String {
    let mut fields = vec![
        format!("\"name\": {}", quoted(m.name)),
        format!("\"unit\": {}", quoted(m.unit)),
        format!("\"better\": {}", quoted(m.better.as_str())),
    ];
    if let Some(b) = m.bound {
        fields.push(format!("\"bound\": {b}"));
    }
    if full {
        fields.push(format!("\"layer\": {}", quoted(m.layer)));
        fields.push(format!("\"meaning\": {}", quoted(m.meaning)));
        if !m.moves.is_empty() {
            fields.push(format!("\"moves\": {}", quoted(m.moves)));
        }
        fields.push(format!("\"on\": {}", quoted(m.on)));
    }
    format!("{{{}}}", fields.join(", "))
}

fn list(items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.map(|i| format!("    {i}")).collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

/// The benchmark contract (`BENCHMARK.json` at the repository root).
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    render(&command, false)
}

/// The self-describing catalog (`benchmark/catalog.json`): the contract's
/// metrics plus layer, meaning and what each per-layer metric should move.
pub fn catalog_json() -> String {
    render(&[], true)
}

fn render(command: &[&str], full: bool) -> String {
    let workloads = list(Workload::ALL.into_iter().map(|w| {
        format!(
            "{{\"name\": {}, \"why\": {}}}",
            quoted(w.name()),
            quoted(&workload_why(w))
        )
    }));
    let mut head = Vec::new();
    if full {
        head.push(format!("  \"held_out_seed\": {HELD_OUT_SEED}"));
    } else {
        let cmd: Vec<String> = command.iter().map(|c| quoted(c)).collect();
        head.push(format!("  \"command\": [{}]", cmd.join(", ")));
        head.push("  \"paths\": [\"benchmark\"]".to_string());
    }
    head.push(format!("  \"run_seconds\": {RUN_SECONDS}"));
    head.push(format!("  \"workloads\": {workloads}"));
    head.push(format!(
        "  \"end_to_end\": {}",
        list(END_TO_END.iter().map(|m| metric_json(m, full)))
    ));
    head.push(format!(
        "  \"per_layer\": {}",
        list(PER_LAYER.iter().map(|m| metric_json(m, full)))
    ));
    format!("{{\n{}\n}}\n", head.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(rel: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn committed_contract_and_catalog_match_the_code() {
        assert_eq!(repo_file("../BENCHMARK.json"), benchmark_json());
        assert_eq!(repo_file("catalog.json"), catalog_json());
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract_limits() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()));
            assert!(workload_why(w).len() <= 200, "{}", w.name());
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end bound");
            assert!(b > 0.0 && b <= 0.25 && b <= setup.bound.expect("bound"));
        }
    }
}
