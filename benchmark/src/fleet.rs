//! Fleet workloads: the correctness gate against `run_session_alone`, the
//! timed `run_fleet` batches, and the traced serial replay.

use std::cell::Cell;
use std::time::{Duration, Instant};

use archytas_dataset::{DegradationCause, HealthState, VioPipeline};
use archytas_fleet::{
    fleet_pipeline_config, run_fleet, run_session_alone, AdmittedSession, FleetServices,
    SessionOutcome, SessionPhase, SessionReport, SessionSpec, SessionTelemetry,
};
use archytas_hw::f32_linear_solver;
use archytas_math::{DMat, DVec};
use archytas_mdfg::ProblemShape;
use archytas_par::run_as_worker;
use archytas_slam::{SolverWorkspace, TrajectoryMetrics};

use crate::stats::{self, label_frames, Fastest, Repetition, Summary};
use crate::workloads::{FleetOp, FleetPlan};
use crate::Output;

/// Builds every distinct session's frame stream once and checks it can
/// close a window (or is a leaver that departs before one fills) — the
/// input validation the set-up phase performs.
pub fn validate(plan: &FleetPlan) {
    let window = fleet_pipeline_config().window_size;
    for i in plan.distinct() {
        let spec = &plan.specs[i];
        assert!(
            spec.chaos.is_none(),
            "{}: workloads inject no chaos",
            spec.name
        );
        let frames = spec.sequence.build().frames.len();
        let served = spec.leave_after_frames.map_or(frames, |n| n.min(frames));
        assert!(
            served >= window || spec.leave_after_frames.is_some(),
            "{}: {served} frames never fill a {window}-keyframe window",
            spec.name
        );
    }
}

/// Per-layer totals of a traced replay.
#[derive(Debug, Default)]
struct LayerTrace {
    sessions: usize,
    frames: usize,
    windows: usize,
    admit: Duration,
    activate: Duration,
    stream_build: Duration,
    push_frame: Duration,
    /// `push_frame` of window-closing frames only (a served window's share).
    push_window: Duration,
    runtime_step: Duration,
    lm_head: Duration,
    solve: Duration,
    lm_gap: Duration,
    tail: Duration,
    price: Duration,
    record: Duration,
    solve_calls: usize,
    solve_failures: usize,
    system_dim: usize,
    landmarks: usize,
    iterations: usize,
    /// Traced host time of each window-closing frame.
    served_windows: Vec<Duration>,
    /// Traced host time of every frame.
    served_frames: Vec<Duration>,
    /// Traced host time of whole sessions (stream build, then every frame).
    served_sessions: Duration,
}

impl LayerTrace {
    /// Traced time of each operation of type `op`.
    fn served(&self, op: FleetOp) -> &[Duration] {
        match op {
            FleetOp::Window => &self.served_windows,
            FleetOp::Frame => &self.served_frames,
        }
    }

    /// The traced time the layers should add up to: every window-closing
    /// frame for window operations; whole sessions, activation included,
    /// for frame operations (where activation is most of a worker's time).
    fn served_total(&self, op: FleetOp) -> Duration {
        match op {
            FleetOp::Window => self.served_windows.iter().sum(),
            FleetOp::Frame => self.served_sessions,
        }
    }

    /// Sum of the layer self times inside [`LayerTrace::served_total`].
    fn layer_sum(&self, op: FleetOp) -> Duration {
        let outside_solve = match op {
            FleetOp::Window => self.push_window,
            FleetOp::Frame => self.stream_build + self.push_frame,
        };
        outside_solve
            + self.runtime_step
            + self.lm_head
            + self.solve
            + self.lm_gap
            + self.tail
            + self.price
            + self.record
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Replays one session serially through the public calls a fleet step
/// makes (`push_frame`, `step_with_health`, `optimize_and_slide_with_in`
/// with the f32 accelerator solver, `window_latency_ms`, `record_window`),
/// timing each from outside. The solver callback is wrapped in a timer,
/// which splits the optimize call into the assembly/cost head, the solves,
/// the gaps between them and the marginalize-and-slide tail.
///
/// Returns the session's report (with traced frame times) and, per frame,
/// whether it closed a window.
fn replay_session(
    spec: &SessionSpec,
    services: &FleetServices,
    workspace: &mut SolverWorkspace,
    trace: &mut LayerTrace,
) -> (SessionReport, Vec<bool>) {
    let t = Instant::now();
    let mut frames = spec.sequence.build().frames;
    if let Some(plan) = &spec.fault_plan {
        frames = archytas_faults::apply(plan, &frames);
    }
    if let Some(n) = spec.leave_after_frames {
        frames.truncate(n);
    }
    trace.stream_build += t.elapsed();
    trace.sessions += 1;
    let session_start = t;

    let mut pipeline = VioPipeline::new(fleet_pipeline_config());
    let mut runtime = services.runtime();
    let mut metrics = TrajectoryMetrics::new();
    let mut telemetry = SessionTelemetry::new();
    let mut report = SessionReport {
        name: spec.name.clone(),
        priority: spec.priority,
        outcome: SessionOutcome::Completed,
        frames: frames.len(),
        windows: 0,
        estimates: Vec::new(),
        iterations: Vec::new(),
        modelled_latency_ms: 0.0,
        modelled_energy_mj: 0.0,
        rmse_m: 0.0,
        degraded_windows: 0,
        watchdog_windows: 0,
        sensor_fault_windows: 0,
        solver_divergence_windows: 0,
        prior_reset_windows: 0,
        phase: SessionPhase::Nominal,
        restarts: 0,
        deadline_misses: 0,
        failure: None,
        frame_wall_ns: Vec::with_capacity(frames.len()),
        telemetry: SessionTelemetry::new(),
    };
    let mut closes_window = Vec::with_capacity(frames.len());
    for frame in &frames {
        let t0 = Instant::now();
        let produced = pipeline.push_frame(frame);
        let t1 = Instant::now();
        trace.frames += 1;
        trace.push_frame += t1 - t0;
        closes_window.push(produced);
        if !produced {
            trace.served_frames.push(t1 - t0);
            report.frame_wall_ns.push((t1 - t0).as_nanos() as u64);
            continue;
        }
        let landmarks = pipeline.window().num_landmarks();
        let healthy = !pipeline.health().is_suspect();
        let decision = runtime.step_with_health(landmarks, healthy);
        if runtime.watchdog().engaged() {
            report.watchdog_windows += 1;
        }
        let t2 = Instant::now();

        let first_start: Cell<Option<Instant>> = Cell::new(None);
        let last_end: Cell<Option<Instant>> = Cell::new(None);
        let solve = Cell::new(Duration::ZERO);
        let gap = Cell::new(Duration::ZERO);
        let calls = Cell::new(0usize);
        let failures = Cell::new(0usize);
        let dims = Cell::new(0usize);
        let timed_solver = |a: &DMat, b: &DVec, num_landmarks: usize| -> Option<DVec> {
            let start = Instant::now();
            match last_end.get() {
                Some(end) => gap.set(gap.get() + (start - end)),
                None => first_start.set(Some(start)),
            }
            let x = f32_linear_solver(a, b, num_landmarks);
            let end = Instant::now();
            solve.set(solve.get() + (end - start));
            last_end.set(Some(end));
            calls.set(calls.get() + 1);
            failures.set(failures.get() + usize::from(x.is_none()));
            dims.set(dims.get() + a.rows());
            x
        };
        let t3 = Instant::now();
        let result =
            pipeline.optimize_and_slide_with_in(workspace, decision.iterations, &timed_solver);
        let t4 = Instant::now();
        let shape = ProblemShape::from_workload(&result.workload);
        let latency_ms = services
            .model
            .window_latency_ms(&shape, decision.iterations);
        let t5 = Instant::now();
        let energy_mj = latency_ms * decision.gated_power_w;
        telemetry.record_window(latency_ms, energy_mj, decision.iterations as u32);
        let t6 = Instant::now();
        report.modelled_latency_ms += latency_ms;
        report.modelled_energy_mj += energy_mj;
        if result.health == HealthState::Degraded {
            report.degraded_windows += 1;
        }
        match result.cause {
            Some(DegradationCause::SensorFault) => report.sensor_fault_windows += 1,
            Some(DegradationCause::SolverDivergence) => report.solver_divergence_windows += 1,
            Some(DegradationCause::PriorReset) => report.prior_reset_windows += 1,
            None => {}
        }
        metrics.record(&result.estimate, &result.ground_truth, 0.0);
        report.estimates.push(result.estimate);
        report.iterations.push(decision.iterations);
        let t7 = Instant::now();

        trace.windows += 1;
        trace.push_window += t1 - t0;
        trace.runtime_step += t2 - t1;
        trace.lm_head += first_start.get().unwrap_or(t4) - t3;
        trace.solve += solve.get();
        trace.lm_gap += gap.get();
        trace.tail += last_end.get().map_or(Duration::ZERO, |end| t4 - end);
        trace.price += t5 - t4;
        trace.record += t6 - t5;
        trace.solve_calls += calls.get();
        trace.solve_failures += failures.get();
        trace.system_dim += dims.get();
        trace.landmarks += landmarks;
        trace.iterations += decision.iterations;
        trace.served_windows.push(t7 - t0);
        trace.served_frames.push(t7 - t0);
        report.frame_wall_ns.push((t7 - t0).as_nanos() as u64);
    }
    report.windows = report.estimates.len();
    report.rmse_m = metrics.rmse();
    report.telemetry = telemetry;
    trace.served_sessions += session_start.elapsed();
    (report, closes_window)
}

/// `true` when `got` completed cleanly and agrees with `want` on every
/// deterministic field: the frozen digest payload, the degradation causes
/// and the telemetry histograms.
fn same_bits(got: &SessionReport, want: &SessionReport) -> bool {
    got.outcome == SessionOutcome::Completed
        && want.outcome == SessionOutcome::Completed
        && got.restarts == 0
        && want.restarts == 0
        && got.frames == want.frames
        && got.windows == want.windows
        && got.digest() == want.digest()
        && got.sensor_fault_windows == want.sensor_fault_windows
        && got.solver_divergence_windows == want.solver_divergence_windows
        && got.prior_reset_windows == want.prior_reset_windows
        && got.telemetry == want.telemetry
}

/// Untraced serving totals over every timed batch.
#[derive(Debug, Default)]
struct Served {
    batches: Vec<Repetition>,
    ops_per_batch: usize,
    /// Smallest worker time of a batch spent outside frame steps (s).
    least_overhead_s: f64,
    wall_s: f64,
    frames: usize,
    windows: usize,
    frame_ns: u64,
    frontend_ms: Vec<f64>,
    quanta: usize,
    steals: usize,
    contended_probes: usize,
    workspace_checkouts: usize,
    model_hits: usize,
    model_evaluations: usize,
    restarts: usize,
    modelled_ms: f64,
    modelled_mj: f64,
    rmse_m_sum: f64,
    rmse_sessions: usize,
}

/// Runs a fleet workload: the correctness gate (reference + replay per
/// distinct session), timed `run_fleet` batches for `seconds`, and with
/// `trace` the serial traced replay of every session of the batch. Calls
/// `between` after each timed batch.
pub fn run(plan: &FleetPlan, seconds: f64, trace: bool, between: &mut dyn FnMut()) -> Output {
    let workers = plan.config.threads;
    let distinct = plan.distinct();
    let references: Vec<SessionReport> = distinct
        .iter()
        .map(|&i| run_as_worker(|| run_session_alone(&plan.specs[i], &plan.config)))
        .collect();
    let slot = |i: usize| {
        distinct
            .binary_search(&plan.representative[i])
            .expect("representative is distinct")
    };

    // Replays, serially on one shared deployment (as one worker runs them):
    // with `trace`, every session of the batch, timed per layer; otherwise
    // each distinct session once, for its frame labels.
    let mut layer = LayerTrace::default();
    let mut labels: Vec<Option<Vec<bool>>> = vec![None; distinct.len()];
    // A replay that disagrees with its reference leaves its route without
    // labels, so every served copy of that route counts as failed.
    let mut disagrees = vec![false; distinct.len()];
    let services = FleetServices::new(&plan.config);
    let mut workspace = SolverWorkspace::new();
    if trace {
        for (i, spec) in plan.specs.iter().enumerate() {
            let t = Instant::now();
            let mut admitted = AdmittedSession::admit(spec, &services);
            layer.admit += t.elapsed();
            let t = Instant::now();
            admitted.activate();
            layer.activate += t.elapsed();
            drop(admitted);
            let (report, closes) =
                run_as_worker(|| replay_session(spec, &services, &mut workspace, &mut layer));
            let k = slot(i);
            disagrees[k] |= !same_bits(&report, &references[k]);
            labels[k].get_or_insert(closes);
        }
    }
    for k in 0..distinct.len() {
        if labels[k].is_none() {
            let spec = &plan.specs[distinct[k]];
            let mut untraced = LayerTrace::default();
            let (report, closes) =
                run_as_worker(|| replay_session(spec, &services, &mut workspace, &mut untraced));
            disagrees[k] = !same_bits(&report, &references[k]);
            labels[k] = Some(closes);
        }
    }
    for (label, bad) in labels.iter_mut().zip(&disagrees) {
        if *bad {
            *label = None;
        }
    }

    // Operations each session should serve (a session serving none still
    // counts as one, so its loss shows).
    let expected = |i: usize| {
        let r = &references[slot(i)];
        match plan.op {
            FleetOp::Window => r.windows,
            FleetOp::Frame => r.frames,
        }
        .max(1)
    };
    // Every served copy of a distinct session repeats its frames exactly,
    // so frame `f` of distinct session `k` is operation `first[k] + f`.
    let first: Vec<usize> = references
        .iter()
        .scan(0, |next, r| {
            let at = *next;
            *next += r.frames;
            Some(at)
        })
        .collect();
    let mut fastest = Fastest::new(references.iter().map(|r| r.frames).sum());
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut served = Served {
        least_overhead_s: f64::INFINITY,
        ..Served::default()
    };
    let started = Instant::now();
    loop {
        let report = run_fleet(&plan.specs, &plan.config);
        served.wall_s += report.serving_wall_s;
        served.frames += report.frames_processed;
        served.windows += report.windows_processed;
        served.quanta += report.scheduler.quanta;
        served.steals += report.scheduler.steals;
        served.contended_probes += report.scheduler.contended_probes;
        served.workspace_checkouts += report.scheduler.scratch.checkouts;
        served.model_hits += report.model_cache_hits;
        served.model_evaluations += report.model_evaluations;
        served.restarts += report.session_restarts;
        let mut batch_ms = Vec::new();
        let mut batch_frame_ns = 0u64;
        for (i, session) in report.sessions.iter().enumerate() {
            let k = slot(i);
            attempted += expected(i);
            batch_frame_ns += session.frame_wall_ns.iter().sum::<u64>();
            let labelled = labels[k]
                .as_deref()
                .and_then(|closes| label_frames(&session.frame_wall_ns, closes));
            match labelled {
                Some(l) if same_bits(session, &references[k]) => {
                    let to_ms = |ns: &u64| *ns as f64 / 1e6;
                    for (f, ns) in session.frame_wall_ns.iter().enumerate() {
                        fastest.record(first[k] + f, to_ms(ns));
                    }
                    served.frontend_ms.extend(l.frontend_ns.iter().map(to_ms));
                    match plan.op {
                        FleetOp::Window => batch_ms.extend(l.window_ns.iter().map(to_ms)),
                        FleetOp::Frame => batch_ms.extend(session.frame_wall_ns.iter().map(to_ms)),
                    }
                }
                _ => failed += expected(i),
            }
            served.modelled_ms += session.modelled_latency_ms;
            served.modelled_mj += session.modelled_energy_mj;
            if session.windows > 0 {
                served.rmse_m_sum += session.rmse_m;
                served.rmse_sessions += 1;
            }
        }
        let ops = match plan.op {
            FleetOp::Window => report.windows_processed,
            FleetOp::Frame => report.frames_processed,
        };
        served.frame_ns += batch_frame_ns;
        // Worker time outside the frame steps: admission, activation,
        // scheduling and idle workers.
        let overhead_s = workers as f64 * report.serving_wall_s - batch_frame_ns as f64 / 1e9;
        served.least_overhead_s = served.least_overhead_s.min(overhead_s);
        served.ops_per_batch = ops;
        served
            .batches
            .push(Repetition::new(batch_ms, ops, report.serving_wall_s));
        between();
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    // Restarts would shift frame_wall_ns against the replay's labels.
    assert_eq!(served.restarts, 0, "restarts misalign the frame labels");

    served.frontend_ms.sort_by(f64::total_cmp);
    let batches = served.batches.len() as f64;
    let busy_ns = (workers as f64) * served.wall_s * 1e9;
    let windows = served.windows.max(1) as f64;
    // The batch replayed at each frame's fastest repeat plus the least
    // overhead any batch had, over the workers.
    let step_ms: f64 = (0..plan.specs.len())
        .map(|i| {
            let k = slot(i);
            (0..references[k].frames)
                .map(|f| fastest.get(first[k] + f))
                .sum::<f64>()
        })
        .sum();
    let batch_s = (step_ms / 1e3 + served.least_overhead_s) / workers as f64;
    let mut op_ms = Vec::new();
    for (k, closes) in labels.iter().enumerate() {
        for (f, &c) in closes.as_deref().unwrap_or(&[]).iter().enumerate() {
            if c || plan.op == FleetOp::Frame {
                op_ms.push(fastest.get(first[k] + f));
            }
        }
    }
    let summary = Summary::new(op_ms, served.ops_per_batch as f64 / batch_s);
    let mut out = Output {
        attempted,
        failed,
        workers,
        noun: plan.op.noun(),
        reps: served.batches,
        summary,
        ..Output::default()
    };
    out.table = vec![(
        "frontend_p50_ms".into(),
        stats::percentile(&served.frontend_ms, 500),
        "ms",
    )];
    // On the window workload; fleet-churn's frames_per_s is its op rate.
    if served.windows > 0 {
        out.table.extend([
            (
                "frames_per_s".into(),
                served.frames as f64 / served.wall_s,
                "1/s",
            ),
            (
                "rmse_cm".into(),
                100.0 * served.rmse_m_sum / served.rmse_sessions.max(1) as f64,
                "cm",
            ),
            ("model_window_ms".into(), served.modelled_ms / windows, "ms"),
            ("model_window_mj".into(), served.modelled_mj / windows, "mJ"),
        ]);
    }

    let lookups = served.model_hits + served.model_evaluations;
    out.per_layer = vec![
        ("fleet.step_share", served.frame_ns as f64 / busy_ns),
        (
            "fleet.overhead_ms",
            (busy_ns - served.frame_ns as f64) / 1e6 / batches,
        ),
        ("fleet.quanta", served.quanta as f64 / batches),
        ("fleet.steals", served.steals as f64 / batches),
        (
            "fleet.contended_probes",
            served.contended_probes as f64 / batches,
        ),
        (
            "fleet.workspace_checkouts",
            served.workspace_checkouts as f64 / batches,
        ),
    ];
    if lookups > 0 {
        out.per_layer.push((
            "hw.model_cache_hit_ratio",
            served.model_hits as f64 / lookups as f64,
        ));
    }
    if trace {
        let sessions = layer.sessions.max(1) as f64;
        let ops = layer.served(plan.op);
        let traced: Vec<f64> = ops.iter().map(|d| ms(*d)).collect();
        let traced_p50 = stats::median(&traced);
        let served_total = layer.served_total(plan.op);
        // The solve-path layers only where windows close (not fleet-churn).
        if layer.windows > 0 {
            let w = layer.windows as f64;
            out.per_layer.extend([
                ("slam.lm_head_ms", ms(layer.lm_head) / w),
                ("slam.lm_gap_ms", ms(layer.lm_gap) / w),
                ("slam.tail_ms", ms(layer.tail) / w),
                ("hw.f32_solve_ms", ms(layer.solve) / w),
                ("hw.f32_solve_calls", layer.solve_calls as f64 / w),
                ("hw.f32_solve_failures", layer.solve_failures as f64),
                (
                    "slam.system_dim",
                    layer.system_dim as f64 / layer.solve_calls.max(1) as f64,
                ),
                ("slam.landmarks", layer.landmarks as f64 / w),
                ("core.runtime_step_us", us(layer.runtime_step) / w),
                ("core.iterations_per_window", layer.iterations as f64 / w),
                ("hw.price_us", us(layer.price) / w),
                ("telemetry.record_us", us(layer.record) / w),
            ]);
        }
        out.per_layer.extend([
            (
                "dataset.push_frame_us",
                us(layer.push_frame) / layer.frames.max(1) as f64,
            ),
            ("dataset.stream_build_ms", ms(layer.stream_build) / sessions),
            ("fleet.admit_us", us(layer.admit) / sessions),
            ("fleet.activate_ms", ms(layer.activate) / sessions),
            (
                "trace.served_ms",
                ms(served_total) / ops.len().max(1) as f64,
            ),
            (
                "trace.coverage",
                layer.layer_sum(plan.op).as_secs_f64() / served_total.as_secs_f64(),
            ),
            ("trace.overhead", traced_p50 / summary.p50_ms),
        ]);
        out.table.push((
            format!("traced_{}_p50_ms", plan.op.noun()),
            traced_p50,
            "ms",
        ));
        out.table.push((
            format!("traced_{}s", plan.op.noun()),
            ops.len() as f64,
            "count",
        ));
    }
    out
}
