//! Fleet serving layer: multiplex many VIO sessions onto a shared
//! accelerator pool.
//!
//! The paper generates one accelerator per vehicle; this crate serves a
//! *fleet*. `N` independent vehicle sessions are admitted, scheduled onto
//! a work-stealing worker pool, and throttled by bounded
//! backpressure. Per-session state is deliberately small — the estimator
//! `Core` (a [`archytas_dataset::VioPipeline`] shell plus the private
//! iteration counter + watchdog of its [`archytas_core::RuntimeSystem`]).
//! Solver scratch is checked out of a bounded per-worker pool per
//! quantum, and all read-only derived state is shared through an `Arc`:
//! the accelerator latency/energy model
//! ([`archytas_hw::AcceleratorModel`]), the deployment's gating table
//! ([`archytas_core::GatingTable`]) and the iteration policy, built once
//! per fleet, and the frame stream, built once per distinct recipe
//! (sequence, fault plan, chaos plan) in a [`run_fleet`] batch, at the
//! first activation of any session on it. That split is what makes
//! 1000-session fleets cheap: admission costs a `Core`, not a sequence
//! replay plus a ~1 MB solver workspace, and sessions on one route replay
//! it once between them.
//!
//! **The hard contract:** every session's output is bitwise identical to
//! running that session alone, serially, at any pool size and any
//! admission order. See [`scheduler`](self) module docs for why the
//! schedule is unobservable and [`admission`](self) for why shedding is
//! arrival-time deterministic.
//!
//! # Fault isolation
//!
//! Every step runs behind `catch_unwind`: a panicking or
//! deadline-violating session moves to [`SessionPhase::Quarantined`] with
//! a [`FailureRecord`] while its neighbors keep producing their exact
//! serial-alone bits. A [`RestartPolicy`] revives quarantined sessions
//! from their last checkpoint after a capped exponential backoff
//! (measured in scheduler rounds — deterministic and seedable), and a
//! [`DeadlinePolicy`] escalates slow sessions `Nominal → SlowSuspect →
//! Quarantined` on a logical frame-count clock. The `archytas-faults`
//! crate's `ChaosPlan` is the adversary: seeded panics, stalls, poisoned
//! observations, and worker jitter for proving all of the above.
//!
//! # Example
//!
//! ```
//! use archytas_dataset::kitti_sequences;
//! use archytas_fleet::{run_fleet, run_session_alone, FleetConfig, Priority, SessionSpec};
//!
//! let specs: Vec<_> = (0..3)
//!     .map(|i| {
//!         SessionSpec::new(
//!             format!("car-{i}"),
//!             kitti_sequences()[i].truncated(2.0),
//!             Priority::Normal,
//!         )
//!     })
//!     .collect();
//! let report = run_fleet(&specs, &FleetConfig { threads: 2, ..FleetConfig::default() });
//! let alone = run_session_alone(&specs[1], &FleetConfig::default());
//! report.sessions[1].assert_bitwise_eq(&alone);
//! ```

#![warn(missing_docs)]

mod admission;
mod isolation;
mod pool;
mod scheduler;
mod session;

pub use admission::{plan as plan_admission, AdmissionDecision};
pub use archytas_telemetry::{FleetTelemetry, PowerEnvelope, SessionTelemetry, TrafficClass};
pub use isolation::{
    fnv1a, DeadlinePolicy, DeadlineVerdict, DeadlineWatchdog, FailureCause, FailureRecord,
    RestartPolicy, SessionPhase,
};
pub use pool::ScratchStats;
pub use scheduler::SchedulerStats;
pub use session::{
    fleet_pipeline_config, silence_chaos_panics, AdmittedSession, FleetServices, Priority,
    SessionOutcome, SessionReport, SessionSpec,
};

use archytas_dataset::{euroc_sequences, kitti_sequences};
use archytas_faults::{FaultKind, FaultPlan};
use archytas_hw::{AcceleratorConfig, FpgaPlatform, HIGH_PERF};
use session::{SessionState, StepOutcome};
use std::time::Instant;

/// The accelerator design every vehicle in a fleet deploys.
pub const FLEET_DESIGN: AcceleratorConfig = HIGH_PERF;

/// Per-window latency bound handed to the fleet's runtime optimizer (ms).
pub const FLEET_LATENCY_BOUND_MS: f64 = 2.5;

/// The FPGA platform hosting a fleet's accelerator instances.
pub fn fleet_platform() -> FpgaPlatform {
    FpgaPlatform::zc706()
}

/// Deployment-wide configuration of the serving layer. The deployed
/// design, its platform and latency bound are fixed ([`FLEET_DESIGN`],
/// [`fleet_platform`], [`FLEET_LATENCY_BOUND_MS`]).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads (`0` runs as `1`).
    pub threads: usize,
    /// Maximum concurrently active sessions (admission cap).
    pub max_active: usize,
    /// Arrival-backlog watermark beyond which `Low` sessions are shed
    /// (`usize::MAX` disables shedding).
    pub shed_watermark: usize,
    /// Fleet-wide power budget in watts (`f64::INFINITY` disables the
    /// envelope). Sessions are priced at the deployed design's full
    /// Eq. 17 power; arrivals that no longer fit are shed (`Low`) or
    /// start-deferred (`Normal`) *before* any queue watermark trips.
    pub power_envelope_w: f64,
    /// Runnable-session watermark at which `Low` sessions are deferred
    /// (`usize::MAX` disables deferral).
    pub defer_watermark: usize,
    /// Frames one scheduler quantum processes before requeueing.
    pub frames_per_quantum: usize,
    /// Step-deadline policy (logical frame-count clock).
    pub deadline: DeadlinePolicy,
    /// Restart ladder for quarantined sessions.
    pub restart: RestartPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            max_active: 8,
            shed_watermark: usize::MAX,
            power_envelope_w: f64::INFINITY,
            defer_watermark: usize::MAX,
            frames_per_quantum: 4,
            deadline: DeadlinePolicy::default(),
            restart: RestartPolicy::default(),
        }
    }
}

/// The standard 8-vehicle serving batch: four cars, two drones, mixed
/// priorities, and two vehicles hitting sensor faults mid-sequence.
/// Durations truncate to `seconds`, except the faulted pair, which needs
/// at least 4 s so their frame-24..28 fault windows land (10 Hz).
pub fn standard_fleet_specs(seconds: f64) -> Vec<SessionSpec> {
    let kitti = kitti_sequences();
    let euroc = euroc_sequences();
    let fault_len = seconds.max(4.0);
    vec![
        SessionSpec::new("car-0", kitti[0].truncated(seconds), Priority::High),
        SessionSpec::new("car-1", kitti[1].truncated(seconds), Priority::Normal),
        SessionSpec::new("car-2", kitti[2].truncated(seconds), Priority::Low),
        SessionSpec::new("drone-0", euroc[0].truncated(seconds), Priority::Normal),
        SessionSpec::new("drone-1", euroc[1].truncated(seconds), Priority::Low),
        SessionSpec::new("car-3", kitti[3].truncated(seconds), Priority::Normal),
        SessionSpec::new("car-flaky", kitti[1].truncated(fault_len), Priority::High)
            .with_faults(FaultPlan::new(11).with(FaultKind::VisionDropout, 24, 28)),
        SessionSpec::new("drone-flaky", euroc[0].truncated(fault_len), Priority::Low)
            .with_faults(FaultPlan::new(13).with(FaultKind::ImuNan { probability: 0.3 }, 24, 27)),
    ]
}

/// A deterministic `n`-vehicle batch for scaling runs: sequences cycle
/// through the KITTI-like and EuRoC-like sets, priorities cycle
/// High/Normal/Normal/Low, durations truncate to `seconds`. A pure
/// function of `(n, seconds)`, so every pool size serves identical work.
pub fn scaling_fleet_specs(n: usize, seconds: f64) -> Vec<SessionSpec> {
    let kitti = kitti_sequences();
    let euroc = euroc_sequences();
    (0..n)
        .map(|i| {
            let (kind, seq) = if i % 3 == 2 {
                ("drone", &euroc[(i / 3) % euroc.len()])
            } else {
                ("car", &kitti[i % kitti.len()])
            };
            let priority = match i % 4 {
                0 => Priority::High,
                3 => Priority::Low,
                _ => Priority::Normal,
            };
            SessionSpec::new(format!("{kind}-{i:04}"), seq.truncated(seconds), priority)
        })
        .collect()
}

/// Latency percentiles over every frame served by the fleet (host
/// wall-clock; timing-only, not part of the determinism contract).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyPercentiles {
    /// Median frame service time (ns).
    pub p50_ns: u64,
    /// 95th percentile (ns).
    pub p95_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
}

/// Result of serving one fleet submission batch.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-session reports, in submission order (shed sessions included).
    pub sessions: Vec<SessionReport>,
    /// Worker threads the pool ran with.
    pub threads: usize,
    /// Wall-clock serving time (s). Includes building the frame streams,
    /// which happens at first activation, once per distinct recipe.
    pub serving_wall_s: f64,
    /// Frames processed across all sessions.
    pub frames_processed: usize,
    /// Windows optimized across all sessions.
    pub windows_processed: usize,
    /// Frames per second of wall-clock serving time.
    pub throughput_fps: f64,
    /// Pooled frame-latency percentiles.
    pub latency: LatencyPercentiles,
    /// Windows priced by the accelerator model (equal to
    /// `windows_processed`: every window is priced by one direct call).
    /// Kept only because the standalone benchmark reads it; removed with
    /// the benchmark's next change.
    pub model_evaluations: usize,
    /// Always 0: window pricing has no cache. Kept only because the
    /// standalone benchmark reads it; removed with the benchmark's next
    /// change.
    pub model_cache_hits: usize,
    /// Sessions that ended terminally quarantined.
    pub quarantined_sessions: usize,
    /// Restarts consumed across the fleet.
    pub session_restarts: usize,
    /// Step-deadline misses across the fleet (lifetime, survives restarts).
    pub deadline_misses: usize,
    /// Sessions shed by admission control (envelope or backlog watermark).
    pub shed_sessions: usize,
    /// Sessions whose start the power envelope deferred (they still ran to
    /// completion with identical bits).
    pub deferred_sessions: usize,
    /// The power envelope the batch was admitted under.
    pub envelope: PowerEnvelope,
    /// Deterministic per-class/fleet telemetry, folded in submission order
    /// over every session that ran — byte-identical at any pool size.
    pub telemetry: FleetTelemetry,
    /// Running fleet watts implied by the telemetry: total modelled energy
    /// over total modelled busy time (the Eq. 17 gated power averaged over
    /// every served window).
    pub fleet_power_w: f64,
    /// Work-stealing / backpressure counters.
    pub scheduler: SchedulerStats,
}

/// Serves a submission batch: plans admission, builds the admitted
/// sessions against shared services, runs them on the worker pool, and
/// gathers per-session reports plus fleet-level metrics.
pub fn run_fleet(specs: &[SessionSpec], config: &FleetConfig) -> FleetReport {
    let threads = config.threads.max(1);
    let envelope = PowerEnvelope::new(config.power_envelope_w, &FLEET_DESIGN, &fleet_platform());
    let decisions = admission::plan(specs, config.max_active, config.shed_watermark, &envelope);
    let services = FleetServices::new(config);
    let states = admitted_states(specs, &decisions, &services);
    let defer_at_start: Vec<bool> = decisions
        .iter()
        .map(|d| *d == AdmissionDecision::Defer)
        .collect();
    let arrival: Vec<usize> = specs.iter().map(|s| s.arrival_round).collect();

    let started = Instant::now();
    let (reports, stats) = scheduler::run(
        states,
        defer_at_start,
        arrival,
        &scheduler::SchedulerConfig {
            threads,
            max_active: config.max_active,
            frames_per_quantum: config.frames_per_quantum,
            defer_watermark: config.defer_watermark,
        },
    );
    let serving_wall_s = started.elapsed().as_secs_f64();

    let sessions: Vec<SessionReport> = reports
        .into_iter()
        .zip(specs)
        .map(|(r, spec)| r.unwrap_or_else(|| SessionReport::shed(spec)))
        .collect();

    let mut all_ns: Vec<u64> = sessions
        .iter()
        .flat_map(|s| s.frame_wall_ns.iter().copied())
        .collect();
    all_ns.sort_unstable();
    let frames_processed = all_ns.len();
    let windows_processed = sessions.iter().map(|s| s.windows).sum();
    let quarantined_sessions = sessions
        .iter()
        .filter(|s| s.outcome == SessionOutcome::Quarantined)
        .count();
    let session_restarts = sessions.iter().map(|s| s.restarts).sum();
    let deadline_misses = sessions.iter().map(|s| s.deadline_misses).sum();
    let shed_sessions = sessions
        .iter()
        .filter(|s| s.outcome == SessionOutcome::Shed)
        .count();
    let deferred_sessions = decisions
        .iter()
        .filter(|d| **d == AdmissionDecision::Defer)
        .count();
    // Canonical fold: submission order over every session that ran. The
    // aggregate is a pure function of the (deterministic) per-session
    // telemetry and the spec order — byte-identical at any pool size.
    let telemetry = FleetTelemetry::fold(
        sessions
            .iter()
            .filter(|s| s.outcome != SessionOutcome::Shed)
            .map(|s| (TrafficClass::from(s.priority), &s.telemetry)),
    );
    let fleet_power_w = telemetry.fleet.watts();
    FleetReport {
        threads,
        serving_wall_s,
        frames_processed,
        windows_processed,
        throughput_fps: if serving_wall_s > 0.0 {
            frames_processed as f64 / serving_wall_s
        } else {
            0.0
        },
        latency: LatencyPercentiles {
            p50_ns: percentile_ns(&all_ns, 50.0),
            p95_ns: percentile_ns(&all_ns, 95.0),
            p99_ns: percentile_ns(&all_ns, 99.0),
        },
        model_evaluations: windows_processed,
        model_cache_hits: 0,
        quarantined_sessions,
        session_restarts,
        deadline_misses,
        shed_sessions,
        deferred_sessions,
        envelope,
        telemetry,
        fleet_power_w,
        scheduler: stats,
        sessions,
    }
}

/// Builds the admitted sessions of a batch, `None` for a shed one. Sessions
/// with equal recipes share one unbuilt frame stream, so each distinct
/// stream is built once, at the first activation of any of its sessions.
fn admitted_states(
    specs: &[SessionSpec],
    decisions: &[AdmissionDecision],
    services: &FleetServices,
) -> Vec<Option<SessionState>> {
    specs
        .iter()
        .zip(decisions)
        .zip(session::share_streams(specs))
        .map(|((spec, d), stream)| {
            (*d != AdmissionDecision::Shed).then(|| SessionState::new(spec, stream, services))
        })
        .collect()
}

/// The serial reference: runs one session to completion on the calling
/// thread with private (unshared) services. Fleet output must match this
/// bitwise, session by session.
///
/// The loop charges one logical round per `step_guarded` call — the same
/// unit the fleet scheduler charges per quantum round — so the logical
/// deadline clock (and therefore quarantine decisions) agrees bit-for-bit
/// with fleet execution. Failures walk the same restart ladder.
pub fn run_session_alone(spec: &SessionSpec, config: &FleetConfig) -> SessionReport {
    let services = FleetServices::new(config);
    let mut state = SessionState::with_private_stream(spec, &services);
    let mut workspace = archytas_slam::SolverWorkspace::new();
    loop {
        match state.step_guarded(&mut workspace) {
            StepOutcome::Progress | StepOutcome::Stalled => {}
            StepOutcome::Done => return state.finish(),
            StepOutcome::Failed => {
                if state.try_schedule_restart().is_none() {
                    return state.finish_quarantined();
                }
            }
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted sample (ns).
pub fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&s, 50.0), 50);
        assert_eq!(percentile_ns(&s, 95.0), 95);
        assert_eq!(percentile_ns(&s, 99.0), 99);
        assert_eq!(percentile_ns(&s, 100.0), 100);
        assert_eq!(percentile_ns(&[], 50.0), 0);
        assert_eq!(percentile_ns(&[7], 99.0), 7);
    }
}
