//! A vehicle session: one [`Vehicle`] (VIO pipeline plus its runtime
//! instance, closing each window through the shared `archytas-core` step),
//! stepped frame-by-frame by the fleet scheduler.
//!
//! A session owns *all* of its mutable state — pipeline, sliding window,
//! iteration counter, watchdog — so the scheduler can migrate it freely
//! between workers: whichever worker holds the session's lock sees exactly
//! the state the previous quantum left behind. A session shares only
//! immutable values with its neighbours: those built once per deployment
//! ([`AcceleratorModel`], [`archytas_core::GatingTable`]) and its frame
//! stream, built once per distinct recipe (sequence, fault plan, chaos
//! plan) and read by every session of the batch with that recipe. Each is
//! a pure function of what it is built from, which is why fleet execution
//! is bitwise identical to running each session alone.
//!
//! # Fault isolation
//!
//! Every step executes behind [`std::panic::catch_unwind`]: a panicking
//! session is moved to [`SessionPhase::Quarantined`] with a
//! [`FailureRecord`] instead of unwinding into the worker. The
//! deterministic state a step mutates lives in one `Core` struct, cloned
//! periodically as a checkpoint — the restart ladder overwrites a torn
//! core with the checkpoint, so mid-assembly wreckage is never observable.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use archytas_core::{Executor, GatingTable, IterPolicy, RuntimeSystem, Vehicle};
use archytas_dataset::{
    DegradationCause, Frame, HealthState, PipelineConfig, SequenceSpec, VioPipeline,
};
use archytas_faults::{ChaosPlan, FaultPlan};
use archytas_hw::AcceleratorModel;
use archytas_mdfg::ProblemShape;
use archytas_slam::{FactorWeights, Pose, Precision, SolverWorkspace, TrajectoryMetrics};
use archytas_telemetry::{SessionTelemetry, TrafficClass};

use crate::isolation::{
    backoff_rounds, fnv1a, DeadlinePolicy, DeadlineVerdict, DeadlineWatchdog, FailureCause,
    FailureRecord, RestartPolicy, SessionPhase,
};
use crate::{fleet_platform, FleetConfig, FLEET_DESIGN, FLEET_LATENCY_BOUND_MS};

/// Windows between session checkpoints (restart granularity) when the
/// restart ladder is enabled.
const CHECKPOINT_INTERVAL: usize = 8;

/// Scheduling priority of a session.
///
/// Priority only affects *when* a session's frames are processed (admission,
/// shedding, backpressure deferral) — never *what* they compute. A `Low`
/// session that completes produces the same bits as a `High` one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// First to be deferred under backpressure, only class that can be shed.
    Low,
    /// Default class: admitted in arrival order, never shed.
    Normal,
    /// Safety-critical vehicle: never shed, never deferred.
    High,
}

impl From<Priority> for TrafficClass {
    fn from(p: Priority) -> Self {
        match p {
            Priority::Low => TrafficClass::Low,
            Priority::Normal => TrafficClass::Normal,
            Priority::High => TrafficClass::High,
        }
    }
}

/// Description of one vehicle joining the fleet.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Display name (unique per fleet run).
    pub name: String,
    /// The sensor sequence this vehicle replays.
    pub sequence: SequenceSpec,
    /// Scheduling class.
    pub priority: Priority,
    /// Optional seeded fault plan applied to the sensor stream.
    pub fault_plan: Option<FaultPlan>,
    /// Optional seeded execution-level chaos plan (panics, stalls,
    /// poisoned observations, worker jitter).
    pub chaos: Option<ChaosPlan>,
    /// Scheduler round (logical quanta clock) at which this vehicle joins
    /// the fleet. `0` joins at startup; later rounds model mid-run churn.
    /// Scheduling-only: a late joiner computes the same bits as an early
    /// one.
    pub arrival_round: usize,
    /// Leaves the fleet after this many frames (the rest of the sequence is
    /// never delivered). Applied identically by [`crate::run_session_alone`],
    /// so a leaver still satisfies the bitwise serial-identical contract.
    pub leave_after_frames: Option<usize>,
    /// Mid-run priority changes as `(frame_index, new_priority)` pairs: the
    /// flip takes effect once the session has processed that many frames.
    /// Scheduling-only, like [`SessionSpec::priority`] itself.
    pub priority_flips: Vec<(usize, Priority)>,
}

impl SessionSpec {
    /// A fault-free session.
    pub fn new(name: impl Into<String>, sequence: SequenceSpec, priority: Priority) -> Self {
        Self {
            name: name.into(),
            sequence,
            priority,
            fault_plan: None,
            chaos: None,
            arrival_round: 0,
            leave_after_frames: None,
            priority_flips: Vec::new(),
        }
    }

    /// Attaches a seeded fault plan to the sensor stream.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a seeded chaos plan to the session's execution.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Joins the fleet at the given scheduler round instead of at startup.
    pub fn arriving_at(mut self, round: usize) -> Self {
        self.arrival_round = round;
        self
    }

    /// Leaves the fleet after the given number of frames.
    pub fn leaving_after(mut self, frames: usize) -> Self {
        self.leave_after_frames = Some(frames);
        self
    }

    /// Flips the scheduling priority once `frame` frames have been
    /// processed.
    pub fn with_priority_flip(mut self, frame: usize, priority: Priority) -> Self {
        self.priority_flips.push((frame, priority));
        self
    }
}

/// How a session left the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Every frame was processed.
    Completed,
    /// Rejected by admission control before processing any frame.
    Shed,
    /// Quarantined by the fault-isolation layer (panic or deadline-miss
    /// budget) with no restart budget left.
    Quarantined,
}

/// Final per-session record, sufficient for a bitwise comparison against a
/// serial run of the same session alone.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Session name from the spec.
    pub name: String,
    /// Scheduling class from the spec.
    pub priority: Priority,
    /// Completion status.
    pub outcome: SessionOutcome,
    /// Frames pushed through the front-end.
    pub frames: usize,
    /// Windows optimized.
    pub windows: usize,
    /// Newest-keyframe estimate after each window (the deterministic
    /// output contract: compared bit-for-bit against a serial-alone run).
    pub estimates: Vec<Pose>,
    /// Iteration budget the runtime granted for each window.
    pub iterations: Vec<usize>,
    /// Total modelled accelerator latency (ms).
    pub modelled_latency_ms: f64,
    /// Total modelled energy at the gated power (mJ).
    pub modelled_energy_mj: f64,
    /// Trajectory RMSE (m).
    pub rmse_m: f64,
    /// Windows that closed in the `Degraded` ladder state.
    pub degraded_windows: usize,
    /// Windows for which the runtime watchdog held the full configuration.
    pub watchdog_windows: usize,
    /// Windows degraded by a sanitized sensor fault.
    pub sensor_fault_windows: usize,
    /// Windows degraded by solver divergence (no sensor fault latched).
    pub solver_divergence_windows: usize,
    /// Windows degraded by a failed marginalization (prior reset).
    pub prior_reset_windows: usize,
    /// Final fault-isolation phase.
    pub phase: SessionPhase,
    /// Restarts consumed from the restart ladder.
    pub restarts: usize,
    /// Step-deadline misses across the session's whole life (survives
    /// restarts; deterministic under the logical clock).
    pub deadline_misses: usize,
    /// The (most recent) quarantine event, if any.
    pub failure: Option<FailureRecord>,
    /// Host wall-clock time per frame (ns). Timing-only: excluded from the
    /// determinism contract, pooled fleet-wide for latency percentiles.
    pub frame_wall_ns: Vec<u64>,
    /// Per-window latency/energy histograms and iteration counts, recorded
    /// on the step path. Deterministic (built from modelled quantities)
    /// and checked by [`SessionReport::assert_bitwise_eq`], but *excluded*
    /// from [`SessionReport::digest`] — the digest's field set is frozen.
    pub telemetry: SessionTelemetry,
}

impl SessionReport {
    /// The empty report of a shed session.
    pub(crate) fn shed(spec: &SessionSpec) -> Self {
        Self {
            name: spec.name.clone(),
            priority: spec.priority,
            outcome: SessionOutcome::Shed,
            frames: 0,
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
            frame_wall_ns: Vec::new(),
            telemetry: SessionTelemetry::new(),
        }
    }

    /// The deterministic payload as raw bits, one `[u64; 7]` per window
    /// (quaternion w,x,y,z then translation x,y,z).
    pub fn estimate_bits(&self) -> Vec<[u64; 7]> {
        self.estimates
            .iter()
            .map(|p| {
                [
                    p.rot.w.to_bits(),
                    p.rot.v.x().to_bits(),
                    p.rot.v.y().to_bits(),
                    p.rot.v.z().to_bits(),
                    p.trans.x().to_bits(),
                    p.trans.y().to_bits(),
                    p.trans.z().to_bits(),
                ]
            })
            .collect()
    }

    /// FNV-1a digest over every deterministic field — two runs of the same
    /// session agree on the digest iff they agree on every estimate bit,
    /// every iteration decision, and every modelled cost.
    ///
    /// The eaten field set is frozen: restart/deadline counters are report
    /// metadata, not digest payload, so a restarted session that replays to
    /// the same estimates digests identically to a clean run — which is
    /// exactly the restart-determinism contract.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.windows as u64);
        for bits in self.estimate_bits() {
            bits.into_iter().for_each(&mut eat);
        }
        for &it in &self.iterations {
            eat(it as u64);
        }
        eat(self.modelled_latency_ms.to_bits());
        eat(self.modelled_energy_mj.to_bits());
        eat(self.rmse_m.to_bits());
        eat(self.degraded_windows as u64);
        eat(self.watchdog_windows as u64);
        h
    }

    /// Asserts bitwise equality of the deterministic payload with `other`,
    /// panicking with a window-level diagnostic on the first divergence.
    pub fn assert_bitwise_eq(&self, other: &Self) {
        assert_eq!(self.name, other.name);
        assert_eq!(self.outcome, other.outcome, "{}: outcome", self.name);
        assert_eq!(self.windows, other.windows, "{}: window count", self.name);
        assert_eq!(
            self.iterations, other.iterations,
            "{}: iteration schedule",
            self.name
        );
        for (w, (a, b)) in self
            .estimate_bits()
            .iter()
            .zip(other.estimate_bits().iter())
            .enumerate()
        {
            assert_eq!(a, b, "{}: estimate bits diverge at window {w}", self.name);
        }
        assert_eq!(
            self.modelled_latency_ms.to_bits(),
            other.modelled_latency_ms.to_bits(),
            "{}: modelled latency",
            self.name
        );
        assert_eq!(
            self.modelled_energy_mj.to_bits(),
            other.modelled_energy_mj.to_bits(),
            "{}: modelled energy",
            self.name
        );
        assert_eq!(
            self.rmse_m.to_bits(),
            other.rmse_m.to_bits(),
            "{}: rmse",
            self.name
        );
        assert_eq!(
            self.degraded_windows, other.degraded_windows,
            "{}: degraded windows",
            self.name
        );
        assert_eq!(
            self.watchdog_windows, other.watchdog_windows,
            "{}: watchdog windows",
            self.name
        );
        assert_eq!(
            self.sensor_fault_windows, other.sensor_fault_windows,
            "{}: sensor-fault windows",
            self.name
        );
        assert_eq!(
            self.solver_divergence_windows, other.solver_divergence_windows,
            "{}: solver-divergence windows",
            self.name
        );
        assert_eq!(
            self.prior_reset_windows, other.prior_reset_windows,
            "{}: prior-reset windows",
            self.name
        );
        assert_eq!(
            self.telemetry, other.telemetry,
            "{}: telemetry histograms",
            self.name
        );
    }
}

/// The immutable services every session shares: the accelerator latency
/// model, the gating table, and the iteration policy. A fleet serves one
/// deployment, so each is built once here and every session holds an `Arc`
/// to it; all are pure functions of the deployment, so sharing them cannot
/// change any session's numerics.
#[derive(Debug)]
pub struct FleetServices {
    /// The deployed design's latency/energy model; every window is priced
    /// by a direct call.
    pub model: Arc<AcceleratorModel>,
    /// The deployment's gating table (paper Sec. 6), built once.
    pub gating: Arc<GatingTable>,
    /// Shared iteration policy (immutable lookup table).
    pub policy: Arc<IterPolicy>,
    /// Step-deadline policy every session runs under.
    pub deadline: DeadlinePolicy,
    /// Restart/backoff ladder every session runs under.
    pub restart: RestartPolicy,
}

impl FleetServices {
    /// Builds the shared services for one fleet deployment.
    pub fn new(config: &FleetConfig) -> Self {
        Self {
            model: Arc::new(AcceleratorModel::new(FLEET_DESIGN, fleet_platform())),
            gating: Arc::new(GatingTable::build(
                &FLEET_DESIGN,
                &ProblemShape::typical(),
                FLEET_LATENCY_BOUND_MS,
                &fleet_platform(),
            )),
            policy: Arc::new(IterPolicy::default_table()),
            deadline: config.deadline,
            restart: config.restart,
        }
    }

    /// A per-session runtime instance over the shared gating table. The
    /// `IterCounter` and `RuntimeWatchdog` inside are private per-session
    /// state.
    pub fn runtime(&self) -> RuntimeSystem {
        RuntimeSystem::with_shared_gating(
            Arc::clone(&self.gating),
            &self.model.platform,
            Arc::clone(&self.policy),
        )
    }
}

/// The pipeline configuration every fleet session runs: the default VIO
/// stack with a Huber robust kernel, matching the fault-injection matrix so
/// faulted sessions stay well-conditioned, solving each window in the
/// accelerator's f32 datapath.
pub fn fleet_pipeline_config() -> PipelineConfig {
    PipelineConfig {
        weights: FactorWeights::default().with_huber(0.004),
        precision: Precision::F32,
        ..PipelineConfig::default()
    }
}

/// What one guarded step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// A frame was processed; more remain.
    Progress,
    /// The sequence is exhausted.
    Done,
    /// The step is wedged (chaos stall); it consumed this scheduler round
    /// without touching any deterministic state.
    Stalled,
    /// The session failed (panic or deadline quarantine) and holds a
    /// [`FailureRecord`]; ask [`SessionState::try_schedule_restart`].
    Failed,
}

/// Every piece of deterministic state a step mutates, in one cloneable
/// struct — the unit of checkpoint/restore for the restart ladder. The
/// frame stream, chaos bookkeeping, and lifetime counters live *outside*,
/// so a restore rewinds the estimator without forgetting what already
/// happened to the session.
#[derive(Debug, Clone)]
struct Core {
    cursor: usize,
    vehicle: Vehicle,
    metrics: TrajectoryMetrics,
    estimates: Vec<Pose>,
    iterations: Vec<usize>,
    modelled_latency_ms: f64,
    modelled_energy_mj: f64,
    degraded_windows: usize,
    watchdog_windows: usize,
    /// Degradation-cause counts: [sensor fault, solver divergence, prior
    /// reset].
    cause_windows: [usize; 3],
    /// Per-window telemetry (inside the checkpoint: a restart replays the
    /// rewound windows into the histograms, so a restarted session's
    /// telemetry is bitwise a clean run's).
    telemetry: SessionTelemetry,
    /// Deadline streak state (inside the checkpoint, so a restart also
    /// clears the miss streak that killed the session).
    watchdog: DeadlineWatchdog,
    /// Scheduler rounds consumed by stalls since the last window closed —
    /// the logical-clock numerator of the deadline check.
    stalls_since_window: usize,
}

/// Payload prefix of every injected chaos panic.
const CHAOS_PANIC_PREFIX: &str = "chaos:";

/// Installs (once per process) a panic hook that swallows injected chaos
/// panics — their payload starts with `chaos:` — and forwards every other
/// panic to the previous hook, so real failures stay loud. Idempotent and
/// race-free: tests and bins that inject panics call it before serving.
pub fn silence_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let chaos = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with(CHAOS_PANIC_PREFIX));
            if !chaos {
                default(info);
            }
        }));
    });
}

impl Core {
    /// Processes the next frame through the session's [`Vehicle`] and folds
    /// a closed window's record into the report counters. Returns
    /// `(done, window_closed)`. Purely a function of the session's own
    /// state — no observable dependence on what other sessions are doing.
    ///
    /// `inject_panic` fires the chaos panic *after* the front-end ingests
    /// the frame, so the unwind genuinely tears mid-assembly state (a
    /// half-extended window) — the hardest case for isolation.
    fn step_frame(
        &mut self,
        frames: &[Frame],
        workspace: &mut SolverWorkspace,
        inject_panic: bool,
    ) -> (bool, bool) {
        if self.cursor >= frames.len() {
            // Zero-frame stream (a churn leaver truncated to nothing):
            // complete immediately.
            return (true, false);
        }
        let produced = self.vehicle.push_frame(&frames[self.cursor]);
        self.cursor += 1;
        if inject_panic {
            panic!(
                "{CHAOS_PANIC_PREFIX} injected session panic at frame {}",
                self.cursor - 1
            );
        }
        if produced {
            let w = self.vehicle.close_window(workspace);
            self.modelled_latency_ms += w.latency_ms;
            self.modelled_energy_mj += w.energy_mj;
            self.telemetry
                .record_window(w.latency_ms, w.energy_mj, w.iterations as u32);
            self.degraded_windows += usize::from(w.health == HealthState::Degraded);
            self.watchdog_windows += usize::from(w.watchdog_engaged);
            match w.degradation_cause {
                Some(DegradationCause::SensorFault) => self.cause_windows[0] += 1,
                Some(DegradationCause::SolverDivergence) => self.cause_windows[1] += 1,
                Some(DegradationCause::PriorReset) => self.cause_windows[2] += 1,
                None => {}
            }
            self.metrics
                .record(&w.estimate, &w.ground_truth, w.relative_error);
            self.estimates.push(w.estimate);
            self.iterations.push(w.iterations);
        }
        (self.cursor >= frames.len(), produced)
    }
}

/// A frame stream as a pure function of its recipe: the sequence spec, the
/// fault plan applied to it and the chaos plan whose poisoned observations
/// are written into it. Built on the first call to [`FrameStream::frames`]
/// and immutable afterwards, so every session with an equal recipe reads
/// one copy through an `Arc` ([`share_streams`]): who builds it, and when,
/// cannot change a frame.
#[derive(Debug)]
pub(crate) struct FrameStream {
    sequence: SequenceSpec,
    fault_plan: Option<FaultPlan>,
    chaos: Option<ChaosPlan>,
    frames: OnceLock<Vec<Frame>>,
}

impl FrameStream {
    /// The unbuilt stream of `spec`'s recipe.
    pub(crate) fn new(spec: &SessionSpec) -> Self {
        Self {
            sequence: spec.sequence.clone(),
            fault_plan: spec.fault_plan.clone(),
            chaos: spec.chaos.clone(),
            frames: OnceLock::new(),
        }
    }

    /// Whether `spec` has this stream's recipe. A NaN duration compares
    /// unequal to itself, so such a spec never shares a stream.
    fn is_recipe_of(&self, spec: &SessionSpec) -> bool {
        self.sequence == spec.sequence
            && self.fault_plan == spec.fault_plan
            && self.chaos == spec.chaos
    }

    /// The whole stream, built on the first call: the sequence replayed
    /// into frames, the fault plan applied, the chaos poisoning written in.
    /// A concurrent first call waits for that one build.
    pub(crate) fn frames(&self) -> &[Frame] {
        self.frames.get_or_init(|| {
            let mut frames = self.sequence.build().frames;
            if let Some(plan) = &self.fault_plan {
                frames = archytas_faults::apply(plan, &frames);
            }
            if let Some(plan) = &self.chaos {
                plan.poison_frames(&mut frames);
            }
            frames
        })
    }

    #[cfg(test)]
    pub(crate) fn is_built(&self) -> bool {
        self.frames.get().is_some()
    }
}

/// One stream per spec: each spec gets the stream of the first earlier spec
/// with an equal recipe, or a new one. Specs are bucketed on `(sequence
/// name, seed)` and compared in full inside the bucket. Builds nothing.
pub(crate) fn share_streams(specs: &[SessionSpec]) -> Vec<Arc<FrameStream>> {
    let mut buckets: HashMap<(&str, u64), Vec<Arc<FrameStream>>> = HashMap::new();
    specs
        .iter()
        .map(|spec| {
            let bucket = buckets
                .entry((spec.sequence.name.as_str(), spec.sequence.seed))
                .or_default();
            match bucket.iter().find(|stream| stream.is_recipe_of(spec)) {
                Some(stream) => Arc::clone(stream),
                None => {
                    let stream = Arc::new(FrameStream::new(spec));
                    bucket.push(Arc::clone(&stream));
                    stream
                }
            }
        })
        .collect()
}

/// Live state of one admitted session.
///
/// Admission is cheap by design: an admitted-but-idle session holds only the
/// estimator [`Core`] (pipeline shell, runtime handles onto the shared
/// services, telemetry) plus an `Arc` to its unbuilt [`FrameStream`]. The
/// stream — the dominant allocation — is built at the first activation of
/// any session that holds it and freed with the last of them, and solver
/// scratch is never owned at all: every step borrows a [`SolverWorkspace`]
/// from the caller (the scheduler's worker that runs the step: one
/// workspace per worker, not per session).
pub(crate) struct SessionState {
    name: String,
    priority: Priority,
    /// Mid-run priority flips from the spec, keyed on frames processed.
    priority_flips: Vec<(usize, Priority)>,
    /// The (possibly fault-injected and chaos-poisoned) frame stream, shared
    /// with every session of the batch that has the same recipe. Its chaos
    /// plan is this session's. Immutable once built — restarts replay it
    /// from the checkpoint cursor.
    stream: Arc<FrameStream>,
    leave_after_frames: Option<usize>,
    /// Frames this session serves: the stream's length, capped by
    /// `leave_after_frames`. `None` until this session's own first
    /// activation, which also seeds the restart checkpoint — another
    /// session may have built the shared stream long before.
    served_len: Option<usize>,
    deadline: DeadlinePolicy,
    restart: RestartPolicy,
    /// One-shot latch per chaos event. Lives outside the checkpoint: chaos
    /// models *transient* defects, so a restarted session replays the
    /// trigger frame cleanly instead of dying in a loop.
    chaos_fired: Vec<bool>,
    /// Stall rounds still to burn before the wedged step completes.
    pending_stall: usize,
    core: Core,
    checkpoint: Option<Box<Core>>,
    phase: SessionPhase,
    failure: Option<FailureRecord>,
    restarts: usize,
    /// Lifetime deadline misses (outside the checkpoint: restarts must not
    /// erase the record of why they happened).
    deadline_misses_total: usize,
    frame_wall_ns: Vec<u64>,
}

impl SessionState {
    /// Admits the session: wires a fresh pipeline to a runtime over the
    /// shared gating table and takes `stream`, which must have been made
    /// from `spec`'s recipe (its chaos plan is the one this session fires).
    /// Deliberately does *not* build the frame stream or seed the
    /// restart checkpoint — both happen at first activation
    /// ([`SessionState::ensure_started`]), so admitting a session costs a
    /// [`Core`], not a sequence replay.
    pub(crate) fn new(
        spec: &SessionSpec,
        stream: Arc<FrameStream>,
        services: &FleetServices,
    ) -> Self {
        let executor = Executor::Accelerator {
            model: Arc::clone(&services.model),
            runtime: Some(services.runtime()),
        };
        let core = Core {
            cursor: 0,
            vehicle: Vehicle::new(VioPipeline::new(fleet_pipeline_config()), executor),
            metrics: TrajectoryMetrics::new(),
            estimates: Vec::new(),
            iterations: Vec::new(),
            modelled_latency_ms: 0.0,
            modelled_energy_mj: 0.0,
            degraded_windows: 0,
            watchdog_windows: 0,
            cause_windows: [0; 3],
            telemetry: SessionTelemetry::new(),
            watchdog: DeadlineWatchdog::default(),
            stalls_since_window: 0,
        };
        Self {
            name: spec.name.clone(),
            priority: spec.priority,
            priority_flips: spec.priority_flips.clone(),
            stream,
            leave_after_frames: spec.leave_after_frames,
            served_len: None,
            deadline: services.deadline,
            restart: services.restart,
            chaos_fired: vec![false; spec.chaos.as_ref().map_or(0, |p| p.events.len())],
            pending_stall: 0,
            core,
            checkpoint: None,
            phase: SessionPhase::Nominal,
            failure: None,
            restarts: 0,
            deadline_misses_total: 0,
            frame_wall_ns: Vec::new(),
        }
    }

    /// Admits the session with a stream of its own, shared with no one.
    pub(crate) fn with_private_stream(spec: &SessionSpec, services: &FleetServices) -> Self {
        Self::new(spec, Arc::new(FrameStream::new(spec)), services)
    }

    /// Current scheduling priority: the spec priority, overridden by the
    /// latest priority flip whose frame index has been processed. Like the
    /// base priority this only moves sessions between queues — it never
    /// changes what any session computes.
    pub(crate) fn priority(&self) -> Priority {
        self.priority_flips
            .iter()
            .rfind(|&&(frame, _)| frame <= self.core.cursor)
            .map_or(self.priority, |&(_, p)| p)
    }

    /// First-activation work, deferred out of admission: builds the shared
    /// stream unless a session with the same recipe already did, fixes the
    /// served length (the early leave is a prefix of the stream, not a
    /// copy), and seeds the restart checkpoint with the pristine core (so a
    /// failure before the first periodic checkpoint can still restart from
    /// frame 0). Idempotent; returns the served length. The stream is a
    /// pure function of its recipe, so *when* it is built, and by whom, can
    /// never change the session's bits.
    pub(crate) fn ensure_started(&mut self) -> usize {
        if let Some(len) = self.served_len {
            return len;
        }
        let built = self.stream.frames().len();
        let len = self.leave_after_frames.map_or(built, |n| n.min(built));
        self.served_len = Some(len);
        if self.restart.max_restarts > 0 {
            self.checkpoint = Some(Box::new(self.core.clone()));
        }
        len
    }

    /// One guarded step: burns a pending stall round, fires due chaos,
    /// executes the frame behind `catch_unwind`, and folds the result into
    /// the deadline watchdog and checkpoint schedule. Solver scratch is
    /// borrowed from the caller for just this step — sessions own none.
    pub(crate) fn step_guarded(&mut self, workspace: &mut SolverWorkspace) -> StepOutcome {
        let len = self.ensure_started();
        if self.phase == SessionPhase::Quarantined {
            // Defensive: a quarantined session must never be stepped.
            return StepOutcome::Failed;
        }
        if self.pending_stall > 0 {
            self.pending_stall -= 1;
            self.core.stalls_since_window += 1;
            return StepOutcome::Stalled;
        }
        let frame_idx = self.core.cursor;
        let mut inject_panic = false;
        if let Some(plan) = &self.stream.chaos {
            if let Some((ev, rounds)) = plan.stall_event_at(frame_idx) {
                if !self.chaos_fired[ev] {
                    self.chaos_fired[ev] = true;
                    if rounds > 0 {
                        self.pending_stall = rounds - 1;
                        self.core.stalls_since_window += 1;
                        return StepOutcome::Stalled;
                    }
                }
            }
            // Jitter burns host cycles only; it must not touch any
            // deterministic state.
            for _ in 0..plan.jitter_spins(frame_idx) {
                std::hint::spin_loop();
            }
            if let Some(ev) = plan.panic_event_at(frame_idx) {
                if !self.chaos_fired[ev] {
                    // Latched *before* the panic fires: the defect is
                    // transient, so a restart replays this frame cleanly.
                    self.chaos_fired[ev] = true;
                    inject_panic = true;
                }
            }
        }
        let t0 = Instant::now();
        let core = &mut self.core;
        let frames = &self.stream.frames()[..len];
        // AssertUnwindSafe: a panic can leave `core` torn mid-assembly, but
        // a torn core is never observed afterwards — the failure path
        // either overwrites it with a checkpoint clone or quarantines the
        // session so it is never stepped again. The panic is caught here,
        // inside the slot lock's critical section, so no Mutex is poisoned
        // and no other session can ever see the wreckage.
        let step = catch_unwind(AssertUnwindSafe(|| {
            core.step_frame(frames, workspace, inject_panic)
        }));
        let wall_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        match step {
            Err(payload) => {
                self.fail(
                    FailureCause::Panic,
                    panic_payload_string(payload),
                    frame_idx,
                );
                StepOutcome::Failed
            }
            Ok((done, window_closed)) => {
                self.frame_wall_ns.push(wall_ns);
                if window_closed {
                    let rounds = 1 + self.core.stalls_since_window;
                    self.core.stalls_since_window = 0;
                    let missed = rounds as f64 > self.deadline.multiplier;
                    if missed {
                        self.deadline_misses_total += 1;
                    }
                    match self.core.watchdog.observe(missed, &self.deadline) {
                        DeadlineVerdict::Quarantine => {
                            let detail = format!(
                                "window exceeded {}x the Eq. 13 deadline \
                                 ({} consecutive misses)",
                                self.deadline.multiplier,
                                self.core.watchdog.consecutive_misses(),
                            );
                            self.fail(FailureCause::DeadlineMiss, detail, frame_idx);
                            return StepOutcome::Failed;
                        }
                        DeadlineVerdict::Slow => self.phase = SessionPhase::SlowSuspect,
                        DeadlineVerdict::Ok => self.phase = SessionPhase::Nominal,
                    }
                    if self.restart.max_restarts > 0
                        && self.phase == SessionPhase::Nominal
                        && self
                            .core
                            .estimates
                            .len()
                            .is_multiple_of(CHECKPOINT_INTERVAL)
                    {
                        self.checkpoint = Some(Box::new(self.core.clone()));
                    }
                } else if self.phase == SessionPhase::Restarting {
                    self.phase = SessionPhase::Nominal;
                }
                if done {
                    StepOutcome::Done
                } else {
                    StepOutcome::Progress
                }
            }
        }
    }

    fn fail(&mut self, cause: FailureCause, detail: String, frame: usize) {
        self.phase = SessionPhase::Quarantined;
        self.failure = Some(FailureRecord {
            cause,
            detail,
            frame,
            window: self.core.estimates.len(),
            restarts_before: self.restarts,
        });
    }

    /// Attempts to schedule a restart of a failed session: restores the
    /// last checkpoint over the (possibly torn) core and returns the
    /// backoff in scheduler rounds the session must sit out before
    /// re-entering admission. `None` when the restart budget is exhausted —
    /// the quarantine is terminal.
    pub(crate) fn try_schedule_restart(&mut self) -> Option<usize> {
        if self.restarts >= self.restart.max_restarts {
            return None;
        }
        let checkpoint = self.checkpoint.as_deref()?;
        self.core = checkpoint.clone();
        self.pending_stall = 0;
        self.phase = SessionPhase::Restarting;
        let n = self.restarts;
        self.restarts += 1;
        Some(backoff_rounds(fnv1a(self.name.as_bytes()), n))
    }

    /// Consumes the session into its final report.
    pub(crate) fn finish(self) -> SessionReport {
        self.into_report(SessionOutcome::Completed)
    }

    /// Consumes a terminally quarantined session into its final report,
    /// keeping the windows it completed before failing.
    pub(crate) fn finish_quarantined(self) -> SessionReport {
        self.into_report(SessionOutcome::Quarantined)
    }

    fn into_report(self, outcome: SessionOutcome) -> SessionReport {
        SessionReport {
            name: self.name,
            priority: self.priority,
            outcome,
            frames: self.core.cursor,
            windows: self.core.estimates.len(),
            estimates: self.core.estimates,
            iterations: self.core.iterations,
            modelled_latency_ms: self.core.modelled_latency_ms,
            modelled_energy_mj: self.core.modelled_energy_mj,
            rmse_m: self.core.metrics.rmse(),
            degraded_windows: self.core.degraded_windows,
            watchdog_windows: self.core.watchdog_windows,
            sensor_fault_windows: self.core.cause_windows[0],
            solver_divergence_windows: self.core.cause_windows[1],
            prior_reset_windows: self.core.cause_windows[2],
            phase: self.phase,
            restarts: self.restarts,
            deadline_misses: self.deadline_misses_total,
            failure: self.failure,
            frame_wall_ns: self.frame_wall_ns,
            telemetry: self.core.telemetry,
        }
    }
}

/// A fleet session held at the admitted-but-idle stage — the probe API the
/// `session_admit_cost` microbench (and anything else that wants to meter
/// the serving layer) uses to measure what admission actually costs.
///
/// [`AdmittedSession::admit`] performs exactly the work `run_fleet` does per
/// admitted session before its first quantum: build the estimator `Core`
/// against the shared services. The session's frame stream is its own
/// (`run_fleet` shares one per distinct recipe); it and the restart
/// checkpoint are materialized by [`AdmittedSession::activate`]; solver
/// scratch is borrowed per step, never owned.
pub struct AdmittedSession {
    state: SessionState,
}

impl AdmittedSession {
    /// Admits the session against the shared services (idle: its frame
    /// stream is not built yet).
    pub fn admit(spec: &SessionSpec, services: &FleetServices) -> Self {
        Self {
            state: SessionState::with_private_stream(spec, services),
        }
    }

    /// First-activation work: builds the frame stream and seeds the restart
    /// checkpoint.
    pub fn activate(&mut self) {
        self.state.ensure_started();
    }

    /// Steps one frame with caller-provided solver scratch. Returns `false`
    /// once the session is done (or quarantined).
    pub fn step(&mut self, workspace: &mut SolverWorkspace) -> bool {
        matches!(
            self.state.step_guarded(workspace),
            StepOutcome::Progress | StepOutcome::Stalled
        )
    }

    /// Windows optimized so far.
    pub fn windows(&self) -> usize {
        self.state.core.estimates.len()
    }

    /// Consumes the session into its report.
    pub fn into_report(self) -> SessionReport {
        self.state.finish()
    }
}

/// Renders a caught panic payload as a string for the [`FailureRecord`].
fn panic_payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdmissionDecision;
    use archytas_dataset::{euroc_sequences, kitti_sequences};
    use archytas_faults::{ChaosKind, FaultKind};
    use std::collections::HashSet;

    #[test]
    fn digest_is_sensitive_to_every_deterministic_field() {
        let spec = SessionSpec::new("t", kitti_sequences()[0].truncated(2.0), Priority::Normal);
        let base = SessionReport::shed(&spec);
        let mut other = base.clone();
        assert_eq!(base.digest(), other.digest());
        other.rmse_m = 1.0e-300; // one bit of payload
        assert_ne!(base.digest(), other.digest());
        let mut third = base.clone();
        third.iterations.push(7);
        assert_ne!(base.digest(), third.digest());
        // Wall-clock timing must NOT feed the digest.
        let mut timed = base.clone();
        timed.frame_wall_ns.push(123);
        assert_eq!(base.digest(), timed.digest());
        // Restart/deadline counters are metadata, not payload: a restarted
        // session that replayed to the same estimates digests identically.
        let mut restarted = base.clone();
        restarted.restarts = 1;
        restarted.deadline_misses = 3;
        assert_eq!(base.digest(), restarted.digest());
        // Telemetry is deterministic but NOT digest payload: the digest
        // body is frozen, so adding observability cannot invalidate any
        // archived digest.
        let mut observed = base.clone();
        observed.telemetry.record_window(1.5, 6.0, 3);
        assert_eq!(base.digest(), observed.digest());
    }

    #[test]
    fn session_alone_produces_windows() {
        let spec = SessionSpec::new("alone", kitti_sequences()[3].truncated(2.5), Priority::High);
        let services = FleetServices::new(&FleetConfig::default());
        let mut st = SessionState::with_private_stream(&spec, &services);
        let mut ws = SolverWorkspace::new();
        loop {
            match st.step_guarded(&mut ws) {
                StepOutcome::Done => break,
                StepOutcome::Progress => {}
                other => panic!("clean session produced {other:?}"),
            }
        }
        let report = st.finish();
        assert!(report.windows > 0);
        assert_eq!(report.frames, report.frame_wall_ns.len());
        assert_eq!(report.windows, report.estimates.len());
        assert!(report.rmse_m.is_finite());
        assert!(report.modelled_latency_ms > 0.0);
        assert_eq!(report.phase, SessionPhase::Nominal);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.deadline_misses, 0);
        assert!(report.failure.is_none());
    }

    #[test]
    fn injected_panic_quarantines_with_failure_record() {
        let spec = SessionSpec::new(
            "doomed",
            kitti_sequences()[3].truncated(2.5),
            Priority::High,
        )
        .with_chaos(ChaosPlan::new(1).with(ChaosKind::SessionPanic { frame: 12 }));
        let services = FleetServices::new(&FleetConfig {
            restart: RestartPolicy { max_restarts: 0 },
            ..FleetConfig::default()
        });
        let mut st = SessionState::with_private_stream(&spec, &services);
        let mut ws = SolverWorkspace::new();
        silence_chaos_panics();
        let outcome = loop {
            match st.step_guarded(&mut ws) {
                StepOutcome::Progress => {}
                other => break other,
            }
        };
        assert_eq!(outcome, StepOutcome::Failed);
        assert_eq!(st.try_schedule_restart(), None, "no restart budget");
        let report = st.finish_quarantined();
        assert_eq!(report.outcome, SessionOutcome::Quarantined);
        assert_eq!(report.phase, SessionPhase::Quarantined);
        let failure = report.failure.expect("failure record");
        assert_eq!(failure.cause, FailureCause::Panic);
        assert_eq!(failure.frame, 12);
        assert!(failure.detail.contains("chaos: injected session panic"));
        assert_eq!(failure.restarts_before, 0);
    }

    #[test]
    fn restart_replays_to_clean_bits() {
        let seq = kitti_sequences()[3].truncated(2.5);
        let clean_spec = SessionSpec::new("s", seq.clone(), Priority::Normal);
        let services = FleetServices::new(&FleetConfig::default());
        let mut clean = SessionState::with_private_stream(&clean_spec, &services);
        let mut ws = SolverWorkspace::new();
        loop {
            if let StepOutcome::Done = clean.step_guarded(&mut ws) {
                break;
            }
        }
        let clean_report = clean.finish();

        let chaotic_spec = SessionSpec::new("s", seq, Priority::Normal)
            .with_chaos(ChaosPlan::new(1).with(ChaosKind::SessionPanic { frame: 15 }));
        let mut chaotic = SessionState::with_private_stream(&chaotic_spec, &services);
        silence_chaos_panics();
        let report = loop {
            match chaotic.step_guarded(&mut ws) {
                StepOutcome::Done => break chaotic.finish(),
                StepOutcome::Failed if chaotic.try_schedule_restart().is_none() => {
                    break chaotic.finish_quarantined();
                }
                _ => {}
            }
        };
        assert_eq!(report.outcome, SessionOutcome::Completed);
        assert_eq!(report.restarts, 1);
        // The restart replayed from the checkpoint; the one-shot chaos
        // event does not re-fire, so the final bits equal a clean run's.
        assert_eq!(report.digest(), clean_report.digest());
        clean_report.assert_bitwise_eq(&report);
    }

    /// Whether streams `i` and `j` are one `Arc`.
    fn shared(streams: &[Arc<FrameStream>], i: usize, j: usize) -> bool {
        Arc::ptr_eq(&streams[i], &streams[j])
    }

    #[test]
    fn churn_shaped_batch_builds_one_stream_per_route() {
        // 1,536 vehicles over 48 one-second routes, interleaved. Route
        // names repeat (48 routes over 16 base sequences) but seeds do not,
        // so the `(name, seed)` buckets hold one recipe each.
        let (kitti, euroc) = (kitti_sequences(), euroc_sequences());
        let routes: Vec<SequenceSpec> = (0..48)
            .map(|r| {
                let base = if r % 3 == 2 {
                    &euroc[r % euroc.len()]
                } else {
                    &kitti[r % kitti.len()]
                };
                SequenceSpec {
                    seed: 7_000 + r as u64,
                    ..base.truncated(1.0)
                }
            })
            .collect();
        let specs: Vec<SessionSpec> = (0..1536)
            .map(|v| {
                let route = (v * 29) % routes.len();
                SessionSpec::new(format!("v-{v:04}"), routes[route].clone(), Priority::Low)
                    .leaving_after(6)
            })
            .collect();
        let streams = share_streams(&specs);
        assert_eq!(streams.len(), specs.len());
        let distinct: HashSet<*const FrameStream> = streams.iter().map(Arc::as_ptr).collect();
        assert_eq!(distinct.len(), routes.len());
        for (i, spec) in specs.iter().enumerate() {
            let first = specs
                .iter()
                .position(|s| s.sequence == spec.sequence)
                .unwrap();
            assert!(shared(&streams, i, first), "{}", spec.name);
        }
        assert!(streams.iter().all(|s| !s.is_built()));
    }

    #[test]
    fn only_the_recipe_decides_sharing() {
        let seq = kitti_sequences()[2].truncated(2.0);
        let base = SessionSpec::new("base", seq.clone(), Priority::Normal);
        let recipe_twins = [
            SessionSpec {
                name: "renamed".into(),
                ..base.clone()
            },
            SessionSpec {
                priority: Priority::High,
                ..base.clone()
            },
            base.clone().arriving_at(9),
            base.clone().with_priority_flip(4, Priority::Low),
            base.clone().leaving_after(6),
            base.clone().leaving_after(0),
        ];
        let fault = FaultPlan::new(3).with(FaultKind::VisionDropout, 4, 8);
        let chaos = ChaosPlan::new(3).with(ChaosKind::PoisonedObservation { start: 4, end: 6 });
        let recipe_strangers = [
            base.clone().with_faults(fault.clone()),
            base.clone().with_faults(FaultPlan { seed: 4, ..fault }),
            base.clone().with_chaos(chaos.clone()),
            base.clone().with_chaos(ChaosPlan { seed: 4, ..chaos }),
            base.clone()
                .with_chaos(ChaosPlan::new(3).with(ChaosKind::SessionPanic { frame: 5 })),
            SessionSpec::new(
                "reseeded",
                SequenceSpec {
                    seed: 1,
                    ..seq.clone()
                },
                Priority::Normal,
            ),
            SessionSpec::new("shorter", seq.truncated(1.5), Priority::Normal),
            SessionSpec::new(
                "nan",
                SequenceSpec {
                    duration: f64::NAN,
                    ..seq.clone()
                },
                Priority::Normal,
            ),
            SessionSpec::new(
                "nan-twin",
                SequenceSpec {
                    duration: f64::NAN,
                    ..seq
                },
                Priority::Normal,
            ),
        ];
        let mut specs = vec![base];
        specs.extend(recipe_twins.iter().cloned());
        specs.extend(recipe_strangers.iter().cloned());
        let streams = share_streams(&specs);
        for i in 1..=recipe_twins.len() {
            assert!(shared(&streams, 0, i), "twin {i} got its own stream");
        }
        let strangers = recipe_twins.len() + 1..specs.len();
        for i in strangers.clone() {
            for j in (0..specs.len()).filter(|&j| j != i) {
                assert!(!shared(&streams, i, j), "stranger {i} shares with {j}");
            }
        }
    }

    #[test]
    fn admission_builds_no_stream() {
        let kitti = kitti_sequences();
        let specs: Vec<SessionSpec> = (0..12)
            .map(|i| SessionSpec::new(format!("s-{i}"), kitti[i % 3].truncated(1.0), Priority::Low))
            .collect();
        let services = FleetServices::new(&FleetConfig::default());
        let decisions = vec![AdmissionDecision::Admit; specs.len()];
        let states = crate::admitted_states(&specs, &decisions, &services);
        assert!(states.iter().flatten().all(|st| !st.stream.is_built()));

        let mut admitted = AdmittedSession::admit(&specs[0], &services);
        assert!(!admitted.state.stream.is_built());
        admitted.activate();
        assert!(admitted.state.stream.is_built());
    }

    #[test]
    fn activation_after_a_sibling_built_the_stream_still_seeds_the_checkpoint() {
        let spec = SessionSpec::new("a", kitti_sequences()[1].truncated(2.0), Priority::Normal);
        let services = FleetServices::new(&FleetConfig::default());
        let stream = Arc::new(FrameStream::new(&spec));
        let mut first = SessionState::new(&spec, Arc::clone(&stream), &services);
        let mut second = SessionState::new(&spec.clone().leaving_after(6), stream, &services);
        let full = first.ensure_started();
        assert!(first.checkpoint.is_some());
        assert!(second.stream.is_built() && second.checkpoint.is_none());
        assert_eq!(second.ensure_started(), 6);
        assert!(second.checkpoint.is_some());
        assert_eq!(full, second.stream.frames().len());
    }
}
