//! The standard fault matrix: scenarios × the full pipeline + runtime stack.

use crate::inject::apply;
use crate::plan::{FaultKind, FaultPlan};
use archytas_core::{Executor, IterPolicy, RuntimeSystem, Vehicle, WindowRecord};
use archytas_dataset::{
    kitti_sequences, tunnel_sequences, Frame, HealthState, PipelineConfig, SequenceSpec,
    VioPipeline,
};
use archytas_hw::{AcceleratorModel, FpgaPlatform, HIGH_PERF};
use archytas_mdfg::ProblemShape;
use archytas_slam::{rmse_translation, FactorWeights, Pose, SolverWorkspace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A named fault plan.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name (stable across seeds; used as the JSON key).
    pub name: String,
    /// The injection schedule.
    pub plan: FaultPlan,
    /// Sequence the scenario runs on; `None` means the standard matrix
    /// sequence (`kitti-01`).
    pub sequence: Option<SequenceSpec>,
    /// Duration override in seconds; `None` defers to the caller of
    /// [`run_scenario`]. Long-horizon scenarios pin their own duration —
    /// a tunnel drought does not fit in a 4-second episode.
    pub seconds: Option<f64>,
}

impl Scenario {
    /// A scenario on the standard matrix sequence.
    pub fn new(name: impl Into<String>, plan: FaultPlan) -> Self {
        Self {
            name: name.into(),
            plan,
            sequence: None,
            seconds: None,
        }
    }

    /// Pins the scenario to a specific sequence and duration (builder
    /// style) — the long-horizon hook.
    pub fn on_sequence(mut self, spec: SequenceSpec, seconds: f64) -> Self {
        self.sequence = Some(spec);
        self.seconds = Some(seconds);
        self
    }
}

/// Outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Trajectory RMSE under injection (m); infinite when the run panicked
    /// or produced no windows.
    pub rmse_m: f64,
    /// RMSE of the fault-free run of the same sequence/config (m).
    pub nominal_rmse_m: f64,
    /// Windows completed.
    pub windows: usize,
    /// Windows that closed in the `Degraded` health state.
    pub degraded_windows: usize,
    /// Windows for which the runtime watchdog held the full configuration.
    pub watchdog_windows: usize,
    /// Windows from the last `Degraded` window until health returned to
    /// `Nominal` (`None` when never degraded or never recovered).
    pub recovery_latency_windows: Option<usize>,
    /// Whether the run completed without panicking.
    pub completed: bool,
    /// Newest-keyframe estimates, one per window (bit-comparable across
    /// runs for determinism checks).
    pub estimates: Vec<Pose>,
}

impl ScenarioResult {
    /// The fault matrix's accuracy acceptance bound: RMSE within `factor` ×
    /// the nominal run (degradation is allowed, divergence is not).
    pub fn within_rmse_bound(&self, factor: f64) -> bool {
        self.completed && self.rmse_m <= self.nominal_rmse_m * factor
    }
}

/// The standard fault matrix. Episodes sit in frames 24–32, inside any run
/// of ≥ 4 seconds (≥ 40 frames at 10 Hz) of the scenario sequence.
pub fn scenarios(seed: u64) -> Vec<Scenario> {
    let s = |name: &str, plan: FaultPlan| Scenario::new(name, plan);
    vec![
        s(
            "feature-drought",
            FaultPlan::new(seed).with(
                FaultKind::FeatureDrought {
                    keep_fraction: 0.25,
                },
                24,
                30,
            ),
        ),
        s(
            "vision-dropout",
            FaultPlan::new(seed).with(FaultKind::VisionDropout, 24, 28),
        ),
        s(
            "frame-drop",
            FaultPlan::new(seed).with(FaultKind::FrameDrop, 25, 27),
        ),
        s(
            "frame-duplicate",
            FaultPlan::new(seed).with(FaultKind::FrameDuplicate, 25, 28),
        ),
        s(
            "imu-bias-spike",
            FaultPlan::new(seed).with(
                FaultKind::ImuBiasSpike {
                    gyro: 0.05,
                    accel: 0.5,
                },
                24,
                28,
            ),
        ),
        s(
            // Clips the gravity reaction (9.81 m/s²) for two frames — a
            // curb-strike transient. Harder clips (e.g. 6 m/s²) held for
            // many frames are indistinguishable from real acceleration and
            // genuinely bias any inertial estimator.
            "imu-saturation",
            FaultPlan::new(seed).with(FaultKind::ImuSaturation { limit: 8.0 }, 24, 26),
        ),
        s(
            "imu-nan",
            FaultPlan::new(seed).with(FaultKind::ImuNan { probability: 0.3 }, 24, 28),
        ),
        s(
            "outliers",
            FaultPlan::new(seed).with(
                FaultKind::Outliers {
                    fraction: 0.15,
                    magnitude: 0.4,
                },
                24,
                30,
            ),
        ),
        s(
            "stacked",
            // Milder per-fault magnitudes than the single-fault scenarios:
            // the point is that overlapping episodes compose, and an
            // undetectable bias spike is strictly harder to absorb when a
            // simultaneous drought starves the vision correction.
            FaultPlan::new(seed)
                .with(FaultKind::FeatureDrought { keep_fraction: 0.5 }, 24, 29)
                .with(
                    FaultKind::ImuBiasSpike {
                        gyro: 0.005,
                        accel: 0.05,
                    },
                    25,
                    28,
                )
                .with(
                    FaultKind::Outliers {
                        fraction: 0.1,
                        magnitude: 0.3,
                    },
                    26,
                    30,
                ),
        ),
    ]
}

/// Long-horizon scenarios (ROADMAP item 3): minutes-scale regimes that do
/// not fit the standard 4-second episode window. Kept out of
/// [`scenarios`] so its indices and names stay stable for existing
/// consumers; the fault-matrix bin runs both lists.
pub fn long_horizon_scenarios(seed: u64) -> Vec<Scenario> {
    vec![
        // 150 s of tunnel-00: the vehicle enters the bore ~15 s in and
        // spends the remaining ~2 minutes in a feature drought generated by
        // the world itself (no injection needed for the drought). A mild
        // bias spike lands mid-bore, where no vision is left to absorb it.
        Scenario::new(
            "tunnel-drought",
            FaultPlan::new(seed).with(
                FaultKind::ImuBiasSpike {
                    gyro: 0.01,
                    accel: 0.1,
                },
                700,
                720,
            ),
        )
        .on_sequence(tunnel_sequences()[0].clone(), 150.0),
    ]
}

/// Pipeline configuration of every matrix run: the default pipeline with
/// Huber robust weighting armed (a fault harness without a robust kernel
/// would just measure the outlier magnitude).
fn matrix_config() -> PipelineConfig {
    PipelineConfig {
        weights: FactorWeights::default().with_huber(0.004),
        ..PipelineConfig::default()
    }
}

/// Runs the pipeline + runtime stack over a frame stream, one record per
/// window, on the HIGH_PERF design on a ZC706 (the design the runtime's
/// gating table is built for).
fn drive(frames: &[Frame]) -> Vec<WindowRecord> {
    let platform = FpgaPlatform::zc706();
    let runtime = RuntimeSystem::new(
        HIGH_PERF,
        &ProblemShape::typical(),
        2.5,
        &platform,
        IterPolicy::default_table(),
    );
    let executor = Executor::Accelerator {
        model: Arc::new(AcceleratorModel::new(HIGH_PERF, platform)),
        runtime: Some(runtime),
    };
    let mut vehicle = Vehicle::new(VioPipeline::new(matrix_config()), executor);
    let mut workspace = SolverWorkspace::new();
    let mut windows = Vec::new();
    for frame in frames {
        if vehicle.push_frame(frame) {
            windows.push(vehicle.close_window(&mut workspace));
        }
    }
    windows
}

/// Estimates of a run's windows, with their trajectory RMSE (infinite when
/// the run produced no window).
fn trajectory(windows: &[WindowRecord]) -> (Vec<Pose>, f64) {
    let (estimates, ground_truths): (Vec<Pose>, Vec<Pose>) =
        windows.iter().map(|w| (w.estimate, w.ground_truth)).unzip();
    let rmse_m = if windows.is_empty() {
        f64::INFINITY
    } else {
        rmse_translation(&estimates, &ground_truths)
    };
    (estimates, rmse_m)
}

/// A fault-free reference run.
#[derive(Debug, Clone)]
pub struct NominalRun {
    /// Newest-keyframe estimates, one per window.
    pub estimates: Vec<Pose>,
    /// Trajectory RMSE (m).
    pub rmse_m: f64,
}

/// Runs the standard matrix sequence for `seconds` with no faults injected.
pub fn run_nominal(seconds: f64) -> NominalRun {
    run_nominal_on(&kitti_sequences()[1], seconds)
}

/// Runs an arbitrary sequence for `seconds` with no faults injected — the
/// fault-free reference for long-horizon scenarios pinned to their own
/// sequence.
pub fn run_nominal_on(spec: &SequenceSpec, seconds: f64) -> NominalRun {
    let windows = drive(&spec.truncated(seconds).build().frames);
    let (estimates, rmse_m) = trajectory(&windows);
    NominalRun { estimates, rmse_m }
}

/// Runs one scenario over `seconds` of its sequence (the standard matrix
/// sequence unless the scenario pins its own sequence/duration), comparing
/// against the fault-free run of the same sequence and configuration. A
/// panic anywhere in the faulted run is caught and reported as
/// `completed: false` rather than propagated.
pub fn run_scenario(scenario: &Scenario, seconds: f64) -> ScenarioResult {
    let standard = kitti_sequences()[1].clone();
    let spec = scenario.sequence.as_ref().unwrap_or(&standard);
    let seconds = scenario.seconds.unwrap_or(seconds);
    let nominal = run_nominal_on(spec, seconds);
    let data = spec.truncated(seconds).build();
    let frames = apply(&scenario.plan, &data.frames);

    match catch_unwind(AssertUnwindSafe(|| drive(&frames))) {
        Ok(windows) => {
            let (estimates, rmse_m) = trajectory(&windows);
            let degraded = |w: &WindowRecord| w.health == HealthState::Degraded;
            let recovery_latency_windows = windows.iter().rposition(degraded).and_then(|i| {
                windows[i + 1..]
                    .iter()
                    .position(|w| w.health == HealthState::Nominal)
                    .map(|k| k + 1)
            });
            ScenarioResult {
                name: scenario.name.clone(),
                rmse_m,
                nominal_rmse_m: nominal.rmse_m,
                windows: windows.len(),
                degraded_windows: windows.iter().filter(|w| degraded(w)).count(),
                watchdog_windows: windows.iter().filter(|w| w.watchdog_engaged).count(),
                recovery_latency_windows,
                completed: true,
                estimates,
            }
        }
        Err(_) => ScenarioResult {
            name: scenario.name.clone(),
            rmse_m: f64::INFINITY,
            nominal_rmse_m: nominal.rmse_m,
            windows: 0,
            degraded_windows: 0,
            watchdog_windows: 0,
            recovery_latency_windows: None,
            completed: false,
            estimates: Vec::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_names_are_unique() {
        let m = scenarios(7);
        let mut names: Vec<_> = m.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), m.len());
    }

    #[test]
    fn nominal_run_is_clean() {
        let n = run_nominal(4.0);
        assert!(!n.estimates.is_empty());
        assert!(n.rmse_m.is_finite());
        assert!(n.rmse_m < 1.0, "nominal rmse {}", n.rmse_m);
    }

    #[test]
    fn dropout_scenario_degrades_and_recovers() {
        let sc = &scenarios(7)[1]; // vision-dropout
        let r = run_scenario(sc, 4.0);
        assert!(r.completed);
        assert!(r.degraded_windows > 0, "dropout never degraded health");
        assert!(
            r.recovery_latency_windows.is_some(),
            "never recovered to Nominal"
        );
        assert!(r.watchdog_windows > 0, "watchdog never engaged");
        assert!(
            r.within_rmse_bound(3.0),
            "rmse {} vs nominal {}",
            r.rmse_m,
            r.nominal_rmse_m
        );
    }
}
