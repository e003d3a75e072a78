//! The standard fault matrix: scenarios × the full pipeline + runtime stack.

use crate::inject::apply;
use crate::plan::{FaultKind, FaultPlan};
use archytas_core::{Executor, IterPolicy, RunSummary, RuntimeSystem, Vehicle};
use archytas_dataset::{
    kitti_sequences, tunnel_sequences, Frame, HealthState, PipelineConfig, SequenceData,
    SequenceSpec, VioPipeline,
};
use archytas_hw::{AcceleratorModel, FpgaPlatform, HIGH_PERF};
use archytas_mdfg::ProblemShape;
use archytas_slam::{FactorWeights, Pose, Precision};
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
    /// [`run_matrix`]. Long-horizon scenarios pin their own duration —
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

    /// The truncated sequence the scenario runs on: its pinned sequence and
    /// duration, else `seconds` of the standard matrix sequence (kitti-01).
    pub fn spec(&self, seconds: f64) -> SequenceSpec {
        let spec = match &self.sequence {
            Some(spec) => spec.clone(),
            None => kitti_sequences()[1].clone(),
        };
        spec.truncated(self.seconds.unwrap_or(seconds))
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
/// would just measure the outlier magnitude), solving each window in the
/// accelerator's f32 datapath, as faulted fleet sessions are served
/// (`archytas_fleet::fleet_pipeline_config`), so the RMSE gate judges the
/// datapath they run.
fn matrix_config() -> PipelineConfig {
    PipelineConfig {
        weights: FactorWeights::default().with_huber(0.004),
        precision: Precision::F32,
        ..PipelineConfig::default()
    }
}

/// The HIGH_PERF design on a ZC706 with the run-time system armed (the
/// design the runtime's gating table is built for). Built once per
/// [`run_matrix`] call; each run clones it, and an unstepped clone shares
/// the gating table and starts from the same counter and watchdog state.
fn matrix_executor() -> Executor {
    let platform = FpgaPlatform::zc706();
    let runtime = RuntimeSystem::new(
        HIGH_PERF,
        &ProblemShape::typical(),
        2.5,
        &platform,
        IterPolicy::default_table(),
    );
    Executor::Accelerator {
        model: Arc::new(AcceleratorModel::new(HIGH_PERF, platform)),
        runtime: Some(runtime),
    }
}

/// Runs each scenario over `seconds` of its sequence (the standard matrix
/// sequence unless the scenario pins its own sequence/duration), comparing
/// against the fault-free run of the same sequence and configuration. Each
/// distinct (sequence, duration) is built and run fault-free once per call.
/// A panic anywhere in a faulted run is caught and reported as
/// `completed: false` rather than propagated.
pub fn run_matrix(scenarios: &[Scenario], seconds: f64) -> Vec<ScenarioResult> {
    let executor = matrix_executor();
    let run = |frames: &[Frame]| {
        Vehicle::new(VioPipeline::new(matrix_config()), executor.clone()).run(frames)
    };
    // (fault-free data, nominal RMSE) per distinct truncated spec.
    let mut nominals: Vec<(SequenceData, f64)> = Vec::new();
    scenarios
        .iter()
        .map(|scenario| {
            let spec = scenario.spec(seconds);
            let i = match nominals.iter().position(|(data, _)| data.spec == spec) {
                Some(i) => i,
                None => {
                    let data = spec.build();
                    let rmse_m = rmse_m(&run(&data.frames));
                    nominals.push((data, rmse_m));
                    nominals.len() - 1
                }
            };
            let (data, nominal_rmse_m) = &nominals[i];
            let frames = apply(&scenario.plan, &data.frames);
            // A panicked run reports as an empty one that did not complete.
            let (completed, summary) = match catch_unwind(AssertUnwindSafe(|| run(&frames))) {
                Ok(summary) => (true, summary),
                Err(_) => (false, RunSummary::default()),
            };
            let windows = &summary.windows;
            let recovery_latency_windows = windows
                .iter()
                .rposition(|w| w.health == HealthState::Degraded)
                .and_then(|i| {
                    windows[i + 1..]
                        .iter()
                        .position(|w| w.health == HealthState::Nominal)
                        .map(|k| k + 1)
                });
            ScenarioResult {
                name: scenario.name.clone(),
                rmse_m: rmse_m(&summary),
                nominal_rmse_m: *nominal_rmse_m,
                windows: windows.len(),
                degraded_windows: summary.degraded_windows(),
                watchdog_windows: summary.watchdog_windows(),
                recovery_latency_windows,
                completed,
                estimates: windows.iter().map(|w| w.estimate).collect(),
            }
        })
        .collect()
}

/// A run's trajectory RMSE, infinite when no window closed.
fn rmse_m(summary: &RunSummary) -> f64 {
    if summary.windows.is_empty() {
        f64::INFINITY
    } else {
        summary.rmse_m
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
    fn dropout_scenario_degrades_and_recovers() {
        let sc = &scenarios(7)[1]; // vision-dropout
        let shorter = sc.clone().on_sequence(kitti_sequences()[1].clone(), 3.0);
        let results = run_matrix(&[sc.clone(), shorter], 4.0);
        let r = &results[0];
        assert!(r.completed);
        // The fault-free reference run is clean (a finite RMSE means at
        // least one window closed), and a different duration of the same
        // sequence gets its own.
        assert!(r.nominal_rmse_m < 1.0, "nominal rmse {}", r.nominal_rmse_m);
        assert_ne!(
            r.nominal_rmse_m.to_bits(),
            results[1].nominal_rmse_m.to_bits()
        );
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
