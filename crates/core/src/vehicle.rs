//! The on-vehicle system (paper Fig. 1, right): sensors → front-end →
//! sliding-window estimator, executed either on a generated accelerator
//! (with or without the run-time optimizer) or on a CPU baseline.
//!
//! [`Vehicle`] is the per-window step of the paper's Sec. 6 run-time loop,
//! with the estimation arithmetic actually executed, and [`Vehicle::run`]
//! is the one loop that drives it over a frame stream. Its callers are
//! [`run_sequence`] (`sec6_ablation`, `sec7_6`, the `drone_euroc` and
//! `selfdriving_kitti` examples, the end-to-end tests) and the
//! `archytas-faults` scenario matrix; every served window of an
//! `archytas-fleet` session takes the per-window step directly.

use std::sync::Arc;

use crate::runtime::{RuntimeSystem, ITER_CAP};
use archytas_baselines::CpuPlatform;
use archytas_dataset::{
    DegradationCause, Frame, HealthState, PipelineConfig, SequenceData, VioPipeline,
};
use archytas_hw::AcceleratorModel;
use archytas_mdfg::ProblemShape;
use archytas_slam::{relative_error, Pose, Precision, SolverWorkspace, TrajectoryMetrics};

/// Who executes the per-window optimization.
///
/// Every [`Vehicle`] holds one. The accelerator model is `Arc`-shared, so a
/// fleet of sessions on one deployment holds one model and a session
/// checkpoint copies a pointer, not the model.
#[derive(Debug, Clone)]
pub enum Executor {
    /// A generated accelerator; `runtime: Some(..)` enables the dynamic
    /// optimizer (Sec. 6), `None` runs the static design at the full
    /// iteration cap.
    Accelerator {
        /// The deployed design.
        model: Arc<AcceleratorModel>,
        /// Optional run-time system.
        runtime: Option<RuntimeSystem>,
    },
    /// The software implementation on a CPU platform, at a fixed iteration
    /// budget.
    Cpu {
        /// The platform cost model.
        platform: CpuPlatform,
        /// Fixed NLS iteration budget.
        iterations: usize,
    },
}

/// One processed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRecord {
    /// Window index.
    pub window_id: usize,
    /// Feature points in the window.
    pub features: usize,
    /// The NLS iteration budget handed to the solver for this window (the
    /// runtime's choice, or the fixed budget), which pricing bills; the
    /// solver may stop earlier.
    pub iterations: usize,
    /// Modelled latency (ms).
    pub latency_ms: f64,
    /// Modelled energy (mJ).
    pub energy_mj: f64,
    /// Estimated pose of the newest keyframe.
    pub estimate: Pose,
    /// Ground-truth pose of the newest keyframe.
    pub ground_truth: Pose,
    /// Per-window relative error (Fig. 11's metric); 0 for the first window.
    pub relative_error: f64,
    /// Degradation-ladder state after this window closed.
    pub health: HealthState,
    /// Whether the runtime watchdog held the full configuration for this
    /// window (always `false` on the CPU path and static accelerator runs).
    pub watchdog_engaged: bool,
    /// Why the window closed degraded (`None` when clean). Distinguishes a
    /// sanitized sensor fault from solver trouble and from a prior reset —
    /// and all three from fleet-level quarantine, which is a per-session
    /// verdict recorded by `archytas-fleet`, never here.
    pub degradation_cause: Option<DegradationCause>,
}

/// One vehicle's estimator and the executor that runs it. The caller builds
/// the pipeline, so precision and robust weighting stay its choice; all
/// mutable state lives here, so a clone is a checkpoint.
#[derive(Debug, Clone)]
pub struct Vehicle {
    pipeline: VioPipeline,
    executor: Executor,
    /// (estimate, ground truth) of the previous window.
    prev: Option<(Pose, Pose)>,
}

impl Vehicle {
    /// A vehicle that has seen no frame yet.
    pub fn new(pipeline: VioPipeline, executor: Executor) -> Self {
        Self {
            pipeline,
            executor,
            prev: None,
        }
    }

    /// Ingests one frame through the front-end. Returns `true` when the
    /// window is full; the caller then closes it with
    /// [`Vehicle::close_window`].
    pub fn push_frame(&mut self, frame: &Frame) -> bool {
        self.pipeline.push_frame(frame)
    }

    /// Closes the full window: health verdict, iteration budget and power
    /// (runtime decision, static cap, or CPU budget), solve-and-slide in
    /// `workspace`, Eq. 13/17 pricing, and relative error against the
    /// previous window.
    ///
    /// # Panics
    ///
    /// Panics when the window is not full.
    pub fn close_window(&mut self, workspace: &mut SolverWorkspace) -> WindowRecord {
        let features = self.pipeline.window().num_landmarks();
        // The pre-solve health verdict feeds the runtime watchdog (the
        // degradation ladder's runtime half): on a clean stream the watchdog
        // never engages and the budget is the policy's, while a faulted
        // window already runs at full capacity.
        let healthy = !self.pipeline.health().is_suspect();
        let (iterations, power_w, watchdog_engaged) = match &mut self.executor {
            Executor::Accelerator { model, runtime } => match runtime {
                Some(rt) => {
                    let d = rt.step_with_health(features, healthy);
                    (d.iterations, d.gated_power_w, rt.watchdog().engaged())
                }
                None => (ITER_CAP, model.power_w(), false),
            },
            Executor::Cpu {
                platform,
                iterations,
            } => (*iterations, platform.power_w, false),
        };

        let result = self.pipeline.optimize_and_slide_in(workspace, iterations);

        let shape = ProblemShape::from_workload(&result.workload);
        let latency_ms = match &self.executor {
            Executor::Accelerator { model, .. } => model.window_latency_ms(&shape, iterations),
            Executor::Cpu { platform, .. } => platform.window_time_ms(&shape, iterations),
        };
        let relative_error = self.prev.map_or(0.0, |(pe, pg)| {
            relative_error(&pe, &result.estimate, &pg, &result.ground_truth)
        });
        self.prev = Some((result.estimate, result.ground_truth));

        WindowRecord {
            window_id: result.window_id,
            features,
            iterations,
            latency_ms,
            energy_mj: latency_ms * power_w,
            estimate: result.estimate,
            ground_truth: result.ground_truth,
            relative_error,
            health: result.health,
            watchdog_engaged,
            degradation_cause: result.cause,
        }
    }

    /// Drives every frame through the vehicle, closing each full window,
    /// and folds the windows into a [`RunSummary`] whose `sequence` is left
    /// empty for the caller to name.
    pub fn run(mut self, frames: &[Frame]) -> RunSummary {
        let mut workspace = SolverWorkspace::new();
        let mut windows = Vec::new();
        let mut metrics = TrajectoryMetrics::new();
        let mut total_time = 0.0;
        let mut total_energy = 0.0;
        for frame in frames {
            if !self.push_frame(frame) {
                continue;
            }
            let w = self.close_window(&mut workspace);
            total_time += w.latency_ms;
            total_energy += w.energy_mj;
            metrics.record(&w.estimate, &w.ground_truth, w.relative_error);
            windows.push(w);
        }
        RunSummary {
            sequence: String::new(),
            windows,
            total_time_ms: total_time,
            total_energy_mj: total_energy,
            rmse_m: metrics.rmse(),
            mean_relative_error: metrics.mean_relative_error(),
        }
    }
}

/// Aggregate result of one sequence run; the default is a run in which no
/// window closed.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Sequence name.
    pub sequence: String,
    /// Per-window records.
    pub windows: Vec<WindowRecord>,
    /// Total modelled compute time (ms).
    pub total_time_ms: f64,
    /// Total modelled energy (mJ).
    pub total_energy_mj: f64,
    /// Trajectory RMSE (m).
    pub rmse_m: f64,
    /// Mean per-window relative error.
    pub mean_relative_error: f64,
}

impl RunSummary {
    /// Mean per-window latency (ms).
    pub fn mean_latency_ms(&self) -> f64 {
        if self.windows.is_empty() {
            0.0
        } else {
            self.total_time_ms / self.windows.len() as f64
        }
    }

    /// Mean NLS iterations per window (0 when no window closed).
    pub fn mean_iterations(&self) -> f64 {
        if self.windows.is_empty() {
            0.0
        } else {
            let total: usize = self.windows.iter().map(|w| w.iterations).sum();
            total as f64 / self.windows.len() as f64
        }
    }

    /// Mean power over the run (W).
    pub fn mean_power_w(&self) -> f64 {
        if self.total_time_ms <= 0.0 {
            0.0
        } else {
            self.total_energy_mj / self.total_time_ms
        }
    }

    /// Windows that closed in the `Degraded` ladder state.
    pub fn degraded_windows(&self) -> usize {
        self.windows
            .iter()
            .filter(|w| w.health == HealthState::Degraded)
            .count()
    }

    /// Windows for which the runtime watchdog held the full configuration.
    pub fn watchdog_windows(&self) -> usize {
        self.windows.iter().filter(|w| w.watchdog_engaged).count()
    }
}

/// Runs one sequence end-to-end under the given executor: the
/// [`Vehicle`] step over every frame, folded into a [`RunSummary`]. The
/// accelerator solves each window in its f32 datapath, the CPU in f64.
pub fn run_sequence(data: &SequenceData, executor: Executor) -> RunSummary {
    let precision = match executor {
        Executor::Accelerator { .. } => Precision::F32,
        Executor::Cpu { .. } => Precision::F64,
    };
    let pipeline = VioPipeline::new(PipelineConfig {
        precision,
        ..PipelineConfig::default()
    });
    RunSummary {
        sequence: data.spec.name.clone(),
        ..Vehicle::new(pipeline, executor).run(&data.frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::IterPolicy;
    use archytas_dataset::kitti_sequences;
    use archytas_hw::{FpgaPlatform, HIGH_PERF};

    fn short_sequence() -> SequenceData {
        kitti_sequences()[3].truncated(3.0).build()
    }

    fn accel_executor(dynamic: bool) -> Executor {
        let model = Arc::new(AcceleratorModel::new(HIGH_PERF, FpgaPlatform::zc706()));
        let runtime = dynamic.then(|| {
            RuntimeSystem::new(
                HIGH_PERF,
                &ProblemShape::typical(),
                2.5,
                &FpgaPlatform::zc706(),
                IterPolicy::default_table(),
            )
        });
        Executor::Accelerator { model, runtime }
    }

    #[test]
    fn accelerator_run_produces_records() {
        let data = short_sequence();
        let summary = run_sequence(&data, accel_executor(false));
        assert_eq!(summary.windows.len(), data.frames.len() - 9);
        assert!(summary.total_time_ms > 0.0);
        assert!(summary.rmse_m < 1.0, "rmse {}", summary.rmse_m);
        assert!(summary.windows.iter().all(|w| w.iterations == ITER_CAP));
    }

    #[test]
    fn dynamic_runtime_cuts_energy_not_accuracy() {
        let data = short_sequence();
        let static_summary = run_sequence(&data, accel_executor(false));
        let dynamic_summary = run_sequence(&data, accel_executor(true));
        assert!(
            dynamic_summary.total_energy_mj < static_summary.total_energy_mj,
            "dynamic {} mJ vs static {} mJ",
            dynamic_summary.total_energy_mj,
            static_summary.total_energy_mj
        );
        // Accuracy within a hair (Sec. 7.6: ≤0.01 cm mean degradation band).
        assert!(dynamic_summary.rmse_m < static_summary.rmse_m + 0.02);
    }

    #[test]
    fn cpu_run_is_slower_but_same_accuracy_class() {
        let data = short_sequence();
        let accel = run_sequence(&data, accel_executor(false));
        let cpu = run_sequence(
            &data,
            Executor::Cpu {
                platform: CpuPlatform::intel_comet_lake(),
                iterations: ITER_CAP,
            },
        );
        assert!(cpu.total_time_ms > accel.total_time_ms * 2.0);
        assert!(cpu.total_energy_mj > accel.total_energy_mj * 10.0);
        // f32 accelerator datapath tracks the f64 software estimate.
        assert!((accel.rmse_m - cpu.rmse_m).abs() < 0.05);
    }

    #[test]
    fn nominal_run_health_is_clean() {
        // On a clean stream the health-fed runtime must behave exactly like
        // the plain one: no degraded windows, watchdog never engaged, every
        // dynamic decision at or below the cap.
        let data = short_sequence();
        let summary = run_sequence(&data, accel_executor(true));
        assert_eq!(summary.degraded_windows(), 0);
        assert_eq!(summary.watchdog_windows(), 0);
        assert!(summary
            .windows
            .iter()
            .all(|w| w.health == HealthState::Nominal && w.iterations <= ITER_CAP));
    }

    #[test]
    fn summary_statistics_consistent() {
        let data = short_sequence();
        let summary = run_sequence(&data, accel_executor(false));
        let sum: f64 = summary.windows.iter().map(|w| w.latency_ms).sum();
        assert!((sum - summary.total_time_ms).abs() < 1e-9);
        assert!(summary.mean_latency_ms() > 0.0);
        assert!(summary.mean_power_w() > 1.0);
    }

    #[test]
    fn summary_iterations_match_window_records() {
        let data = short_sequence();
        let cpu = Executor::Cpu {
            platform: CpuPlatform::intel_comet_lake(),
            iterations: ITER_CAP,
        };
        for executor in [accel_executor(false), accel_executor(true), cpu] {
            let summary = run_sequence(&data, executor);
            assert!(!summary.windows.is_empty());
            let from_windows: u64 = summary.windows.iter().map(|w| w.iterations as u64).sum();
            let expected = from_windows as f64 / summary.windows.len() as f64;
            assert_eq!(summary.mean_iterations().to_bits(), expected.to_bits());
            assert!(summary.mean_iterations() >= 1.0);
            assert!(summary.mean_iterations() <= ITER_CAP as f64);
        }
        assert_eq!(RunSummary::default().mean_iterations(), 0.0);
    }
}
