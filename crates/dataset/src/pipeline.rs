//! Visual–inertial odometry pipeline: frames in, per-window estimates out.
//!
//! This is the "host side" of the paper's on-vehicle system (Fig. 1): it
//! manages the sliding window, dead-reckons the initial estimate of each new
//! keyframe from the IMU, associates features with landmarks, invokes the
//! solver (with whatever iteration budget the run-time system chooses), and
//! marginalizes the oldest keyframe as the window slides.

use crate::frontend::Frame;
use archytas_slam::{
    drop_oldest, try_marginalize_oldest_in, FactorWeights, ImuConstraint, ImuSample, KeyframeState,
    Landmark, LmConfig, Observation, Pose, Precision, Preintegration, Prior, SlidingWindow,
    SolveReport, SolverWorkspace, WindowWorkload, GRAVITY,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Relative noise applied to the front-end depth initialization.
const DEPTH_INIT_ERROR: f64 = 0.1;

/// Sub-pixel refinement factor for the anchor bearing (0 = raw noisy
/// detection, 1 = perfect). Anchor bearings are *fixed* parameters of the
/// inverse-depth parameterization, so their noise — unlike observation
/// noise — biases the estimate; front-ends refine anchor detections to
/// sub-pixel accuracy for exactly this reason.
const ANCHOR_REFINEMENT: f64 = 0.75;

/// Landmarks deeper than this (m) are not instantiated: far features carry
/// almost no parallax and their noise-induced depth bias drags the
/// monocular scale (the standard front-end depth gate).
const MAX_LANDMARK_DEPTH: f64 = 35.0;

/// A frame with fewer tracked features counts as vision loss. One trips
/// only on *total* dropout: natural feature droughts are part of the
/// nominal workload (they are what the runtime layer provisions iterations
/// for), not faults.
const MIN_VISION_FEATURES: usize = 1;

/// Consecutive clean windows required in `Recovering` before returning to
/// `Nominal` (the degradation ladder's hysteresis).
const RECOVERY_WINDOWS: usize = 2;

/// Pipeline health, the degradation ladder's state machine: faults demote to
/// `Degraded`, clean windows climb back through `Recovering` to `Nominal`
/// with hysteresis (`RECOVERY_WINDOWS` clean windows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Clean sensor stream, solver converging: full-featured operation.
    #[default]
    Nominal,
    /// A fault was observed this window (vision dropout, corrupted IMU,
    /// solver degradation, prior reset): landmark instantiation is
    /// suppressed, so the window runs on IMU dead reckoning and the
    /// landmarks it already holds.
    Degraded,
    /// Fault cleared; counting clean windows before resuming nominal
    /// operation.
    Recovering,
}

/// Why a window closed degraded — the ladder's *diagnosis*, as opposed to
/// [`HealthState`] which is its *response*. Distinguishing the cause matters
/// operationally: a sanitized sensor fault is routine (the ladder absorbed
/// it), a prior reset means information was discarded, and solver divergence
/// on clean input points at conditioning rather than sensors. None of these
/// is a quarantine event — quarantine is a fleet-level verdict
/// (`archytas-fleet`) about a session, not a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradationCause {
    /// Corrupted sensor input was detected and sanitized (non-finite IMU,
    /// vision dropout, stale frame delivery, non-finite feature).
    SensorFault,
    /// The solver reported a degraded outcome with no sensor fault latched.
    SolverDivergence,
    /// Marginalization failed; the oldest keyframe was dropped and the
    /// prior reset rather than carrying a corrupt one forward.
    PriorReset,
}

/// Per-window health state machine of the VIO pipeline.
///
/// Frame-level events (vision loss, non-finite IMU samples) and window-level
/// events (degraded solve outcome, marginalization failure) are latched
/// during the window and folded into one state transition when the window
/// closes.
#[derive(Debug, Clone, Default)]
pub struct HealthMonitor {
    state: HealthState,
    clean_windows: usize,
    /// Fault event latched since the last window closed (the first cause
    /// observed wins; later events in the same window add no information
    /// to the transition).
    window_cause: Option<DegradationCause>,
    degraded_windows: usize,
}

impl HealthMonitor {
    /// Current ladder state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Cumulative number of windows that closed with a fault observed.
    pub fn degraded_windows(&self) -> usize {
        self.degraded_windows
    }

    /// `true` while a fault is latched for the current window or the ladder
    /// has not yet climbed back to `Nominal` — the condition under which the
    /// pipeline suppresses landmark instantiation.
    pub fn is_suspect(&self) -> bool {
        self.window_cause.is_some() || self.state != HealthState::Nominal
    }

    /// Latches a fault event for the current window; the first cause
    /// observed in a window wins.
    fn note_event(&mut self, cause: DegradationCause) {
        self.window_cause.get_or_insert(cause);
    }

    /// Folds the latched events and the solve outcome into one transition as
    /// a window closes, returning the window's degradation cause (`None`
    /// when the window was clean). A degraded solve outcome with no sensor
    /// or marginalization event latched is attributed to the solver itself.
    fn end_window(&mut self, outcome_degraded: bool) -> Option<DegradationCause> {
        let cause = self
            .window_cause
            .take()
            .or_else(|| outcome_degraded.then_some(DegradationCause::SolverDivergence));
        if cause.is_some() {
            self.state = HealthState::Degraded;
            self.clean_windows = 0;
            self.degraded_windows += 1;
            return cause;
        }
        match self.state {
            HealthState::Nominal => {}
            HealthState::Degraded | HealthState::Recovering => {
                self.state = HealthState::Recovering;
                self.clean_windows += 1;
                if self.clean_windows >= RECOVERY_WINDOWS {
                    self.state = HealthState::Nominal;
                    self.clean_windows = 0;
                }
            }
        }
        None
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Sliding-window capacity in keyframes (`b`).
    pub window_size: usize,
    /// Factor weights (the `Cᵢ` of Eq. 2).
    pub weights: FactorWeights,
    /// Arithmetic width of the window solve: `F32` for windows served on the
    /// accelerator, `F64` for the host software solver.
    pub precision: Precision,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            window_size: 10,
            weights: FactorWeights::default(),
            precision: Precision::F64,
        }
    }
}

/// Result of processing one full window.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Sliding-window index (increments once per marginalization).
    pub window_id: usize,
    /// Solver report for this window.
    pub report: SolveReport,
    /// Estimated pose of the newest keyframe.
    pub estimate: Pose,
    /// Ground-truth pose of the newest keyframe.
    pub ground_truth: Pose,
    /// Workload statistics (feeds the hardware latency model).
    pub workload: WindowWorkload,
    /// Health state after this window closed (degradation ladder).
    pub health: HealthState,
    /// Why the window closed degraded, `None` when it was clean.
    pub cause: Option<DegradationCause>,
}

/// The stateful VIO pipeline.
#[derive(Debug, Clone)]
pub struct VioPipeline {
    config: PipelineConfig,
    window: SlidingWindow,
    prior: Option<Prior>,
    /// feature id → landmark index in the current window.
    landmark_of: HashMap<u64, usize, BuildHasherDefault<IdHasher>>,
    /// Ground-truth poses aligned with `window.keyframes`.
    gt_window: Vec<KeyframeState>,
    windows_processed: usize,
    /// Degradation-ladder state machine.
    health: HealthMonitor,
    /// Signature `(id, uv bits)` of the previous frame's features, for
    /// stale-frame (duplicate delivery) detection.
    last_frame_features: Vec<(u64, u64, u64)>,
    /// Last sanitized IMU sample of the previous frame: the cross-frame
    /// neighbor for repairing corruption that spans a whole frame.
    last_good_imu: Option<ImuSample>,
}

impl VioPipeline {
    /// Creates an empty pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            window: SlidingWindow::new(),
            prior: None,
            landmark_of: HashMap::default(),
            gt_window: Vec::new(),
            windows_processed: 0,
            health: HealthMonitor::default(),
            last_frame_features: Vec::new(),
            last_good_imu: None,
        }
    }

    /// The degradation-ladder monitor (read access).
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Read access to the current window (for the hardware functional model
    /// and workload probes).
    pub fn window(&self) -> &SlidingWindow {
        &self.window
    }

    /// The current marginalization prior, if any.
    pub fn prior(&self) -> Option<&Prior> {
        self.prior.as_ref()
    }

    /// Number of completed windows.
    pub fn windows_processed(&self) -> usize {
        self.windows_processed
    }

    /// Ingests one frame: creates a keyframe (IMU dead-reckoned initial
    /// estimate), registers features, and returns `true` when the window is
    /// full and ready to be optimized.
    pub fn push_frame(&mut self, frame: &Frame) -> bool {
        // Non-finite IMU samples are a sensor fault: replace them by
        // sample-and-hold and latch a health event. The all-finite fast
        // path borrows the frame's samples untouched, so nominal runs are
        // bit-identical.
        let imu: std::borrow::Cow<'_, [ImuSample]> =
            match sanitize_imu(&frame.imu, self.last_good_imu.as_ref()) {
                None => std::borrow::Cow::Borrowed(&frame.imu[..]),
                Some(clean) => {
                    self.health.note_event(DegradationCause::SensorFault);
                    std::borrow::Cow::Owned(clean)
                }
            };
        if let Some(s) = imu.last() {
            self.last_good_imu = Some(*s);
        }
        if frame.features.len() < MIN_VISION_FEATURES {
            // Vision dropout: the window from here on runs on IMU dead
            // reckoning and existing landmarks only.
            self.health.note_event(DegradationCause::SensorFault);
        }
        // Stale-frame detection: a feature set bit-identical to the previous
        // frame's is a duplicate delivery (frame-grabber fault), not a new
        // measurement — per-frame noise makes exact equality impossible on a
        // live stream. Stale measurements are *consistent* observations of
        // the wrong pose, so they must be rejected, not robust-weighted.
        let signature: Vec<(u64, u64, u64)> = frame
            .features
            .iter()
            .map(|f| (f.id, f.uv[0].to_bits(), f.uv[1].to_bits()))
            .collect();
        let stale = self.window.num_keyframes() > 0
            && !signature.is_empty()
            && signature == self.last_frame_features;
        self.last_frame_features = signature;
        if stale {
            self.health.note_event(DegradationCause::SensorFault);
        }
        let suspect = self.health.is_suspect();

        let kf_index = self.window.num_keyframes();
        if kf_index == 0 {
            // First keyframe: initialized from ground truth (plays the role
            // of the known initial condition every VIO system assumes).
            self.window.keyframes.push(frame.gt);
        } else {
            // One integration serves both the prediction and the factor.
            let last = self.window.keyframes[kf_index - 1];
            let preintegration = Preintegration::integrate(&imu, last.bg, last.ba);
            let state = propagate(&last, &preintegration, frame.timestamp);
            self.window.keyframes.push(state);
            self.window.imu.push(ImuConstraint {
                first: kf_index - 1,
                preintegration,
            });
        }
        self.gt_window.push(frame.gt);

        // A stale frame contributes no measurements at all: its IMU interval
        // was real, its features are a replay.
        let delivered = if stale { &[][..] } else { &frame.features[..] };
        for feat in delivered {
            // A non-finite measurement would put NaN into every residual it
            // touches: drop it and flag the window instead.
            if !(feat.uv[0].is_finite() && feat.uv[1].is_finite()) {
                self.health.note_event(DegradationCause::SensorFault);
                continue;
            }
            match self.landmark_of.get(&feat.id) {
                Some(&lm_idx) => {
                    self.window.observations.push(Observation {
                        landmark: lm_idx,
                        keyframe: kf_index,
                        uv: feat.uv,
                    });
                }
                // New landmarks are not instantiated while suspect: features
                // surviving a fault episode are the least trustworthy, and a
                // landmark anchored on a corrupted keyframe poisons every
                // later window it is observed from.
                None if !suspect && feat.depth <= MAX_LANDMARK_DEPTH => {
                    // New landmark anchored at this keyframe. The bearing is
                    // the measured direction; depth comes from the front-end
                    // (noisy triangulation stand-in; zero-mean per-landmark
                    // error derived deterministically from the feature id).
                    let h = ((feat.id.wrapping_mul(2654435761) % 2000) as f64 / 1000.0) - 1.0;
                    let depth = feat.depth * (1.0 + DEPTH_INIT_ERROR * h);
                    let lm_idx = self.window.landmarks.len();
                    let r = ANCHOR_REFINEMENT;
                    let bearing_uv = [
                        feat.uv[0] * (1.0 - r) + feat.uv_true[0] * r,
                        feat.uv[1] * (1.0 - r) + feat.uv_true[1] * r,
                    ];
                    self.window.landmarks.push(Landmark {
                        id: feat.id,
                        anchor: kf_index,
                        bearing: archytas_slam::Vec3::new(bearing_uv[0], bearing_uv[1], 1.0),
                        inv_depth: 1.0 / depth.max(0.1),
                    });
                    self.landmark_of.insert(feat.id, lm_idx);
                }
                None => {} // too far: skip until it comes closer
            }
        }
        self.window.num_keyframes() >= self.config.window_size
    }

    /// Optimizes the full window with the given iteration budget and then
    /// slides it (marginalizing the oldest keyframe), with all solver
    /// scratch in `workspace`. Returns the window result.
    ///
    /// The pipeline owns no workspace (a grown one is ~1 MB, which would
    /// dominate per-session resident bytes at fleet scale): a serial caller
    /// holds one for its whole run, the fleet checks one out of its bounded
    /// pool per window. The workspace is pure scratch — every buffer is
    /// fully rewritten before it is read — so which workspace executes a
    /// window never changes its bits.
    ///
    /// # Panics
    ///
    /// Panics when called before the window is full.
    pub fn optimize_and_slide_in(
        &mut self,
        workspace: &mut SolverWorkspace,
        iterations: usize,
    ) -> WindowResult {
        self.solve_and_slide(
            workspace,
            iterations,
            |ws, window, weights, prior, config| {
                archytas_slam::solve_in_workspace(ws, window, weights, prior, config)
            },
        )
    }

    /// [`VioPipeline::optimize_and_slide_in`] with a caller-provided dense
    /// linear solver fed the damped system's dense image (see
    /// [`archytas_slam::solve_with_in_workspace`]); `PipelineConfig::precision`
    /// is unused, the solver decides. Bit-identical to the block-sparse path
    /// when `linear_solver` is the dense solver of the configured precision,
    /// which lets callers wrap (time, count) each linear solve.
    ///
    /// # Panics
    ///
    /// Panics when called before the window is full.
    pub fn optimize_and_slide_with_in(
        &mut self,
        workspace: &mut SolverWorkspace,
        iterations: usize,
        linear_solver: archytas_slam::LinearSolver<'_>,
    ) -> WindowResult {
        self.solve_and_slide(
            workspace,
            iterations,
            |ws, window, weights, prior, config| {
                archytas_slam::solve_with_in_workspace(
                    ws,
                    window,
                    weights,
                    prior,
                    config,
                    linear_solver,
                )
            },
        )
    }

    /// Optimizes the full window through `solve` with the configured
    /// iteration budget and precision, then slides it.
    fn solve_and_slide(
        &mut self,
        workspace: &mut SolverWorkspace,
        iterations: usize,
        solve: impl FnOnce(
            &mut SolverWorkspace,
            &mut SlidingWindow,
            &FactorWeights,
            Option<&Prior>,
            &LmConfig,
        ) -> SolveReport,
    ) -> WindowResult {
        assert!(
            self.window.num_keyframes() >= self.config.window_size,
            "optimize_and_slide: window not full"
        );
        let config = LmConfig {
            precision: self.config.precision,
            ..LmConfig::with_iterations(iterations)
        };
        let report = solve(
            workspace,
            &mut self.window,
            &self.config.weights,
            self.prior.as_ref(),
            &config,
        );
        self.slide(workspace, report)
    }

    /// Records the optimized window's result, marginalizes the oldest
    /// keyframe, and slides the window in place (shared tail of both
    /// optimize paths).
    fn slide(&mut self, workspace: &mut SolverWorkspace, report: SolveReport) -> WindowResult {
        let am = self
            .window
            .landmarks
            .iter()
            .filter(|l| l.anchor == 0)
            .count();
        let workload = self.window.workload(am);

        let newest = self.window.num_keyframes() - 1;
        let window_id = self.windows_processed;
        let estimate = self.window.keyframes[newest].pose;
        let ground_truth = self.gt_window[newest].pose;
        let outcome_degraded = report.outcome.is_degraded();

        let marginalized = try_marginalize_oldest_in(
            workspace,
            &mut self.window,
            &self.config.weights,
            &mut self.prior,
        );
        if marginalized.is_err() {
            // The marginalized block was not factorizable (numerically
            // poisoned window): drop the oldest keyframe and its landmarks
            // outright and reset the prior rather than carry a corrupt one
            // into every subsequent window.
            self.health.note_event(DegradationCause::PriorReset);
            self.prior = None;
            drop_oldest(&mut self.window);
        }
        self.gt_window.remove(0);
        self.rebuild_landmark_map();
        self.windows_processed += 1;
        let cause = self.health.end_window(outcome_degraded);

        WindowResult {
            window_id,
            report,
            estimate,
            ground_truth,
            workload,
            health: self.health.state(),
            cause,
        }
    }

    fn rebuild_landmark_map(&mut self) {
        self.landmark_of.clear();
        for (idx, lm) in self.window.landmarks.iter().enumerate() {
            self.landmark_of.insert(lm.id, idx);
        }
    }
}

/// Multiply-shift hash of a feature id. The ids come from our own
/// generator, so SipHash's flooding resistance buys nothing, and the map is
/// only probed, inserted into and cleared, never iterated, so its order
/// cannot reach a result. The shift folds the high bits into the low ones
/// (the bucket) and the multiply spreads them to the top ones (the tag).
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes
            .iter()
            .for_each(|&b| self.write_u64(self.0 ^ u64::from(b)));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (x ^ (x >> 29)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Returns `None` when the stream is healthy (the nominal fast path, which
/// lets the caller borrow the frame's samples untouched), otherwise a
/// sanitized copy. Two corruptions are repaired:
///
/// * **Rail-pinned runs** — two or more consecutive samples with a
///   bitwise-identical gyro/accel component are a saturated (clipped)
///   sensor: white noise makes exact repeats impossible on a live stream.
///   The run is replaced by the last reading before it — `prev` (the tail
///   of the previous frame's sanitized stream) when the run starts at the
///   frame head — or by the first reading after it.
/// * **Non-finite readings** — replaced by sample-and-hold of the last good
///   reading (`prev`, or zero before any); a non-finite `dt` collapses to
///   zero so the interval contributes no motion.
fn sanitize_imu(samples: &[ImuSample], prev: Option<&ImuSample>) -> Option<Vec<ImuSample>> {
    fn comp(s: &ImuSample, c: usize) -> f64 {
        if c < 3 {
            s.gyro.0[c]
        } else {
            s.accel.0[c - 3]
        }
    }
    fn set_comp(s: &mut ImuSample, c: usize, v: f64) {
        if c < 3 {
            s.gyro.0[c] = v;
        } else {
            s.accel.0[c - 3] = v;
        }
    }
    fn finite3(v: &archytas_slam::Vec3) -> bool {
        v.0.iter().all(|c| c.is_finite())
    }
    fn clean(s: &ImuSample) -> bool {
        s.dt.is_finite() && finite3(&s.gyro) && finite3(&s.accel)
    }

    let non_finite = !samples.iter().all(clean);
    let pinned = samples
        .windows(2)
        .any(|w| (0..6).any(|c| comp(&w[0], c).to_bits() == comp(&w[1], c).to_bits()));
    if !non_finite && !pinned {
        return None;
    }

    let mut out: Vec<ImuSample> = samples.to_vec();
    if pinned {
        for c in 0..6 {
            let mut i = 0;
            while i + 1 < out.len() {
                if comp(&out[i], c).to_bits() != comp(&out[i + 1], c).to_bits() {
                    i += 1;
                    continue;
                }
                let mut j = i + 1;
                while j + 1 < out.len()
                    && comp(&out[j + 1], c).to_bits() == comp(&out[i], c).to_bits()
                {
                    j += 1;
                }
                // A run with no good neighbor anywhere (whole stream pinned
                // and no previous frame) is left for the solver's
                // robustness to absorb.
                let replacement = if i > 0 {
                    Some(comp(&out[i - 1], c))
                } else if let Some(p) = prev {
                    Some(comp(p, c))
                } else if j + 1 < out.len() {
                    Some(comp(&out[j + 1], c))
                } else {
                    None
                };
                if let Some(r) = replacement {
                    if r.is_finite() {
                        for s in &mut out[i..=j] {
                            set_comp(s, c, r);
                        }
                    }
                }
                i = j + 1;
            }
        }
    }
    let mut hold = prev.copied().filter(clean).unwrap_or(ImuSample {
        gyro: archytas_slam::Vec3::ZERO,
        accel: archytas_slam::Vec3::ZERO,
        dt: 0.0,
    });
    for s in &mut out {
        let fixed = ImuSample {
            gyro: if finite3(&s.gyro) { s.gyro } else { hold.gyro },
            accel: if finite3(&s.accel) {
                s.accel
            } else {
                hold.accel
            },
            dt: if s.dt.is_finite() { s.dt } else { 0.0 },
        };
        *s = fixed;
        hold = fixed;
    }
    Some(out)
}

/// IMU dead reckoning: propagates a keyframe state through a preintegrated
/// interval.
fn propagate(last: &KeyframeState, pre: &Preintegration, timestamp: f64) -> KeyframeState {
    let dt = pre.dt;
    let (dq, dp, dv) = pre.corrected(&last.bg, &last.ba);
    KeyframeState {
        pose: Pose::new(
            last.pose.rot.mul(&dq).normalized(),
            last.pose.trans
                + last.velocity * dt
                + GRAVITY * (0.5 * dt * dt)
                + last.pose.rot.rotate(&dp),
        ),
        velocity: last.velocity + GRAVITY * dt + last.pose.rot.rotate(&dv),
        bg: last.bg,
        ba: last.ba,
        timestamp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{generate_frames, FrontendConfig};
    use crate::trajectory::RoadTrajectory;
    use crate::world::World;
    use archytas_slam::PinholeCamera;

    /// Frames of a `seconds`-long KITTI-like drive.
    fn kitti_frames(seconds: f64) -> Vec<Frame> {
        let traj = RoadTrajectory::kitti_like(seconds);
        let world = World::road_corridor(traj.sample(seconds).pose.trans.x() + 80.0, 5, |_| 1.0);
        let cam = PinholeCamera::kitti_like();
        generate_frames(&traj, &world, &cam, &FrontendConfig::default())
    }

    fn run_pipeline(seconds: f64, iterations: usize) -> (Vec<WindowResult>, VioPipeline) {
        let frames = kitti_frames(seconds);
        let mut pipeline = VioPipeline::new(PipelineConfig::default());
        let mut ws = SolverWorkspace::new();
        let mut results = Vec::new();
        for frame in &frames {
            if pipeline.push_frame(frame) {
                results.push(pipeline.optimize_and_slide_in(&mut ws, iterations));
            }
        }
        (results, pipeline)
    }

    use crate::trajectory::Trajectory;

    #[test]
    fn pipeline_produces_windows() {
        let (results, pipeline) = run_pipeline(4.0, 3);
        // 40 frames at window size 10 → 31 sliding windows.
        assert_eq!(results.len(), 31);
        assert_eq!(pipeline.windows_processed(), 31);
        for r in &results {
            assert!(r.workload.features > 0);
            assert!(r.workload.keyframes == 10);
        }
    }

    #[test]
    fn estimates_track_ground_truth() {
        let (results, _) = run_pipeline(5.0, 4);
        let last = results.last().unwrap();
        let err = last.estimate.translation_distance(&last.ground_truth);
        let travelled = last.ground_truth.trans.norm().max(1.0);
        let drift_fraction = err / travelled;
        // Monocular-VIO-grade accuracy: cumulative drift a few percent of
        // distance travelled.
        assert!(
            drift_fraction < 0.04,
            "drift {err} m over {travelled} m ({:.1}%)",
            drift_fraction * 100.0
        );
    }

    #[test]
    fn optimization_beats_dead_reckoning_initialization() {
        let (results, _) = run_pipeline(4.0, 4);
        for r in &results {
            assert!(
                r.report.final_cost <= r.report.initial_cost,
                "window {}: cost went up",
                r.window_id
            );
        }
    }

    #[test]
    fn workload_reports_marginalization() {
        let (results, _) = run_pipeline(4.0, 2);
        // At least some windows must be marginalizing features out.
        assert!(results.iter().any(|r| r.workload.marginalized_features > 0));
    }

    #[test]
    #[should_panic(expected = "window not full")]
    fn premature_optimize_panics() {
        let mut pipeline = VioPipeline::new(PipelineConfig::default());
        let _ = pipeline.optimize_and_slide_in(&mut SolverWorkspace::new(), 1);
    }

    #[test]
    fn nominal_run_stays_nominal() {
        let (results, pipeline) = run_pipeline(4.0, 3);
        assert_eq!(pipeline.health().state(), HealthState::Nominal);
        assert_eq!(pipeline.health().degraded_windows(), 0);
        assert!(results.iter().all(|r| r.health == HealthState::Nominal));
    }

    #[test]
    fn vision_dropout_degrades_and_recovers() {
        let mut frames = kitti_frames(6.0);
        // Total vision dropout over frames 20..24.
        for frame in frames.iter_mut().skip(20).take(4) {
            frame.features.clear();
        }
        let mut pipeline = VioPipeline::new(PipelineConfig::default());
        let mut ws = SolverWorkspace::new();
        let mut results = Vec::new();
        for frame in &frames {
            if pipeline.push_frame(frame) {
                results.push(pipeline.optimize_and_slide_in(&mut ws, 3));
            }
        }
        assert!(
            results.iter().any(|r| r.health == HealthState::Degraded),
            "dropout never degraded the ladder"
        );
        assert_eq!(
            results.last().unwrap().health,
            HealthState::Nominal,
            "ladder never recovered after the dropout cleared"
        );
        assert!(pipeline.health().degraded_windows() > 0);
        // The pipeline survived: every window completed with finite cost.
        assert!(results.iter().all(|r| r.report.final_cost.is_finite()));
    }

    #[test]
    fn non_finite_imu_is_sanitized_not_propagated() {
        let mut frames = kitti_frames(4.0);
        // Poison a few IMU samples mid-sequence.
        for s in frames[15].imu.iter_mut().take(3) {
            s.accel = archytas_slam::Vec3::new(f64::NAN, 0.0, f64::INFINITY);
        }
        let mut pipeline = VioPipeline::new(PipelineConfig::default());
        let mut ws = SolverWorkspace::new();
        let mut results = Vec::new();
        for frame in &frames {
            if pipeline.push_frame(frame) {
                results.push(pipeline.optimize_and_slide_in(&mut ws, 3));
            }
        }
        assert!(!results.is_empty());
        for r in &results {
            assert!(
                r.report.final_cost.is_finite(),
                "window {}: NaN leaked through IMU sanitization",
                r.window_id
            );
            assert!(r.estimate.trans.0.iter().all(|v| v.is_finite()));
        }
        assert!(pipeline.health().degraded_windows() > 0);
    }

    /// Noisy samples like a real stream: every component differs per sample.
    fn noisy_samples(n: usize) -> Vec<ImuSample> {
        (0..n)
            .map(|k| {
                let e = 1e-4 * (k as f64 + 1.0);
                ImuSample {
                    gyro: archytas_slam::Vec3::new(0.1 + e, -0.02 + 2.0 * e, 0.01 - e),
                    accel: archytas_slam::Vec3::new(0.3 - e, 0.1 + 3.0 * e, 9.81 + e),
                    dt: 0.005,
                }
            })
            .collect()
    }

    #[test]
    fn sanitize_imu_fast_path_is_none() {
        let samples = noisy_samples(8);
        assert!(sanitize_imu(&samples, None).is_none());

        let mut bad = samples.clone();
        bad[3].gyro = archytas_slam::Vec3::new(f64::NAN, 0.0, 0.0);
        bad[5].dt = f64::INFINITY;
        let fixed = sanitize_imu(&bad, None).expect("non-finite samples must be rewritten");
        assert_eq!(fixed.len(), bad.len());
        // Sample-and-hold: the poisoned gyro takes the previous reading.
        assert_eq!(fixed[3].gyro, samples[2].gyro);
        assert_eq!(fixed[5].dt, 0.0);
        for s in &fixed {
            assert!(s.dt.is_finite());
            assert!(s.gyro.0.iter().all(|v| v.is_finite()));
            assert!(s.accel.0.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn sanitize_imu_repairs_rail_pinned_runs() {
        let samples = noisy_samples(10);
        let mut clipped = samples.clone();
        // Saturate accel z over samples 4..8 at a single rail value.
        for s in clipped[4..8].iter_mut() {
            s.accel = archytas_slam::Vec3::new(s.accel.x(), s.accel.y(), 8.0);
        }
        let fixed = sanitize_imu(&clipped, None).expect("pinned run must be rewritten");
        for (k, s) in fixed.iter().enumerate().take(8).skip(4) {
            // The run takes the last pre-clip reading, not the rail.
            assert_eq!(
                s.accel.z().to_bits(),
                samples[3].accel.z().to_bits(),
                "sample {k}"
            );
            // Untouched components pass through bit-exactly.
            assert_eq!(s.accel.x().to_bits(), samples[k].accel.x().to_bits());
            assert_eq!(s.gyro.y().to_bits(), samples[k].gyro.y().to_bits());
        }
        assert_eq!(fixed[8].accel.z().to_bits(), samples[8].accel.z().to_bits());
    }

    /// A 6 s KITTI-like drive; `poison` runs on the pipeline just before
    /// window `at` is optimized. Returns every window's result.
    fn run_poisoned(at: usize, poison: impl FnOnce(&mut VioPipeline)) -> Vec<WindowResult> {
        let mut pipeline = VioPipeline::new(PipelineConfig::default());
        let mut poison = Some(poison);
        let mut ws = SolverWorkspace::new();
        let mut results = Vec::new();
        for frame in &kitti_frames(6.0) {
            if pipeline.push_frame(frame) {
                if results.len() == at {
                    assert!(pipeline.prior().is_some(), "window {at} carries a prior");
                    (poison.take().unwrap())(&mut pipeline);
                }
                results.push(pipeline.optimize_and_slide_in(&mut ws, 6));
            }
        }
        assert!(results.len() > at + RECOVERY_WINDOWS + 2);
        results
    }

    #[test]
    fn non_finite_prior_information_resets_the_prior() {
        // A NaN velocity on keyframe 1 reaches the kept states' information
        // through the IMU factor kf0–kf1: the marginalization returns
        // `SolveError::NonFinite` and the window closes as a prior reset.
        let results = run_poisoned(8, |p| {
            p.window.keyframes[1].velocity = archytas_slam::Vec3::new(f64::NAN, 0.0, 0.0);
        });
        assert_eq!(results[8].cause, Some(DegradationCause::PriorReset));
        assert_eq!(results[8].health, HealthState::Degraded);
    }

    #[test]
    fn indefinite_prior_information_fails_the_lm_solve() {
        // A prior whose information is far from positive definite is kept
        // as given; every damping retry then fails to factorize, and the
        // health ladder classifies the window. Later windows stay finite.
        let results = run_poisoned(8, |p| {
            let prior = p.prior.as_ref().unwrap();
            let dim = prior.dim();
            let hp = archytas_math::DMat::identity(dim).scale(-1e12);
            let lin = p.window.keyframes[..prior.num_keyframes()].to_vec();
            p.prior = Some(
                Prior::try_from_information(&hp, &archytas_math::DVec::zeros(dim), lin, 1e-9)
                    .unwrap(),
            );
        });
        let bad = &results[8];
        assert_eq!(
            bad.report.outcome,
            archytas_slam::SolveOutcome::Degraded {
                reason: archytas_slam::DegradeReason::LinearSolveFailed
            }
        );
        assert!(bad.cause.is_some(), "the ladder classifies the window");
        assert_eq!(bad.health, HealthState::Degraded);
        assert!(results[9..]
            .iter()
            .all(|r| r.estimate.trans.norm().is_finite()));
    }

    #[test]
    fn health_ladder_hysteresis() {
        let mut m = HealthMonitor::default();
        assert_eq!(m.state(), HealthState::Nominal);
        m.note_event(DegradationCause::SensorFault);
        assert!(m.is_suspect());
        assert_eq!(m.end_window(false), Some(DegradationCause::SensorFault));
        assert_eq!(m.state(), HealthState::Degraded);
        // One clean window: recovering, not yet nominal.
        assert_eq!(m.end_window(false), None);
        assert_eq!(m.state(), HealthState::Recovering);
        assert!(m.is_suspect());
        // Second clean window: back to nominal.
        assert_eq!(m.end_window(false), None);
        assert_eq!(m.state(), HealthState::Nominal);
        // A degraded solve outcome alone is attributed to the solver.
        assert_eq!(m.end_window(true), Some(DegradationCause::SolverDivergence));
        assert_eq!(m.state(), HealthState::Degraded);
        assert_eq!(m.degraded_windows(), 2);
        // The first cause latched in a window wins over later ones.
        m.note_event(DegradationCause::PriorReset);
        m.note_event(DegradationCause::SensorFault);
        assert_eq!(m.end_window(true), Some(DegradationCause::PriorReset));
    }
}
