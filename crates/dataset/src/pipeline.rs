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
use std::cell::RefCell;
use std::collections::HashMap;

thread_local! {
    /// Per-thread solver scratch backing the workspace-less
    /// `optimize_and_slide*` entry points. Sessions no longer own a
    /// workspace (a grown one is ~1 MB — it would dominate per-session
    /// resident bytes at fleet scale); scratch is per-executing-thread here
    /// or checked out of the fleet's bounded pool via the `*_in` variants.
    static SCRATCH: RefCell<SolverWorkspace> = RefCell::new(SolverWorkspace::new());
}

/// How each new keyframe's state estimate is initialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitMode {
    /// Dead reckoning through IMU preintegration (VINS-style).
    #[default]
    ImuPropagation,
    /// Constant-velocity extrapolation of the previous estimate
    /// (vision-dominant estimators; leaves more work to the NLS iterations).
    ConstantVelocity,
}

/// Pipeline health, the degradation ladder's state machine: faults demote to
/// `Degraded`, clean windows climb back through `Recovering` to `Nominal`
/// with hysteresis (see [`HealthConfig::recovery_windows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Clean sensor stream, solver converging: full-featured operation.
    #[default]
    Nominal,
    /// A fault was observed this window (vision dropout, corrupted IMU,
    /// solver degradation, prior reset): landmark instantiation is
    /// suppressed and state initialization falls back to IMU dead reckoning.
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

/// Thresholds of the [`HealthMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// A frame with fewer tracked features counts as vision loss. The
    /// default of 1 trips only on *total* dropout: natural feature droughts
    /// are part of the nominal workload (they are what the runtime layer
    /// provisions iterations for), not faults.
    pub min_vision_features: usize,
    /// Consecutive clean windows required in `Recovering` before returning
    /// to `Nominal` (the ladder's hysteresis).
    pub recovery_windows: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            min_vision_features: 1,
            recovery_windows: 2,
        }
    }
}

/// Per-window health state machine of the VIO pipeline.
///
/// Frame-level events (vision loss, non-finite IMU samples) and window-level
/// events (degraded solve outcome, marginalization failure) are latched
/// during the window and folded into one state transition when the window
/// closes.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    config: HealthConfig,
    state: HealthState,
    clean_windows: usize,
    /// Fault event latched since the last window closed (the first cause
    /// observed wins; later events in the same window add no information
    /// to the transition).
    window_cause: Option<DegradationCause>,
    degraded_windows: usize,
}

impl HealthMonitor {
    /// Creates a monitor in the `Nominal` state.
    pub fn new(config: HealthConfig) -> Self {
        Self {
            config,
            state: HealthState::Nominal,
            clean_windows: 0,
            window_cause: None,
            degraded_windows: 0,
        }
    }

    /// Current ladder state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// `true` when fully nominal (the only state in which power gating and
    /// landmark instantiation run unrestricted).
    pub fn is_nominal(&self) -> bool {
        self.state == HealthState::Nominal
    }

    /// Cumulative number of windows that closed with a fault observed.
    pub fn degraded_windows(&self) -> usize {
        self.degraded_windows
    }

    /// `true` while a fault is latched for the current window or the ladder
    /// has not yet climbed back to `Nominal` — the condition under which the
    /// pipeline suppresses landmark instantiation and forces IMU
    /// dead-reckoning initialization.
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
                if self.clean_windows >= self.config.recovery_windows.max(1) {
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
    /// Relative noise applied to the front-end depth initialization.
    pub depth_init_error: f64,
    /// Factor weights (the `Cᵢ` of Eq. 2).
    pub weights: FactorWeights,
    /// Carry the marginalization prior between windows (the paper's
    /// formulation). Disabling it is an ablation: windows lose the
    /// information of departed keyframes.
    pub use_prior: bool,
    /// Sub-pixel refinement factor for the anchor bearing (0 = raw noisy
    /// detection, 1 = perfect). Anchor bearings are *fixed* parameters of
    /// the inverse-depth parameterization, so their noise — unlike
    /// observation noise — biases the estimate; front-ends refine anchor
    /// detections to sub-pixel accuracy for exactly this reason.
    pub anchor_refinement: f64,
    /// Landmarks deeper than this (m) are not instantiated: far features
    /// carry almost no parallax and their noise-induced depth bias drags
    /// the monocular scale (the standard front-end depth gate).
    pub max_landmark_depth: f64,
    /// Keyframe state initialization strategy.
    pub init_mode: InitMode,
    /// Degradation-ladder thresholds (see [`HealthConfig`]).
    pub health: HealthConfig,
    /// Arithmetic width of the window solve: `F32` for windows served on the
    /// accelerator, `F64` for the host software solver.
    pub precision: Precision,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            window_size: 10,
            depth_init_error: 0.1,
            weights: FactorWeights::default(),
            use_prior: true,
            anchor_refinement: 0.75,
            max_landmark_depth: 35.0,
            init_mode: InitMode::ImuPropagation,
            health: HealthConfig::default(),
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
    landmark_of: HashMap<u64, usize>,
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
            landmark_of: HashMap::new(),
            gt_window: Vec::new(),
            windows_processed: 0,
            health: HealthMonitor::new(config.health),
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
        if frame.features.len() < self.config.health.min_vision_features {
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
        let state = if kf_index == 0 {
            // First keyframe: initialized from ground truth (plays the role
            // of the known initial condition every VIO system assumes).
            frame.gt
        } else {
            let last = self.window.keyframes[kf_index - 1];
            // While suspect, constant-velocity extrapolation (which trusts
            // the last *vision-corrected* velocity) is overridden by IMU
            // dead reckoning — the degradation ladder's fallback estimator.
            let init_mode = if suspect {
                InitMode::ImuPropagation
            } else {
                self.config.init_mode
            };
            match init_mode {
                InitMode::ImuPropagation => {
                    let pre = Preintegration::integrate(&imu, last.bg, last.ba);
                    propagate(&last, &pre, frame.timestamp)
                }
                InitMode::ConstantVelocity => {
                    let dt = frame.timestamp - last.timestamp;
                    KeyframeState {
                        pose: Pose::new(last.pose.rot, last.pose.trans + last.velocity * dt),
                        ..last
                    }
                }
            }
        };
        self.window.keyframes.push(state);
        self.gt_window.push(frame.gt);

        if kf_index > 0 {
            self.window.imu.push(ImuConstraint {
                first: kf_index - 1,
                preintegration: Preintegration::integrate(
                    &imu,
                    self.window.keyframes[kf_index - 1].bg,
                    self.window.keyframes[kf_index - 1].ba,
                ),
            });
        }

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
                None if !suspect && feat.depth <= self.config.max_landmark_depth => {
                    // New landmark anchored at this keyframe. The bearing is
                    // the measured direction; depth comes from the front-end
                    // (noisy triangulation stand-in; zero-mean per-landmark
                    // error derived deterministically from the feature id).
                    let h = ((feat.id.wrapping_mul(2654435761) % 2000) as f64 / 1000.0) - 1.0;
                    let depth = feat.depth * (1.0 + self.config.depth_init_error * h);
                    let lm_idx = self.window.landmarks.len();
                    let r = self.config.anchor_refinement.clamp(0.0, 1.0);
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
    /// slides it (marginalizing the oldest keyframe). Returns the window
    /// result.
    ///
    /// Solver scratch comes from a per-thread [`SolverWorkspace`]; callers
    /// that manage their own scratch pool (the fleet serving layer) use
    /// [`VioPipeline::optimize_and_slide_in`] instead. The workspace is pure
    /// scratch — every buffer is fully rewritten before it is read — so which
    /// workspace executes a window never changes its bits.
    ///
    /// # Panics
    ///
    /// Panics when called before the window is full.
    pub fn optimize_and_slide(&mut self, iterations: usize) -> WindowResult {
        SCRATCH.with(|ws| self.optimize_and_slide_in(&mut ws.borrow_mut(), iterations))
    }

    /// [`VioPipeline::optimize_and_slide`] with caller-provided solver
    /// scratch.
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

    /// [`VioPipeline::optimize_and_slide_in`] through the dense reference
    /// path with a caller-provided linear solver (see
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
        let prior = if self.config.use_prior {
            self.prior.as_ref()
        } else {
            None
        };
        let config = LmConfig {
            precision: self.config.precision,
            ..LmConfig::with_iterations(iterations)
        };
        let report = solve(
            workspace,
            &mut self.window,
            &self.config.weights,
            prior,
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

        // Without `use_prior` the new prior is still computed (its failure
        // is a health event) and then discarded.
        let mut prior = self.prior.take().filter(|_| self.config.use_prior);
        match try_marginalize_oldest_in(
            workspace,
            &mut self.window,
            &self.config.weights,
            &mut prior,
        ) {
            Ok(_) => self.prior = prior.filter(|_| self.config.use_prior),
            Err(_) => {
                // The marginalized block was not factorizable (numerically
                // poisoned window): drop the oldest keyframe and its
                // landmarks outright and reset the prior rather than carry a
                // corrupt one into every subsequent window.
                self.health.note_event(DegradationCause::PriorReset);
                drop_oldest(&mut self.window);
            }
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

    fn run_pipeline(seconds: f64, iterations: usize) -> (Vec<WindowResult>, VioPipeline) {
        let traj = RoadTrajectory::kitti_like(seconds);
        let world = World::road_corridor(traj.sample(seconds).pose.trans.x() + 80.0, 5, |_| 1.0);
        let cam = PinholeCamera::kitti_like();
        let frames = generate_frames(&traj, &world, &cam, &FrontendConfig::default());
        let mut pipeline = VioPipeline::new(PipelineConfig::default());
        let mut results = Vec::new();
        for frame in &frames {
            if pipeline.push_frame(frame) {
                results.push(pipeline.optimize_and_slide(iterations));
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
        let _ = pipeline.optimize_and_slide(1);
    }

    #[test]
    fn nominal_run_stays_nominal() {
        let (results, pipeline) = run_pipeline(4.0, 3);
        assert!(pipeline.health().is_nominal());
        assert_eq!(pipeline.health().degraded_windows(), 0);
        assert!(results.iter().all(|r| r.health == HealthState::Nominal));
    }

    #[test]
    fn vision_dropout_degrades_and_recovers() {
        let traj = RoadTrajectory::kitti_like(6.0);
        let world = World::road_corridor(traj.sample(6.0).pose.trans.x() + 80.0, 5, |_| 1.0);
        let cam = PinholeCamera::kitti_like();
        let mut frames = generate_frames(&traj, &world, &cam, &FrontendConfig::default());
        // Total vision dropout over frames 20..24.
        for frame in frames.iter_mut().skip(20).take(4) {
            frame.features.clear();
        }
        let mut pipeline = VioPipeline::new(PipelineConfig::default());
        let mut results = Vec::new();
        for frame in &frames {
            if pipeline.push_frame(frame) {
                results.push(pipeline.optimize_and_slide(3));
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
        let traj = RoadTrajectory::kitti_like(4.0);
        let world = World::road_corridor(traj.sample(4.0).pose.trans.x() + 80.0, 5, |_| 1.0);
        let cam = PinholeCamera::kitti_like();
        let mut frames = generate_frames(&traj, &world, &cam, &FrontendConfig::default());
        // Poison a few IMU samples mid-sequence.
        for s in frames[15].imu.iter_mut().take(3) {
            s.accel = archytas_slam::Vec3::new(f64::NAN, 0.0, f64::INFINITY);
        }
        let mut pipeline = VioPipeline::new(PipelineConfig::default());
        let mut results = Vec::new();
        for frame in &frames {
            if pipeline.push_frame(frame) {
                results.push(pipeline.optimize_and_slide(3));
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

    #[test]
    fn health_ladder_hysteresis() {
        let mut m = HealthMonitor::new(HealthConfig {
            min_vision_features: 1,
            recovery_windows: 2,
        });
        assert!(m.is_nominal());
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
