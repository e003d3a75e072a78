//! Localization accuracy metrics: RMSE, ATE and per-window relative error.
//!
//! These produce the y-axes of the paper's Fig. 11 (relative error vs
//! feature count) and Fig. 12 (RMSE vs NLS iteration count), and back the
//! dynamic-optimization accuracy claims of Sec. 7.6.

use crate::geometry::Pose;

/// Per-window relative error: the estimated displacement between two poses
/// compared to the ground-truth displacement, normalized by the latter
/// (Fig. 11's left y-axis).
///
/// Returns 0 when the ground truth barely moved (displacement < 1 mm).
pub fn relative_error(est_prev: &Pose, est_cur: &Pose, gt_prev: &Pose, gt_cur: &Pose) -> f64 {
    let est_disp = est_cur.trans - est_prev.trans;
    let gt_disp = gt_cur.trans - gt_prev.trans;
    let gt_norm = gt_disp.norm();
    if gt_norm < 1e-3 {
        return 0.0;
    }
    (est_disp - gt_disp).norm() / gt_norm
}

/// Streaming accumulator of trajectory metrics over a run.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryMetrics {
    sq_err_sum: f64,
    rel_err_sum: f64,
    count: usize,
}

impl TrajectoryMetrics {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one estimated/ground-truth pose pair plus its per-window
    /// relative error.
    pub fn record(&mut self, est: &Pose, gt: &Pose, relative_err: f64) {
        let d = est.translation_distance(gt);
        self.sq_err_sum += d * d;
        self.rel_err_sum += relative_err;
        self.count += 1;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Root-mean-square translational error so far (0 when empty).
    pub fn rmse(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sq_err_sum / self.count as f64).sqrt()
        }
    }

    /// Mean per-window relative error so far (0 when empty).
    pub fn mean_relative_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.rel_err_sum / self.count as f64
        }
    }
}

/// Mean and (population) standard deviation of a sample — used for the
/// error bars of Fig. 16.
pub fn mean_stdev(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Quat, Vec3};

    fn pose_at(x: f64) -> Pose {
        Pose::new(Quat::IDENTITY, Vec3::new(x, 0.0, 0.0))
    }

    #[test]
    fn relative_error_scales_with_drift() {
        let e = relative_error(&pose_at(0.0), &pose_at(1.1), &pose_at(0.0), &pose_at(1.0));
        assert!((e - 0.1).abs() < 1e-9);
        // Stationary ground truth → defined as zero.
        let e0 = relative_error(&pose_at(0.0), &pose_at(0.5), &pose_at(0.0), &pose_at(0.0));
        assert_eq!(e0, 0.0);
    }

    #[test]
    fn accumulator_statistics() {
        let mut m = TrajectoryMetrics::new();
        assert!(m.is_empty());
        m.record(&pose_at(1.0), &pose_at(0.0), 0.2);
        m.record(&pose_at(0.0), &pose_at(0.0), 0.4);
        assert_eq!(m.len(), 2);
        assert!((m.rmse() - (0.5f64).sqrt()).abs() < 1e-12);
        assert!((m.mean_relative_error() - 0.3).abs() < 1e-12);

        // Identical sequences give exactly zero.
        let mut same = TrajectoryMetrics::new();
        for x in [0.0, 1.0] {
            same.record(&pose_at(x), &pose_at(x), 0.0);
        }
        assert_eq!(same.rmse(), 0.0);
    }

    #[test]
    fn mean_stdev_basics() {
        let (m, s) = mean_stdev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_stdev(&[]), (0.0, 0.0));
    }
}
