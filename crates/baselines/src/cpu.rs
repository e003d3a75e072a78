//! CPU baseline cost models (paper Sec. 7.1, "Baselines").
//!
//! The paper's software baseline is a multithreaded, vectorized ceres-based
//! bundle adjustment run on (a) a 12-core Intel Comet Lake at 2.9 GHz and
//! (b) the quad-core Arm Cortex-A57 of a Jetson TX1 at 1.9 GHz, with power
//! measured at the wall / via the TX1's sensing rails. Neither machine is
//! available here, so each platform is modelled by its *effective sustained
//! throughput* on this workload (arithmetic from the M-DFG cost model ÷
//! wall time) plus a package power. The throughputs are calibrated so the
//! paper's headline ratios (≈6.2×/74× vs Intel, ≈39.7×/14.6× vs Arm for
//! High-Perf) emerge from the same cost model that drives the accelerator's
//! latency — the comparison is therefore self-consistent: identical work,
//! different executors.

use archytas_mdfg::{build_mdfg, ProblemShape};

/// Fixed software overhead per NLS iteration (problem construction,
/// allocation, threading sync — ceres-class bookkeeping), expressed in
/// equivalent scalar ops. Dominant on small problems (Sec. 7.7's curve
/// fitting / pose estimation), marginal on full SLAM windows. The
/// accelerator's fixed-function pipeline has no analogue.
pub const OVERHEAD_OPS_PER_ITERATION: u64 = 1_200_000;

/// Fixed software overhead per window (marginalization bookkeeping).
pub const OVERHEAD_OPS_PER_WINDOW: u64 = 2_000_000;

/// A CPU platform executing the software MAP solver.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuPlatform {
    /// Human-readable name.
    pub name: &'static str,
    /// Effective sustained throughput on the sliding-window workload
    /// (scalar operations per second, *not* peak FLOPS — BA is memory- and
    /// branch-bound, so sustained is a few percent of peak).
    pub effective_ops_per_s: f64,
    /// Package power under this workload (W).
    pub power_w: f64,
}

impl CpuPlatform {
    /// The 12-core Intel Comet Lake @ 2.9 GHz baseline.
    pub fn intel_comet_lake() -> Self {
        Self {
            name: "Intel Comet Lake (12c, 2.9 GHz)",
            effective_ops_per_s: 5.1e9,
            power_w: 58.0,
        }
    }

    /// The quad-core Arm Cortex-A57 (Jetson TX1) @ 1.9 GHz baseline.
    pub fn arm_a57() -> Self {
        Self {
            name: "Arm Cortex-A57 (4c, 1.9 GHz)",
            effective_ops_per_s: 0.79e9,
            power_w: 1.9,
        }
    }

    /// Total arithmetic work of one sliding window (scalar ops): `Iter`
    /// NLS iterations plus one marginalization, from the M-DFG cost model.
    pub fn window_work_ops(shape: &ProblemShape, iterations: usize) -> u64 {
        let built = build_mdfg(shape);
        (built.nls.total_cost() + OVERHEAD_OPS_PER_ITERATION) * iterations as u64
            + built.marginalization.total_cost()
            + OVERHEAD_OPS_PER_WINDOW
    }

    /// Wall time of one window on this platform (ms).
    pub fn window_time_ms(&self, shape: &ProblemShape, iterations: usize) -> f64 {
        Self::window_work_ops(shape, iterations) as f64 / self.effective_ops_per_s * 1e3
    }

    /// Energy of one window on this platform (mJ).
    pub fn window_energy_mj(&self, shape: &ProblemShape, iterations: usize) -> f64 {
        self.window_time_ms(shape, iterations) * self.power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archytas_hw::{AcceleratorModel, FpgaPlatform, HIGH_PERF, LOW_POWER};

    fn typical() -> ProblemShape {
        ProblemShape::typical()
    }

    #[test]
    fn intel_is_faster_than_arm() {
        let shape = typical();
        let intel = CpuPlatform::intel_comet_lake().window_time_ms(&shape, 6);
        let arm = CpuPlatform::arm_a57().window_time_ms(&shape, 6);
        assert!(arm > intel * 4.0, "intel {intel:.1} ms vs arm {arm:.1} ms");
    }

    #[test]
    fn high_perf_speedups_in_paper_band() {
        // Fig. 16: High-Perf ≈6.2× over Intel, ≈39.7× over Arm. The bands
        // here are generous (±40 %): the shape must hold, not the digit.
        let shape = typical();
        let hp = AcceleratorModel::new(HIGH_PERF, FpgaPlatform::zc706());
        let accel_ms = hp.window_latency_ms(&shape, 6);
        let intel_x = CpuPlatform::intel_comet_lake().window_time_ms(&shape, 6) / accel_ms;
        let arm_x = CpuPlatform::arm_a57().window_time_ms(&shape, 6) / accel_ms;
        assert!((3.5..10.0).contains(&intel_x), "intel speedup {intel_x:.1}");
        assert!((24.0..60.0).contains(&arm_x), "arm speedup {arm_x:.1}");
        assert!(arm_x > intel_x, "arm speedup must exceed intel speedup");
    }

    #[test]
    fn high_perf_energy_reductions_in_paper_band() {
        // Fig. 16: ≈74× vs Intel, ≈14.6× vs Arm — note the *reversal*
        // (Intel is faster but burns far more power).
        let shape = typical();
        let hp = AcceleratorModel::new(HIGH_PERF, FpgaPlatform::zc706());
        let accel_mj = hp.window_energy_mj(&shape, 6);
        let intel_x = CpuPlatform::intel_comet_lake().window_energy_mj(&shape, 6) / accel_mj;
        let arm_x = CpuPlatform::arm_a57().window_energy_mj(&shape, 6) / accel_mj;
        assert!(
            (45.0..110.0).contains(&intel_x),
            "intel energy ratio {intel_x:.1}"
        );
        assert!((9.0..25.0).contains(&arm_x), "arm energy ratio {arm_x:.1}");
        assert!(
            intel_x > arm_x,
            "energy reduction vs Intel must exceed vs Arm (Intel's power dominates)"
        );
    }

    #[test]
    fn low_power_ratios_ordered_below_high_perf() {
        let shape = typical();
        let hp = AcceleratorModel::new(HIGH_PERF, FpgaPlatform::zc706());
        let lp = AcceleratorModel::new(LOW_POWER, FpgaPlatform::zc706());
        let intel = CpuPlatform::intel_comet_lake();
        let s_hp = intel.window_time_ms(&shape, 6) / hp.window_latency_ms(&shape, 6);
        let s_lp = intel.window_time_ms(&shape, 6) / lp.window_latency_ms(&shape, 6);
        assert!(s_hp > s_lp, "High-Perf must out-speed Low-Power");
        assert!(s_lp > 1.5, "Low-Power still beats the CPU ({s_lp:.1}×)");
    }

    #[test]
    fn work_scales_with_iterations() {
        let shape = typical();
        let w1 = CpuPlatform::window_work_ops(&shape, 1);
        let w6 = CpuPlatform::window_work_ops(&shape, 6);
        assert!(w6 > w1 * 3);
        assert!(w6 < w1 * 7);
    }
}
