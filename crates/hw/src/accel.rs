//! The assembled accelerator model: configuration + platform + the latency,
//! resource and power models, with the paper's two named designs.

use crate::blocks::AcceleratorConfig;
use crate::latency::window_cycles;
use crate::platform::FpgaPlatform;
use crate::power::PowerModel;
use crate::resource::ResourceModel;
use archytas_mdfg::ProblemShape;

/// The paper's High-Perf design point (Tbl. 2): optimized under a 20 ms
/// latency constraint.
pub const HIGH_PERF: AcceleratorConfig = AcceleratorConfig {
    nd: 28,
    nm: 19,
    s: 97,
};

/// The paper's Low-Power design point (Tbl. 2): optimized under a 33 ms
/// latency constraint.
pub const LOW_POWER: AcceleratorConfig = AcceleratorConfig {
    nd: 21,
    nm: 8,
    s: 34,
};

/// A concrete accelerator instance on a concrete platform.
#[derive(Debug, Clone)]
pub struct AcceleratorModel {
    /// The three customization parameters.
    pub config: AcceleratorConfig,
    /// Target FPGA.
    pub platform: FpgaPlatform,
    /// Resource model (Eq. 16).
    pub resources: ResourceModel,
    /// Power model (Eq. 17).
    pub power: PowerModel,
}

impl AcceleratorModel {
    /// Builds a model of `config` on `platform` with the calibrated
    /// resource/power models.
    pub fn new(config: AcceleratorConfig, platform: FpgaPlatform) -> Self {
        let power = PowerModel::for_platform(&platform);
        Self {
            config,
            platform,
            resources: ResourceModel::calibrated(),
            power,
        }
    }

    /// Latency of one window in milliseconds (Eq. 13 at the design clock).
    pub fn window_latency_ms(&self, shape: &ProblemShape, iterations: usize) -> f64 {
        let cycles = window_cycles(shape, &self.config, iterations);
        cycles / (self.platform.clock_mhz * 1e3)
    }

    /// Full-activity power (W).
    pub fn power_w(&self) -> f64 {
        self.power.power_w(&self.config)
    }

    /// Energy of one window in millijoules.
    pub fn window_energy_mj(&self, shape: &ProblemShape, iterations: usize) -> f64 {
        self.window_latency_ms(shape, iterations) * self.power_w()
    }

    /// `true` when the design fits its platform.
    pub fn fits(&self) -> bool {
        self.resources.fits(&self.config, &self.platform)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_designs_meet_their_latency_constraints() {
        // High-Perf was optimized under 20 ms, Low-Power under 33 ms
        // (Sec. 7.4), on typical windows at the full 6 iterations.
        let shape = ProblemShape::typical();
        let hp = AcceleratorModel::new(HIGH_PERF, FpgaPlatform::zc706());
        let lp = AcceleratorModel::new(LOW_POWER, FpgaPlatform::zc706());
        let l_hp = hp.window_latency_ms(&shape, 6);
        let l_lp = lp.window_latency_ms(&shape, 6);
        assert!(l_hp <= 20.0, "High-Perf latency {l_hp:.1} ms");
        assert!(l_lp <= 33.0, "Low-Power latency {l_lp:.1} ms");
        assert!(l_hp < l_lp);
    }

    #[test]
    fn named_designs_fit_zc706() {
        assert!(AcceleratorModel::new(HIGH_PERF, FpgaPlatform::zc706()).fits());
        assert!(AcceleratorModel::new(LOW_POWER, FpgaPlatform::zc706()).fits());
    }

    #[test]
    fn high_perf_does_not_fit_kintex() {
        // The Kintex-7 160T is much smaller than the ZC706's Z-7045.
        assert!(!AcceleratorModel::new(HIGH_PERF, FpgaPlatform::kintex7_160t()).fits());
    }

    #[test]
    fn energy_is_latency_times_power() {
        let shape = ProblemShape::typical();
        let m = AcceleratorModel::new(LOW_POWER, FpgaPlatform::zc706());
        let e = m.window_energy_mj(&shape, 4);
        assert!((e - m.window_latency_ms(&shape, 4) * m.power_w()).abs() < 1e-12);
        assert!(e > 0.0);
    }

    #[test]
    fn faster_design_costs_more_power() {
        let hp = AcceleratorModel::new(HIGH_PERF, FpgaPlatform::zc706());
        let lp = AcceleratorModel::new(LOW_POWER, FpgaPlatform::zc706());
        assert!(hp.power_w() > lp.power_w());
    }
}
