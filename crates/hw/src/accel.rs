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

/// An [`AcceleratorModel`] with a memoized window-latency evaluation.
///
/// Sweeps like Fig. 16 evaluate the same model on thousands of windows, but
/// the latency model depends only on the window's [`ProblemShape`] and the
/// iteration count — and real traces repeat shapes constantly. This wrapper
/// runs `window_cycles` exactly once per distinct `(shape, iterations)` key
/// (energy derives from the cached latency), is safe to share across the
/// `archytas-par` workers, and exposes hit/miss counters so tests can assert
/// the exactly-once property.
#[derive(Debug)]
pub struct CachedAcceleratorModel {
    model: AcceleratorModel,
    latency: archytas_par::Memo<(ProblemShape, usize), f64>,
}

// The fleet serving layer hands one cached model to every session of the
// same deployed design; losing `Sync` here would silently serialize it.
const _: fn() = || {
    fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<CachedAcceleratorModel>();
};

impl CachedAcceleratorModel {
    /// Wraps `model` with an empty cache.
    pub fn new(model: AcceleratorModel) -> Self {
        Self {
            model,
            latency: archytas_par::Memo::new(),
        }
    }

    /// Wraps `model` for cross-thread sharing: hand clones of the returned
    /// `Arc` to every consumer of the same deployed design (fleet sessions,
    /// sweep workers) and the latency model fills exactly once per distinct
    /// `(shape, iterations)` key fleet-wide.
    pub fn shared(model: AcceleratorModel) -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self::new(model))
    }

    /// The wrapped model.
    pub fn model(&self) -> &AcceleratorModel {
        &self.model
    }

    /// Memoized [`AcceleratorModel::window_latency_ms`].
    pub fn window_latency_ms(&self, shape: &ProblemShape, iterations: usize) -> f64 {
        self.latency.get_or_compute((*shape, iterations), || {
            self.model.window_latency_ms(shape, iterations)
        })
    }

    /// Memoized [`AcceleratorModel::window_energy_mj`] (reuses the cached
    /// latency; power is shape-independent).
    pub fn window_energy_mj(&self, shape: &ProblemShape, iterations: usize) -> f64 {
        self.window_latency_ms(shape, iterations) * self.model.power_w()
    }

    /// Latency-model evaluations actually performed (== distinct
    /// `(shape, iterations)` keys requested).
    pub fn evaluations(&self) -> usize {
        self.latency.misses()
    }

    /// Lookups served from the cache without evaluation.
    pub fn cache_hits(&self) -> usize {
        self.latency.hits()
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

    #[test]
    fn cached_model_matches_and_evaluates_once() {
        let model = AcceleratorModel::new(HIGH_PERF, FpgaPlatform::zc706());
        let cached = CachedAcceleratorModel::new(model.clone());
        let shapes = [
            ProblemShape::typical(),
            ProblemShape {
                features: 42,
                ..ProblemShape::typical()
            },
        ];
        for _ in 0..3 {
            for s in &shapes {
                assert_eq!(
                    cached.window_latency_ms(s, 6).to_bits(),
                    model.window_latency_ms(s, 6).to_bits()
                );
                assert_eq!(
                    cached.window_energy_mj(s, 6).to_bits(),
                    model.window_energy_mj(s, 6).to_bits()
                );
            }
        }
        // 2 shapes × 1 iteration count, despite 12 cache lookups (energy
        // routes through the latency memo too).
        assert_eq!(cached.evaluations(), 2);
        assert_eq!(cached.cache_hits(), 10);
        // A new iteration count is a new key.
        cached.window_latency_ms(&shapes[0], 4);
        assert_eq!(cached.evaluations(), 3);
    }

    #[test]
    fn shared_model_fills_exactly_once_under_concurrency() {
        // Many threads race to fill the same keys through one Arc-shared
        // model: every key must still be evaluated exactly once, and every
        // lookup must return the bitwise value of an unshared evaluation.
        let reference = AcceleratorModel::new(HIGH_PERF, FpgaPlatform::zc706());
        let cached = CachedAcceleratorModel::shared(reference.clone());
        let shapes: Vec<ProblemShape> = (0..8)
            .map(|i| ProblemShape {
                features: 40 + 20 * i,
                ..ProblemShape::typical()
            })
            .collect();
        // 512 lookups over 8 distinct shapes, forced onto 8 workers.
        let jobs: Vec<usize> = (0..512).collect();
        let pool = archytas_par::Pool::with_threads(8).with_serial_threshold(0);
        let model = std::sync::Arc::clone(&cached);
        let got = pool.par_map(&jobs, |&j| {
            let s = &shapes[j % shapes.len()];
            model.window_latency_ms(s, 6)
        });
        for (j, v) in got.iter().enumerate() {
            let want = reference.window_latency_ms(&shapes[j % shapes.len()], 6);
            assert_eq!(v.to_bits(), want.to_bits(), "lookup {j}");
        }
        assert_eq!(
            cached.evaluations(),
            shapes.len(),
            "exactly one fill per key"
        );
        assert_eq!(cached.cache_hits(), 512 - shapes.len());
    }
}
