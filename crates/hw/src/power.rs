//! FPGA power model (paper Eq. 17):
//! `Power(nd, nm, s) = P0 + nd·Pd + nm·Pm + s·Ps`.
//!
//! The paper fits the coefficients per FPGA platform by regression against
//! Vivado's power analysis; here the ZC706 coefficients are calibrated so
//! the named designs land on the paper's power axis (Fig. 14's ≈2.5–5 W
//! band, with High-Perf ≈2 W above Low-Power, Sec. 7.4), and the larger
//! boards scale the static baseline with fabric size.

use crate::blocks::AcceleratorConfig;
use crate::platform::FpgaPlatform;

/// Linear power model coefficients (watts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Static + non-customizable dynamic power (`P0`).
    pub base_w: f64,
    /// Watts per D-type Schur MAC.
    pub per_nd_w: f64,
    /// Watts per M-type Schur MAC.
    pub per_nm_w: f64,
    /// Watts per Cholesky Update lane.
    pub per_s_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::zc706()
    }
}

impl PowerModel {
    /// The ZC706-calibrated model.
    pub fn zc706() -> Self {
        Self {
            base_w: 1.18,
            per_nd_w: 0.040,
            per_nm_w: 0.035,
            per_s_w: 0.021,
        }
    }

    /// Scales the model to another platform: static power grows with fabric
    /// capacity, per-unit dynamic power is process-, not board-, determined.
    pub fn for_platform(platform: &FpgaPlatform) -> Self {
        let zc706 = FpgaPlatform::zc706();
        let scale = platform.capacity.lut / zc706.capacity.lut;
        Self {
            base_w: 1.18 * (0.4 + 0.6 * scale),
            ..Self::zc706()
        }
    }

    /// Total power of a fully active configuration (Eq. 17).
    pub fn power_w(&self, config: &AcceleratorConfig) -> f64 {
        self.base_w
            + config.nd as f64 * self.per_nd_w
            + config.nm as f64 * self.per_nm_w
            + config.s as f64 * self.per_s_w
    }

    /// The `nd`/`nm` prefix of Eq. 17's summation:
    /// `P0 + nd·Pd + nm·Pm`, evaluated in exactly [`PowerModel::power_w`]'s
    /// operation order so that [`PowerModel::power_with_s`] on the prefix is
    /// bit-identical to the full evaluation. All coefficients are positive,
    /// so the prefix is also a monotonicity-safe lower bound on the power of
    /// every `(nd', nm', s)` with `nd' ≥ nd`, `nm' ≥ nm` — the bound the
    /// synthesizer's incumbent cuts lean on.
    #[inline]
    pub fn power_prefix_w(&self, nd: usize, nm: usize) -> f64 {
        self.base_w + nd as f64 * self.per_nd_w + nm as f64 * self.per_nm_w
    }

    /// Completes [`PowerModel::power_prefix_w`] with the lane term:
    /// `prefix + s·Ps`, the exact tail of [`PowerModel::power_w`]'s
    /// summation — `power_with_s(power_prefix_w(nd, nm), s)` returns the
    /// same bits as `power_w(&AcceleratorConfig::new(nd, nm, s))`.
    #[inline]
    pub fn power_with_s(&self, prefix_w: f64, s: usize) -> f64 {
        prefix_w + s as f64 * self.per_s_w
    }

    /// Power when the instantiated design `built` runs clock-gated down to
    /// the active configuration `active` (Sec. 6.2): the gated units keep
    /// only a small leakage fraction of their dynamic power.
    ///
    /// # Panics
    ///
    /// Panics when `active` exceeds `built` in any knob (the run-time system
    /// only ever throttles *down*).
    pub fn gated_power_w(&self, built: &AcceleratorConfig, active: &AcceleratorConfig) -> f64 {
        assert!(
            active.within(built),
            "gated configuration must be within the built design"
        );
        const LEAKAGE_FRACTION: f64 = 0.08;
        let gated_nd = (built.nd - active.nd) as f64 * self.per_nd_w;
        let gated_nm = (built.nm - active.nm) as f64 * self.per_nm_w;
        let gated_s = (built.s - active.s) as f64 * self.per_s_w;
        self.power_w(active) + LEAKAGE_FRACTION * (gated_nd + gated_nm + gated_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGH_PERF: AcceleratorConfig = AcceleratorConfig {
        nd: 28,
        nm: 19,
        s: 97,
    };
    const LOW_POWER: AcceleratorConfig = AcceleratorConfig {
        nd: 21,
        nm: 8,
        s: 34,
    };

    #[test]
    fn named_designs_match_paper_band() {
        let m = PowerModel::zc706();
        let hp = m.power_w(&HIGH_PERF);
        let lp = m.power_w(&LOW_POWER);
        // Sec. 7.4: High-Perf consumes about 2 W more than Low-Power; both
        // sit in Fig. 14's 2.5–5 W band.
        assert!((hp - lp - 2.0).abs() < 0.25, "gap {}", hp - lp);
        assert!((2.5..5.5).contains(&hp), "hp {hp}");
        assert!((2.5..5.5).contains(&lp), "lp {lp}");
    }

    #[test]
    fn split_evaluation_is_bitwise_power_w() {
        let m = PowerModel::for_platform(&FpgaPlatform::virtex7_690t());
        for nd in [1, 7, 28, 120] {
            for nm in [1, 19, 96] {
                let prefix = m.power_prefix_w(nd, nm);
                for s in [1, 34, 97, 500] {
                    let full = m.power_w(&AcceleratorConfig::new(nd, nm, s));
                    assert_eq!(m.power_with_s(prefix, s).to_bits(), full.to_bits());
                    assert!(prefix <= full, "prefix must lower-bound the total");
                }
            }
        }
    }

    #[test]
    fn power_monotone() {
        let m = PowerModel::zc706();
        assert!(m.power_w(&AcceleratorConfig::new(2, 2, 2)) < m.power_w(&HIGH_PERF));
    }

    #[test]
    fn knobs_span_2x_power() {
        // Sec. 7 intro: the design space covers ~2× power difference.
        let m = PowerModel::zc706();
        let min = m.power_w(&AcceleratorConfig::new(1, 1, 1));
        let max = m.power_w(&AcceleratorConfig::new(30, 24, 120));
        assert!(max / min > 2.0, "span {:.2}", max / min);
    }

    #[test]
    fn gating_saves_power_but_leaks() {
        let m = PowerModel::zc706();
        let gated = m.gated_power_w(&HIGH_PERF, &LOW_POWER);
        let full = m.power_w(&HIGH_PERF);
        let rebuilt = m.power_w(&LOW_POWER);
        assert!(gated < full, "gating must save power");
        assert!(
            gated > rebuilt,
            "gated design still leaks above a re-synthesized one"
        );
    }

    #[test]
    fn gating_to_self_is_identity() {
        let m = PowerModel::zc706();
        assert!((m.gated_power_w(&HIGH_PERF, &HIGH_PERF) - m.power_w(&HIGH_PERF)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "within the built design")]
    fn gating_up_is_rejected() {
        let m = PowerModel::zc706();
        let _ = m.gated_power_w(&LOW_POWER, &HIGH_PERF);
    }

    #[test]
    fn bigger_boards_have_higher_static_power() {
        let z = PowerModel::for_platform(&FpgaPlatform::zc706());
        let v = PowerModel::for_platform(&FpgaPlatform::virtex7_690t());
        let k = PowerModel::for_platform(&FpgaPlatform::kintex7_160t());
        assert!(v.base_w > z.base_w);
        assert!(k.base_w < z.base_w);
        assert!((z.base_w - 1.18).abs() < 1e-9);
    }
}
