//! FPGA resource model (paper Eq. 16):
//! `Res(nd, nm, s) = R0 + nd·Rd + nm·Rm + s·Rs`, independently for each of
//! LUT / FF / BRAM / DSP.
//!
//! The coefficients below are calibrated so that the two designs named in
//! the paper's Tbl. 2 — High-Perf `(nd, nm, s) = (28, 19, 97)` and Low-Power
//! `(21, 8, 34)` — reproduce the table's absolute consumptions on the ZC706
//! to within rounding (DSPs exactly: 849 and 442).

use crate::blocks::AcceleratorConfig;
use crate::platform::{FpgaPlatform, ResourceKind, ResourceVector, RESOURCE_KINDS};

/// Per-unit resource cost of the three customizable blocks plus the fixed
/// baseline (`R0`).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceModel {
    /// Fixed cost of the non-customizable logic.
    pub base: ResourceVector,
    /// Cost of one D-type Schur MAC.
    pub per_nd: ResourceVector,
    /// Cost of one M-type Schur MAC.
    pub per_nm: ResourceVector,
    /// Cost of one Cholesky Update lane.
    pub per_s: ResourceVector,
}

impl Default for ResourceModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

impl ResourceModel {
    /// The Tbl. 2-calibrated model (see module docs).
    pub fn calibrated() -> Self {
        Self {
            base: ResourceVector::new(55_832.0, 85_931.0, 45.5, 66.0),
            per_nd: ResourceVector::new(950.0, 1_120.0, 2.0, 8.0),
            per_nm: ResourceVector::new(800.0, 900.0, 3.0, 9.0),
            per_s: ResourceVector::new(400.0, 295.0, 1.0, 4.0),
        }
    }

    /// Total resources of a configuration (Eq. 16).
    #[inline]
    pub fn resources(&self, config: &AcceleratorConfig) -> ResourceVector {
        self.base
            .plus(&self.per_nd.times(config.nd as f64))
            .plus(&self.per_nm.times(config.nm as f64))
            .plus(&self.per_s.times(config.s as f64))
    }

    /// `true` when the configuration fits the platform in *all four*
    /// resource kinds (Sec. 5: exceeding even one means the design cannot be
    /// instantiated).
    #[inline]
    pub fn fits(&self, config: &AcceleratorConfig, platform: &FpgaPlatform) -> bool {
        self.resources(config).fits(&platform.capacity)
    }

    /// Largest `s ∈ 1..=s_max` for which `(nd, nm, s)` fits the platform,
    /// or 0 when no lane count fits — exactly the value a descending
    /// [`ResourceModel::fits`] scan would find, in O(1) instead of
    /// O(`s_max`).
    ///
    /// Eq. 16 is linear with non-negative per-lane cost, so feasibility is
    /// monotone in `s`: an algebraic estimate (the least `headroom /
    /// per-lane` over the four kinds, capped at `s_max` and truncated toward
    /// zero — a saturating cast, so a negative headroom gives 0) lands
    /// within a step or two of the boundary, and a short fix-up walk against
    /// the *same* `fits` predicate the scan uses makes the result exact — no
    /// float-division rounding can shift it. The truncating cast stands in
    /// for `floor`, which baseline x86-64 (no SSE4.1 `roundsd`) turns into a
    /// libm call per resource kind.
    #[inline]
    pub fn max_feasible_s(
        &self,
        nd: usize,
        nm: usize,
        platform: &FpgaPlatform,
        s_max: usize,
    ) -> usize {
        if s_max == 0 {
            return 0;
        }
        let partial = self
            .base
            .plus(&self.per_nd.times(nd as f64))
            .plus(&self.per_nm.times(nm as f64));
        let mut est = s_max as f64;
        for k in RESOURCE_KINDS {
            let per = self.per_s.get(k);
            if per > 0.0 {
                est = est.min((platform.capacity.get(k) - partial.get(k)) / per);
            }
        }
        let mut s = est as usize;
        while s < s_max && self.fits(&AcceleratorConfig::new(nd, nm, s + 1), platform) {
            s += 1;
        }
        while s > 0 && !self.fits(&AcceleratorConfig::new(nd, nm, s), platform) {
            s -= 1;
        }
        s
    }

    /// Utilization report: `(kind, absolute, fraction)` per resource.
    pub fn utilization(
        &self,
        config: &AcceleratorConfig,
        platform: &FpgaPlatform,
    ) -> Vec<(ResourceKind, f64, f64)> {
        let r = self.resources(config);
        RESOURCE_KINDS
            .iter()
            .map(|&k| (k, r.get(k), platform.utilization(k, r.get(k))))
            .collect()
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
    fn table2_high_perf_reproduced() {
        let m = ResourceModel::calibrated();
        let r = m.resources(&HIGH_PERF);
        assert!((r.lut - 136_432.0).abs() < 150.0, "LUT {}", r.lut);
        assert!((r.ff - 163_006.0).abs() < 150.0, "FF {}", r.ff);
        assert!((r.bram - 255.5).abs() < 2.0, "BRAM {}", r.bram);
        assert_eq!(r.dsp, 849.0, "DSP exact");
    }

    #[test]
    fn table2_low_power_reproduced() {
        let m = ResourceModel::calibrated();
        let r = m.resources(&LOW_POWER);
        assert!((r.lut - 95_777.0).abs() < 150.0, "LUT {}", r.lut);
        assert!((r.ff - 126_670.0).abs() < 150.0, "FF {}", r.ff);
        assert!((r.bram - 146.0).abs() < 2.0, "BRAM {}", r.bram);
        assert_eq!(r.dsp, 442.0, "DSP exact");
    }

    #[test]
    fn table2_utilization_percentages() {
        let m = ResourceModel::calibrated();
        let p = FpgaPlatform::zc706();
        let util = m.utilization(&HIGH_PERF, &p);
        let frac = |kind: ResourceKind| util.iter().find(|(k, _, _)| *k == kind).unwrap().2;
        assert!((frac(ResourceKind::Lut) - 0.6241).abs() < 0.002);
        assert!((frac(ResourceKind::Ff) - 0.3728).abs() < 0.002);
        assert!((frac(ResourceKind::Bram) - 0.4688).abs() < 0.005);
        assert!((frac(ResourceKind::Dsp) - 0.9433).abs() < 0.001);
    }

    #[test]
    fn both_designs_fit_zc706() {
        let m = ResourceModel::calibrated();
        let p = FpgaPlatform::zc706();
        assert!(m.fits(&HIGH_PERF, &p));
        assert!(m.fits(&LOW_POWER, &p));
    }

    #[test]
    fn high_perf_is_dsp_limited() {
        // Sec. 7.4: "High-Perf is ultimately limited by the DSP resource" —
        // one more D-type MAC must blow the DSP budget before any other.
        let m = ResourceModel::calibrated();
        let p = FpgaPlatform::zc706();
        let bigger = AcceleratorConfig::new(HIGH_PERF.nd + 7, HIGH_PERF.nm, HIGH_PERF.s);
        let r = m.resources(&bigger);
        assert!(r.dsp > p.capacity.dsp, "DSP exceeded first");
        assert!(r.lut < p.capacity.lut && r.ff < p.capacity.ff && r.bram < p.capacity.bram);
    }

    /// The descending [`ResourceModel::fits`] scan `max_feasible_s` must
    /// reproduce.
    fn descending_scan(
        m: &ResourceModel,
        nd: usize,
        nm: usize,
        p: &FpgaPlatform,
        s_max: usize,
    ) -> usize {
        (1..=s_max)
            .rev()
            .find(|&s| m.fits(&AcceleratorConfig::new(nd, nm, s), p))
            .unwrap_or(0)
    }

    #[test]
    fn max_feasible_s_matches_descending_scan() {
        let m = ResourceModel::calibrated();
        // Each board with its synthesizer lattice (`archytas_core::knob_bounds`:
        // the ZC706's 30 × 24 × 125 scaled by DSP capacity). Every `(nd, nm)`
        // row is checked at the board's own `s` bound, at half of it and at a
        // small cap; the sampled rows beyond the lattice add rows where no
        // lane count fits and caps far above the feasible range.
        for (platform, (nd_max, nm_max, s_max)) in [
            (FpgaPlatform::zc706(), (30, 24, 125)),
            (FpgaPlatform::kintex7_160t(), (20, 16, 83)),
            (FpgaPlatform::virtex7_690t(), (120, 96, 500)),
        ] {
            for nd in 1..=nd_max {
                for nm in 1..=nm_max {
                    for cap in [s_max, s_max / 2, 7] {
                        assert_eq!(
                            m.max_feasible_s(nd, nm, &platform, cap),
                            descending_scan(&m, nd, nm, &platform, cap),
                            "({nd},{nm}) on {} with s cap {cap}",
                            platform.name
                        );
                    }
                }
            }
            for nd in [1, 8, 21, 28, 60, 120, 400] {
                for nm in [1, 4, 8, 19, 50, 96, 400] {
                    for cap in [0, 1, 34, 125, 500] {
                        assert_eq!(
                            m.max_feasible_s(nd, nm, &platform, cap),
                            descending_scan(&m, nd, nm, &platform, cap),
                            "({nd},{nm}) on {} with s cap {cap}",
                            platform.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resources_monotone_in_knobs() {
        let m = ResourceModel::calibrated();
        let small = m.resources(&AcceleratorConfig::new(1, 1, 1));
        let big = m.resources(&AcceleratorConfig::new(10, 10, 10));
        for k in RESOURCE_KINDS {
            assert!(big.get(k) > small.get(k));
        }
    }

    #[test]
    fn knobs_span_resource_range() {
        // Sec. 7.2: overall resource consumption varies by roughly 3×
        // across the knob range.
        let m = ResourceModel::calibrated();
        let min = m.resources(&AcceleratorConfig::new(1, 1, 1));
        let max = m.resources(&AcceleratorConfig::new(30, 24, 120));
        let ratio = max.dsp / min.dsp;
        assert!(ratio > 2.5, "DSP span {ratio:.2}× too small");
    }
}
