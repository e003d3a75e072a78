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
    /// O(`s_max`). A one-row [`RowWalk`]; a caller visiting consecutive
    /// `nm` rows steps one walk instead.
    #[inline]
    pub fn max_feasible_s(
        &self,
        nd: usize,
        nm: usize,
        platform: &FpgaPlatform,
        s_max: usize,
    ) -> usize {
        self.row_limits(platform).walk(nd, nm).max_s(s_max)
    }

    /// Eq. 16 against one platform in half-resource units, the integer
    /// form of [`ResourceModel::fits`] that [`RowWalk`]s step through.
    ///
    /// Precondition (`debug_assert`ed): every coefficient and capacity is a
    /// multiple of ½ below 2⁵², as [`ResourceModel::calibrated`] is on all
    /// three boards. Every partial sum of `fits` at lattice-sized knobs is
    /// then a multiple of ½ far below 2⁵², so the f64 sums are exact and
    /// the integer predicate is the same predicate.
    pub fn row_limits(&self, platform: &FpgaPlatform) -> RowLimits {
        let mut limits = RowLimits {
            headroom: [0; 4],
            per_nd: [0; 4],
            per_nm: [0; 4],
            lane: [0; 4],
            step_quot: [0; 4],
            step_rem: [0; 4],
        };
        for (i, k) in RESOURCE_KINDS.into_iter().enumerate() {
            let lane = half_units(self.per_s.get(k));
            let per_nm = half_units(self.per_nm.get(k));
            debug_assert!(lane >= 0, "negative per-lane {k} cost");
            limits.headroom[i] =
                half_units(platform.capacity.get(k)) - half_units(self.base.get(k));
            limits.per_nd[i] = half_units(self.per_nd.get(k));
            limits.per_nm[i] = per_nm;
            limits.lane[i] = lane;
            // A kind with no per-lane cost keeps its headroom itself as
            // the quotient (remainder 0): it bounds no `s`, and only its
            // sign matters.
            (limits.step_quot[i], limits.step_rem[i]) = if lane > 0 {
                (per_nm.div_euclid(lane), per_nm.rem_euclid(lane))
            } else {
                (per_nm, 0)
            };
        }
        limits
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

/// `x` in half-resource units. Exact when `x` is a multiple of ½ below
/// 2⁵² ([`ResourceModel::row_limits`]'s precondition).
#[inline]
fn half_units(x: f64) -> i64 {
    let half = 2.0 * x;
    debug_assert!(
        half.fract() == 0.0 && half.abs() < 2f64.powi(53),
        "{x} is not a multiple of 1/2 below 2^52"
    );
    half as i64
}

/// [`ResourceModel::row_limits`]: per resource kind, in half-resource
/// units, the platform's headroom over the fixed logic, the `nd` and `nm`
/// unit costs, the per-lane cost, and the per-lane quotient and remainder
/// of one `nm` step.
#[derive(Debug, Clone)]
pub struct RowLimits {
    headroom: [i64; 4],
    per_nd: [i64; 4],
    per_nm: [i64; 4],
    lane: [i64; 4],
    step_quot: [i64; 4],
    step_rem: [i64; 4],
}

impl RowLimits {
    /// Starts a walk at row `(nd, nm)`: one division per resource kind.
    #[inline]
    pub fn walk(&self, nd: usize, nm: usize) -> RowWalk {
        let mut walk = RowWalk {
            quot: [0; 4],
            rem: [0; 4],
            lane: self.lane,
            step_quot: self.step_quot,
            step_rem: self.step_rem,
        };
        for i in 0..4 {
            let room = self.headroom[i] - nd as i64 * self.per_nd[i] - nm as i64 * self.per_nm[i];
            (walk.quot[i], walk.rem[i]) = if self.lane[i] > 0 {
                (room.div_euclid(self.lane[i]), room.rem_euclid(self.lane[i]))
            } else {
                (room, 0)
            };
        }
        walk
    }
}

/// The exact feasible-`s` limit of consecutive `nm` rows of one `nd`
/// stripe. Per resource kind it keeps `⌊room / lane⌋` and its remainder,
/// where `room` is the half-unit headroom left at `(nd, nm, 0)`; a step to
/// `nm + 1` updates both by additions, so a stripe pays one division per
/// kind, at its first row.
#[derive(Debug, Clone, Copy)]
pub struct RowWalk {
    quot: [i64; 4],
    rem: [i64; 4],
    lane: [i64; 4],
    step_quot: [i64; 4],
    step_rem: [i64; 4],
}

impl RowWalk {
    /// Largest `s ∈ 1..=s_max` for which the current row fits, or 0 when no
    /// lane count fits: `(nd, nm, s)` fits exactly when `s · lane ≤ room`
    /// in every kind.
    #[inline]
    pub fn max_s(&self, s_max: usize) -> usize {
        let mut limit = i64::try_from(s_max).unwrap_or(i64::MAX);
        for i in 0..4 {
            if self.lane[i] > 0 {
                limit = limit.min(self.quot[i]);
            } else if self.quot[i] < 0 {
                return 0;
            }
        }
        limit.max(0) as usize
    }

    /// Steps to row `nm + 1`: `room` falls by the `nm` cost, so each
    /// quotient falls by the step's quotient, plus one when the remainder
    /// borrows.
    #[inline]
    pub fn next_row(&mut self) {
        for i in 0..4 {
            self.quot[i] -= self.step_quot[i];
            self.rem[i] -= self.step_rem[i];
            if self.rem[i] < 0 {
                self.rem[i] += self.lane[i];
                self.quot[i] -= 1;
            }
        }
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
        // small cap, both by a fresh walk and by one walk stepped along the
        // stripe; the sampled rows beyond the lattice add rows where no lane
        // count fits and caps far above the feasible range.
        for (platform, (nd_max, nm_max, s_max)) in [
            (FpgaPlatform::zc706(), (30, 24, 125)),
            (FpgaPlatform::kintex7_160t(), (20, 16, 83)),
            (FpgaPlatform::virtex7_690t(), (120, 96, 500)),
        ] {
            let limits = m.row_limits(&platform);
            for nd in 1..=nd_max {
                let mut walk = limits.walk(nd, 1);
                for nm in 1..=nm_max {
                    for cap in [s_max, s_max / 2, 7] {
                        let want = descending_scan(&m, nd, nm, &platform, cap);
                        assert_eq!(
                            m.max_feasible_s(nd, nm, &platform, cap),
                            want,
                            "({nd},{nm}) on {} with s cap {cap}",
                            platform.name
                        );
                        assert_eq!(
                            walk.max_s(cap),
                            want,
                            "stepped ({nd},{nm}) on {} with s cap {cap}",
                            platform.name
                        );
                    }
                    walk.next_row();
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

    /// [`ResourceModel::row_limits`]'s precondition: the calibrated
    /// coefficients and the three boards' capacities are multiples of ½
    /// below 2⁵², so half-units hold them exactly.
    #[test]
    fn calibrated_model_and_boards_are_exact_in_half_units() {
        let exact = |x: f64| (2.0 * x).fract() == 0.0 && x.abs() < 2f64.powi(52);
        let m = ResourceModel::calibrated();
        for platform in [
            FpgaPlatform::zc706(),
            FpgaPlatform::kintex7_160t(),
            FpgaPlatform::virtex7_690t(),
        ] {
            for v in [&m.base, &m.per_nd, &m.per_nm, &m.per_s, &platform.capacity] {
                for k in RESOURCE_KINDS {
                    assert!(
                        exact(v.get(k)),
                        "{k} amount {} on {}",
                        v.get(k),
                        platform.name
                    );
                }
            }
        }
        // BRAM's base is a half, so whole units would not do.
        assert_eq!(m.base.bram.fract(), 0.5);
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
