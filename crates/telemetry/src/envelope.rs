//! Fleet-wide power-envelope bookkeeping.
//!
//! The CICC-style runtime reconfiguration argument (see PAPERS.md) is that
//! an accelerator fleet operates against an explicit watt budget, not just
//! a queue-depth budget. A [`PowerEnvelope`] prices every admitted session
//! at its deployed design's Eq. 17 power and answers one question during
//! admission planning: *does the next arrival still fit under the budget?*
//!
//! The envelope is evaluated once, serially, in arrival order, before any
//! worker starts — the decision is a pure function of the spec list and
//! the budget, never of runtime queue state. That is what lets the fleet
//! keep its bitwise serial-identical contract at every pool size: the same
//! sessions are shed or deferred whether one worker or eight drain the
//! batch.

use archytas_hw::{AcceleratorConfig, FpgaPlatform, PowerModel};

/// A fleet-wide watt budget priced against one deployed design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEnvelope {
    /// Total budget in watts (`f64::INFINITY` disables the envelope).
    pub budget_w: f64,
    /// Eq. 17 power of one active session's accelerator instance.
    pub session_draw_w: f64,
}

impl PowerEnvelope {
    /// An envelope pricing sessions at the full (ungated) Eq. 17 power of
    /// `design` on `platform` — the worst-case draw, so admission never
    /// over-commits the budget.
    pub fn new(budget_w: f64, design: &AcceleratorConfig, platform: &FpgaPlatform) -> Self {
        let model = PowerModel::for_platform(platform);
        Self {
            budget_w,
            session_draw_w: model.power_w(design),
        }
    }

    /// An envelope that admits everything.
    pub fn unlimited() -> Self {
        Self {
            budget_w: f64::INFINITY,
            session_draw_w: 0.0,
        }
    }

    /// Whether this envelope can ever reject anything.
    pub fn is_limited(&self) -> bool {
        self.budget_w.is_finite()
    }

    /// Whether one more concurrent session fits when `admitted` are
    /// already drawing power. Deterministic: a pure function of two
    /// integers and two constants, evaluated identically at every pool
    /// size.
    #[inline]
    pub fn fits(&self, admitted: usize) -> bool {
        if !self.is_limited() {
            return true;
        }
        (admitted as f64 + 1.0) * self.session_draw_w <= self.budget_w
    }

    /// How many sessions the budget supports concurrently
    /// (`usize::MAX` when unlimited).
    pub fn capacity(&self) -> usize {
        if !self.is_limited() {
            return usize::MAX;
        }
        if self.session_draw_w <= 0.0 {
            return usize::MAX;
        }
        (self.budget_w / self.session_draw_w).floor().max(0.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archytas_hw::HIGH_PERF;

    #[test]
    fn unlimited_always_fits() {
        let e = PowerEnvelope::unlimited();
        assert!(!e.is_limited());
        assert!(e.fits(0));
        assert!(e.fits(1_000_000));
        assert_eq!(e.capacity(), usize::MAX);
    }

    #[test]
    fn capacity_matches_fits_boundary() {
        let e = PowerEnvelope::new(10.0, &HIGH_PERF, &FpgaPlatform::zc706());
        let cap = e.capacity();
        assert!(cap >= 1, "10 W should admit at least one HIGH_PERF session");
        assert!(e.fits(cap - 1), "one below capacity must fit");
        assert!(!e.fits(cap), "at capacity the next session must not fit");
    }

    #[test]
    fn pricing_uses_full_eq17_power() {
        let e = PowerEnvelope::new(100.0, &HIGH_PERF, &FpgaPlatform::zc706());
        let m = PowerModel::for_platform(&FpgaPlatform::zc706());
        assert_eq!(e.session_draw_w.to_bits(), m.power_w(&HIGH_PERF).to_bits());
    }
}
