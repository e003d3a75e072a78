//! Per-phase wall-time observability, hooked into `archytas-par`'s global
//! counters.
//!
//! Phase wall time is *timing*, not determinism: it belongs in the `timing`
//! half of `serve obs` run records and the human table, never in the
//! byte-compared `det` aggregates. This module wraps the counters'
//! snapshot into rows with derived shares so every consumer computes
//! percentages the same way.

use archytas_par::counters;

/// One row of the phase wall-time table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRow {
    /// Stable snake_case phase name.
    pub name: &'static str,
    /// Total attributed wall nanoseconds.
    pub wall_ns: u64,
    /// Timed scopes entered.
    pub calls: u64,
    /// Share of the total attributed time, in `[0, 1]`.
    pub share: f64,
}

/// Snapshot of every phase with at least one recorded call, in declaration
/// order, with shares of the attributed total.
pub fn phase_rows() -> Vec<PhaseRow> {
    let snap = counters::snapshot();
    let total_ns = counters::attributed_total_ns();
    snap.iter()
        .filter(|t| t.calls > 0)
        .map(|t| PhaseRow {
            name: t.name,
            wall_ns: t.ns,
            calls: t.calls,
            share: if total_ns == 0 {
                0.0
            } else {
                t.ns as f64 / total_ns as f64
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use archytas_par::counters::Phase;

    #[test]
    fn rows_reflect_recorded_phases() {
        // Counters are process-global; this is the only test in this crate
        // touching them, so no cross-test lock is needed here.
        counters::reset();
        counters::enable();
        counters::time(Phase::Factorization, || {
            std::hint::black_box((0..10_000).sum::<u64>())
        });
        counters::time(Phase::Assembly, || std::hint::black_box(1));
        counters::disable();
        let rows = phase_rows();
        counters::reset();
        assert!(rows.iter().any(|r| r.name == "factorization"));
        assert!(rows.iter().all(|r| r.calls > 0));
        let total_share: f64 = rows.iter().map(|r| r.share).sum();
        assert!((total_share - 1.0).abs() < 1e-9);
    }
}
