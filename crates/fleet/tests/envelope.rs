//! Power-envelope admission: a fleet-wide watt budget sheds Low and
//! defers Normal sessions *before* queue watermarks engage — and because
//! the envelope is priced during serial admission planning, the decision
//! set is identical at every pool size, and every surviving session keeps
//! its exact serial-alone bits.

use archytas_dataset::{euroc_sequences, kitti_sequences};
use archytas_fleet::{
    fleet_platform, run_fleet, run_session_alone, FleetConfig, PowerEnvelope, Priority,
    SessionOutcome, SessionSpec, FLEET_DESIGN,
};
use std::collections::HashMap;

/// A budget that fits exactly `n` concurrent sessions of the deployed
/// design (HIGH_PERF on zc706), with a sliver of headroom so float pricing
/// can't flap on the boundary.
fn watts_for(n: usize) -> f64 {
    let draw = PowerEnvelope::new(f64::INFINITY, &FLEET_DESIGN, &fleet_platform()).session_draw_w;
    n as f64 * draw + 1e-9
}

/// Six sessions, mixed classes, arrival order chosen so the envelope
/// boundary lands mid-batch.
fn envelope_specs() -> Vec<SessionSpec> {
    let kitti = kitti_sequences();
    let euroc = euroc_sequences();
    vec![
        SessionSpec::new("hi-0", kitti[0].truncated(2.0), Priority::High),
        SessionSpec::new("no-0", kitti[1].truncated(2.0), Priority::Normal),
        SessionSpec::new("lo-0", kitti[2].truncated(2.0), Priority::Low),
        SessionSpec::new("no-1", euroc[0].truncated(2.0), Priority::Normal),
        SessionSpec::new("lo-1", kitti[3].truncated(2.0), Priority::Low),
        SessionSpec::new("hi-1", euroc[1].truncated(2.0), Priority::High),
    ]
}

#[test]
fn tight_envelope_sheds_the_same_sessions_at_every_pool_size() {
    let specs = envelope_specs();
    let base = FleetConfig::default();
    let config = FleetConfig {
        power_envelope_w: watts_for(2),
        ..base.clone()
    };
    // Serial-alone references bypass admission, so the envelope is
    // irrelevant to the bits a surviving session must reproduce.
    let alone: HashMap<String, _> = specs
        .iter()
        .map(|s| (s.name.clone(), run_session_alone(s, &base)))
        .collect();

    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        let report = run_fleet(
            &specs,
            &FleetConfig {
                threads,
                ..config.clone()
            },
        );
        // Budget fits 2: hi-0 and no-0 admit; both Lows shed; no-1 defers;
        // hi-1 (safety-critical) admits past the budget.
        assert_eq!(report.envelope.capacity(), 2, "{threads}t");
        assert_eq!(report.shed_sessions, 2, "{threads}t");
        assert_eq!(report.deferred_sessions, 1, "{threads}t");
        assert!(
            report.scheduler.envelope_deferrals >= 1,
            "{threads}t: deferred session never routed through the parked queue"
        );
        let by_name: HashMap<_, _> = report
            .sessions
            .iter()
            .map(|s| (s.name.clone(), s.clone()))
            .collect();
        for name in ["lo-0", "lo-1"] {
            assert_eq!(by_name[name].outcome, SessionOutcome::Shed, "{threads}t");
            assert!(by_name[name].estimates.is_empty());
        }
        for name in ["hi-0", "no-0", "no-1", "hi-1"] {
            assert_eq!(
                by_name[name].outcome,
                SessionOutcome::Completed,
                "{name} ({threads}t)"
            );
            by_name[name].assert_bitwise_eq(&alone[name]);
        }
        reports.push(report);
    }

    // The folded aggregates — and the watts they imply — are byte-identical
    // between the 1-worker and 4-worker runs.
    let (one, four) = (&reports[0], &reports[1]);
    assert_eq!(one.telemetry, four.telemetry);
    assert_eq!(one.fleet_power_w.to_bits(), four.fleet_power_w.to_bits());
    assert!(one.fleet_power_w > 0.0);
    // Shed sessions contribute nothing: only the four survivors fold in.
    assert_eq!(one.telemetry.fleet.sessions, 4);
}

#[test]
fn sub_single_session_budget_still_serves_high_priority() {
    let kitti = kitti_sequences();
    let specs = vec![
        SessionSpec::new("lo", kitti[0].truncated(1.5), Priority::Low),
        SessionSpec::new("no", kitti[1].truncated(1.5), Priority::Normal),
        SessionSpec::new("hi", kitti[2].truncated(1.5), Priority::High),
    ];
    let base = FleetConfig::default();
    let config = FleetConfig {
        // Below one session's draw: capacity 0.
        power_envelope_w: watts_for(1) / 2.0,
        ..base.clone()
    };
    let alone: HashMap<String, _> = specs
        .iter()
        .map(|s| (s.name.clone(), run_session_alone(s, &base)))
        .collect();
    for threads in [1usize, 2] {
        let report = run_fleet(
            &specs,
            &FleetConfig {
                threads,
                ..config.clone()
            },
        );
        assert_eq!(report.envelope.capacity(), 0, "{threads}t");
        let by_name: HashMap<_, _> = report
            .sessions
            .iter()
            .map(|s| (s.name.clone(), s))
            .collect();
        assert_eq!(by_name["lo"].outcome, SessionOutcome::Shed, "{threads}t");
        for name in ["no", "hi"] {
            assert_eq!(
                by_name[name].outcome,
                SessionOutcome::Completed,
                "{name} ({threads}t)"
            );
            by_name[name].assert_bitwise_eq(&alone[name]);
        }
        // Normal rode the deferred path; High started immediately.
        assert_eq!(report.deferred_sessions, 1, "{threads}t");
    }
}

#[test]
fn unlimited_envelope_changes_nothing() {
    let specs = envelope_specs();
    let base = FleetConfig::default();
    let explicit = run_fleet(
        &specs,
        &FleetConfig {
            power_envelope_w: f64::INFINITY,
            threads: 2,
            ..base.clone()
        },
    );
    assert_eq!(explicit.shed_sessions, 0);
    assert_eq!(explicit.deferred_sessions, 0);
    assert_eq!(explicit.scheduler.envelope_deferrals, 0);
    assert!(!explicit.envelope.is_limited());
    for session in &explicit.sessions {
        assert_eq!(session.outcome, SessionOutcome::Completed);
    }
}
