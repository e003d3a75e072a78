//! The fleet's hard contract: every session's output is bitwise identical
//! to running that session alone, serially — at any pool size, any
//! admission order, and under backpressure.

use archytas_dataset::{euroc_sequences, kitti_sequences};
use archytas_faults::{ChaosKind, ChaosPlan};
use archytas_fleet::{
    run_fleet, run_session_alone, silence_chaos_panics, standard_fleet_specs, DeadlinePolicy,
    FailureCause, FleetConfig, Priority, RestartPolicy, SessionOutcome, SessionPhase,
    SessionReport, SessionSpec,
};
use std::collections::HashMap;

fn base_config() -> FleetConfig {
    FleetConfig::default()
}

fn alone_reports(specs: &[SessionSpec]) -> HashMap<String, SessionReport> {
    specs
        .iter()
        .map(|s| (s.name.clone(), run_session_alone(s, &base_config())))
        .collect()
}

#[test]
fn fleet_matches_serial_alone_at_any_pool_size_and_admission_order() {
    let specs = standard_fleet_specs(2.5);
    let alone = alone_reports(&specs);

    let mut reversed = specs.clone();
    reversed.reverse();

    for threads in [1usize, 2, 8] {
        for (order_name, order) in [("forward", &specs), ("reversed", &reversed)] {
            let config = FleetConfig {
                threads,
                ..base_config()
            };
            let report = run_fleet(order, &config);
            assert_eq!(report.threads, threads);
            assert_eq!(report.sessions.len(), order.len());
            for (spec, session) in order.iter().zip(&report.sessions) {
                assert_eq!(
                    session.outcome,
                    SessionOutcome::Completed,
                    "{} ({order_name}, {threads}t)",
                    spec.name
                );
                session.assert_bitwise_eq(&alone[&spec.name]);
            }
            // Faulted sessions really exercised the degradation ladder and
            // the runtime watchdog — identically in fleet and alone runs.
            let flaky = report
                .sessions
                .iter()
                .find(|s| s.name == "car-flaky")
                .unwrap();
            assert!(flaky.degraded_windows > 0, "fault plan had no effect");
            assert!(flaky.watchdog_windows > 0, "watchdog never engaged");
        }
    }
}

#[test]
fn backpressure_defers_low_priority_without_changing_outputs() {
    let kitti = kitti_sequences();
    let specs = vec![
        SessionSpec::new("hi-0", kitti[0].truncated(2.0), Priority::High),
        SessionSpec::new("lo-0", kitti[1].truncated(2.0), Priority::Low),
        SessionSpec::new("no-0", kitti[2].truncated(2.0), Priority::Normal),
        SessionSpec::new("lo-1", kitti[3].truncated(2.0), Priority::Low),
    ];
    let alone = alone_reports(&specs);
    let config = FleetConfig {
        threads: 2,
        defer_watermark: 1, // aggressive: park Low whenever anything else is runnable
        frames_per_quantum: 2,
        ..base_config()
    };
    let report = run_fleet(&specs, &config);
    assert!(
        report.scheduler.deferrals > 0,
        "watermark 1 with 4 sessions must actually defer"
    );
    for (spec, session) in specs.iter().zip(&report.sessions) {
        assert_eq!(session.outcome, SessionOutcome::Completed);
        session.assert_bitwise_eq(&alone[&spec.name]);
    }
}

#[test]
fn restart_ladder_is_deterministic_at_every_pool_size() {
    silence_chaos_panics();
    // car-3 panics at frame 15 but holds one restart: it must complete,
    // replaying from its checkpoint to the exact bits of a chaos-free run —
    // at every pool size and admission order, like everyone else.
    let mut specs = standard_fleet_specs(2.5);
    let victim = 5; // car-3
    specs[victim] = specs[victim]
        .clone()
        .with_chaos(ChaosPlan::new(41).with(ChaosKind::SessionPanic { frame: 15 }));
    let alone = alone_reports(&standard_fleet_specs(2.5)); // chaos-free reference bits

    let mut reversed = specs.clone();
    reversed.reverse();
    for threads in [1usize, 2, 8] {
        for order in [&specs, &reversed] {
            let report = run_fleet(
                order,
                &FleetConfig {
                    threads,
                    ..base_config()
                },
            );
            assert_eq!(report.quarantined_sessions, 0, "{threads}t");
            assert_eq!(report.session_restarts, 1, "{threads}t");
            assert!(report.scheduler.resurrections >= 1);
            for (spec, session) in order.iter().zip(&report.sessions) {
                assert_eq!(session.outcome, SessionOutcome::Completed, "{}", spec.name);
                session.assert_bitwise_eq(&alone[&spec.name]);
                if spec.name == "car-3" {
                    assert_eq!(session.restarts, 1);
                    assert_eq!(session.digest(), alone[&spec.name].digest());
                } else {
                    assert_eq!(session.restarts, 0);
                }
            }
        }
    }
}

#[test]
fn panic_without_restart_budget_quarantines_only_the_victim() {
    silence_chaos_panics();
    let mut specs = standard_fleet_specs(2.5);
    specs[1] = specs[1]
        .clone()
        .with_chaos(ChaosPlan::new(7).with(ChaosKind::SessionPanic { frame: 10 }));
    let alone = alone_reports(&standard_fleet_specs(2.5));
    let config = FleetConfig {
        restart: RestartPolicy {
            max_restarts: 0,
            ..RestartPolicy::default()
        },
        ..base_config()
    };
    for threads in [1usize, 2, 8] {
        let report = run_fleet(
            &specs,
            &FleetConfig {
                threads,
                ..config.clone()
            },
        );
        assert_eq!(report.quarantined_sessions, 1, "{threads}t");
        let victim = &report.sessions[1];
        assert_eq!(victim.outcome, SessionOutcome::Quarantined);
        assert_eq!(victim.phase, SessionPhase::Quarantined);
        let failure = victim.failure.as_ref().expect("failure record");
        assert_eq!(failure.cause, FailureCause::Panic);
        assert_eq!(failure.frame, 10);
        assert!(failure.detail.contains("chaos: injected session panic"));
        // Every non-faulted session keeps its exact serial-alone bits.
        for (spec, session) in specs.iter().zip(&report.sessions) {
            if spec.name != "car-1" {
                assert_eq!(session.outcome, SessionOutcome::Completed, "{}", spec.name);
                session.assert_bitwise_eq(&alone[&spec.name]);
            }
        }
    }
}

#[test]
fn stall_escalates_on_the_logical_clock_identically_at_every_pool_size() {
    silence_chaos_panics();
    // An 11-round stall against a 4-round budget and a 1-miss quarantine
    // threshold: the watchdog must quarantine deterministically (logical
    // clock), with the same verdict and the same completed-window prefix
    // at every pool size, in fleet and alone.
    let mut specs = standard_fleet_specs(2.5);
    specs[3] = specs[3]
        .clone()
        .with_chaos(ChaosPlan::new(5).with(ChaosKind::StepStall {
            frame: 14,
            rounds: 11,
        }));
    let config = FleetConfig {
        deadline: DeadlinePolicy {
            multiplier: 4.0,
            misses_to_quarantine: 1,
            ..DeadlinePolicy::default()
        },
        restart: RestartPolicy {
            max_restarts: 0,
            ..RestartPolicy::default()
        },
        ..base_config()
    };
    let alone_clean = alone_reports(&standard_fleet_specs(2.5));
    let alone_stalled = run_session_alone(&specs[3], &config);
    assert_eq!(alone_stalled.outcome, SessionOutcome::Quarantined);
    assert_eq!(
        alone_stalled.failure.as_ref().map(|f| f.cause),
        Some(FailureCause::DeadlineMiss)
    );
    assert!(alone_stalled.deadline_misses >= 1);
    for threads in [1usize, 2, 8] {
        let report = run_fleet(
            &specs,
            &FleetConfig {
                threads,
                ..config.clone()
            },
        );
        let victim = &report.sessions[3];
        assert_eq!(victim.outcome, SessionOutcome::Quarantined, "{threads}t");
        victim.assert_bitwise_eq(&alone_stalled);
        assert_eq!(victim.deadline_misses, alone_stalled.deadline_misses);
        assert_eq!(report.deadline_misses, alone_stalled.deadline_misses);
        for (spec, session) in specs.iter().zip(&report.sessions) {
            if spec.name != "drone-0" {
                session.assert_bitwise_eq(&alone_clean[&spec.name]);
            }
        }
    }
}

#[test]
fn stalls_and_jitter_within_budget_never_change_bits() {
    // Chaos that only shapes timing (a short stall under the deadline
    // budget, worker jitter) must leave every output bit — including the
    // victim's — identical to the chaos-free run.
    let mut specs = standard_fleet_specs(2.5);
    specs[0] = specs[0].clone().with_chaos(
        ChaosPlan::new(9)
            .with(ChaosKind::StepStall {
                frame: 8,
                rounds: 3,
            })
            .with(ChaosKind::WorkerJitter { max_spins: 400 }),
    );
    let alone = alone_reports(&standard_fleet_specs(2.5));
    for threads in [1usize, 4] {
        let report = run_fleet(
            &specs,
            &FleetConfig {
                threads,
                ..base_config()
            },
        );
        assert_eq!(report.quarantined_sessions, 0);
        assert_eq!(report.deadline_misses, 0, "3 rounds vs 8-round budget");
        for (spec, session) in specs.iter().zip(&report.sessions) {
            assert_eq!(session.outcome, SessionOutcome::Completed, "{}", spec.name);
            session.assert_bitwise_eq(&alone[&spec.name]);
        }
    }
}

#[test]
fn admission_sheds_low_priority_and_leaves_the_rest_bit_identical() {
    let kitti = kitti_sequences();
    let specs = vec![
        SessionSpec::new("keep-0", kitti[0].truncated(2.0), Priority::Normal),
        SessionSpec::new("keep-1", kitti[1].truncated(2.0), Priority::Normal),
        SessionSpec::new("keep-2", kitti[2].truncated(2.0), Priority::Low),
        SessionSpec::new("shed-0", kitti[3].truncated(2.0), Priority::Low),
        SessionSpec::new("keep-3", kitti[0].truncated(2.0), Priority::High),
    ];
    let config = FleetConfig {
        threads: 2,
        max_active: 2,
        shed_watermark: 1,
        ..base_config()
    };
    let report = run_fleet(&specs, &config);
    let by_name: HashMap<_, _> = report
        .sessions
        .iter()
        .map(|s| (s.name.as_str(), s))
        .collect();
    assert_eq!(by_name["shed-0"].outcome, SessionOutcome::Shed);
    assert!(by_name["shed-0"].estimates.is_empty());
    for name in ["keep-0", "keep-1", "keep-2", "keep-3"] {
        assert_eq!(by_name[name].outcome, SessionOutcome::Completed);
        let spec = specs.iter().find(|s| s.name == name).unwrap();
        by_name[name].assert_bitwise_eq(&run_session_alone(spec, &base_config()));
    }
}

/// The churn schedule: late joiners on the quanta clock, an early leaver,
/// mid-run priority flips in both directions, one quarantined-then-
/// restarted session that completes, and one double-panic session whose
/// quarantine is terminal.
fn churn_specs() -> Vec<SessionSpec> {
    let kitti = kitti_sequences();
    let euroc = euroc_sequences();
    vec![
        SessionSpec::new("c-anchor", kitti[0].truncated(2.5), Priority::High),
        SessionSpec::new("c-leaver", kitti[1].truncated(2.5), Priority::Normal).leaving_after(14),
        SessionSpec::new("c-flipper", kitti[2].truncated(2.5), Priority::High)
            .with_priority_flip(8, Priority::Low)
            .with_priority_flip(16, Priority::High),
        SessionSpec::new("d-late", euroc[0].truncated(2.5), Priority::Normal).arriving_at(10),
        SessionSpec::new("c-restarted", kitti[3].truncated(2.5), Priority::Normal)
            .with_chaos(ChaosPlan::new(31).with(ChaosKind::SessionPanic { frame: 12 })),
        SessionSpec::new("d-doomed", euroc[1].truncated(2.5), Priority::Low)
            .arriving_at(6)
            .with_chaos(
                ChaosPlan::new(32)
                    .with(ChaosKind::SessionPanic { frame: 9 })
                    .with(ChaosKind::SessionPanic { frame: 19 }),
            ),
        SessionSpec::new("c-late-flip", kitti[4].truncated(2.5), Priority::Low)
            .arriving_at(20)
            .leaving_after(20)
            .with_priority_flip(10, Priority::High),
    ]
}

#[test]
fn churn_schedule_matches_serial_alone_across_pools_and_orders() {
    silence_chaos_panics();
    let specs = churn_specs();
    let alone = alone_reports(&specs);

    // The serial references already pin the churn semantics: the leaver's
    // stream is truncated, the restarted session replays to clean bits,
    // the double-panic session quarantines terminally.
    assert_eq!(alone["c-leaver"].frames, 14);
    assert_eq!(alone["c-restarted"].outcome, SessionOutcome::Completed);
    assert_eq!(alone["c-restarted"].restarts, 1);
    assert_eq!(alone["d-doomed"].outcome, SessionOutcome::Quarantined);
    assert_eq!(alone["d-doomed"].restarts, 1);

    let mut reversed = specs.clone();
    reversed.reverse();
    let mut frozen: Option<HashMap<String, u64>> = None;
    for threads in [1usize, 2, 8] {
        for (order_name, order) in [("forward", &specs), ("reversed", &reversed)] {
            let config = FleetConfig {
                threads,
                ..base_config()
            };
            let report = run_fleet(order, &config);
            for (spec, session) in order.iter().zip(&report.sessions) {
                session.assert_bitwise_eq(&alone[&spec.name]);
            }
            let quarantined: Vec<&str> = report
                .sessions
                .iter()
                .filter(|s| s.outcome == SessionOutcome::Quarantined)
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(
                quarantined,
                ["d-doomed"],
                "exact quarantine set ({order_name}, {threads}t)"
            );
            assert_eq!(report.session_restarts, 2, "{order_name}, {threads}t");
            // Digests must also be identical *across* pool sizes and
            // admission orders, not only against the serial reference.
            let digests: HashMap<String, u64> = report
                .sessions
                .iter()
                .map(|s| (s.name.clone(), s.digest()))
                .collect();
            match &frozen {
                None => frozen = Some(digests),
                Some(f) => assert_eq!(*f, digests, "{order_name}, {threads}t"),
            }
        }
    }
}
