//! The fleet's hard contract: every session's output is bitwise identical
//! to running that session alone, serially — at any pool size, any
//! admission order, and under backpressure.

use archytas_core::{Executor, Vehicle};
use archytas_dataset::{euroc_sequences, kitti_sequences, VioPipeline};
use archytas_faults::{ChaosKind, ChaosPlan, FaultKind, FaultPlan};
use archytas_fleet::{
    fleet_pipeline_config, run_fleet, run_session_alone, silence_chaos_panics,
    standard_fleet_specs, DeadlinePolicy, FailureCause, FleetConfig, FleetServices, Priority,
    RestartPolicy, SessionOutcome, SessionPhase, SessionReport, SessionSpec,
};
use std::collections::HashMap;
use std::sync::Arc;

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
fn served_session_is_the_bare_window_step_bit_for_bit() {
    // Checkpointing, chaos hooks and the deadline watchdog wrap the shared
    // window step but must add no arithmetic: on a clean stream a served
    // session equals a bare `Vehicle` loop over the same frames.
    let spec = &standard_fleet_specs(2.5)[0];
    assert!(spec.fault_plan.is_none() && spec.chaos.is_none());
    let served = run_session_alone(spec, &base_config());

    let services = FleetServices::new(&base_config());
    let executor = Executor::Accelerator {
        model: Arc::clone(&services.model),
        runtime: Some(services.runtime()),
    };
    let bare = Vehicle::new(VioPipeline::new(fleet_pipeline_config()), executor)
        .run(&spec.sequence.build().frames);
    assert!(!bare.windows.is_empty());
    assert_eq!(served.outcome, SessionOutcome::Completed);
    served.assert_bitwise_eq(&SessionReport {
        windows: bare.windows.len(),
        estimates: bare.windows.iter().map(|w| w.estimate).collect(),
        iterations: bare.windows.iter().map(|w| w.iterations).collect(),
        modelled_latency_ms: bare.total_time_ms,
        modelled_energy_mj: bare.total_energy_mj,
        ..served.clone()
    });
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
        restart: RestartPolicy { max_restarts: 0 },
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
        },
        restart: RestartPolicy { max_restarts: 0 },
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

/// Three routes, each driven by several sessions that share its frame
/// stream: early leavers at 0 frames, 6 frames and one past the stream's
/// end, full runs, mixed priorities and arrivals. Each route also carries
/// copies whose recipe differs — a fault plan (route 0), a poisoned
/// observation (route 1), a panic the restart ladder recovers from (route
/// 2) — twice each, so those share a stream among themselves too.
fn shared_route_specs() -> Vec<SessionSpec> {
    let (kitti, euroc) = (kitti_sequences(), euroc_sequences());
    let routes = [
        kitti[0].truncated(2.0),
        kitti[5].truncated(2.0),
        euroc[2].truncated(2.0),
    ];
    let mut specs = Vec::new();
    for (r, route) in routes.iter().enumerate() {
        let len = route.build().frames.len();
        let copy = |name: &str, priority| {
            SessionSpec::new(format!("r{r}-{name}"), route.clone(), priority)
        };
        let odd = match r {
            0 => copy("faulted", Priority::Normal).with_faults(FaultPlan::new(17).with(
                FaultKind::VisionDropout,
                8,
                12,
            )),
            1 => copy("poisoned", Priority::High).with_chaos(
                ChaosPlan::new(19).with(ChaosKind::PoisonedObservation { start: 8, end: 10 }),
            ),
            _ => copy("restarted", Priority::Normal)
                .with_chaos(ChaosPlan::new(23).with(ChaosKind::SessionPanic { frame: 12 })),
        };
        specs.extend([
            odd.clone().arriving_at(2),
            copy("full", Priority::High),
            copy("leave-0", Priority::Low)
                .leaving_after(0)
                .arriving_at(3),
            copy("leave-6", Priority::Normal)
                .leaving_after(6)
                .arriving_at(1)
                .with_priority_flip(3, Priority::High),
            copy("past-end", Priority::Low)
                .leaving_after(len + 1)
                .arriving_at(5),
            SessionSpec {
                name: format!("{}-twin", odd.name),
                priority: Priority::Low,
                ..odd.leaving_after(len - 3).arriving_at(7)
            },
            copy("full-late", Priority::Normal).arriving_at(9),
        ]);
    }
    specs
}

#[test]
fn sessions_sharing_a_route_match_serial_alone_across_pools_and_orders() {
    silence_chaos_panics();
    let specs = shared_route_specs();
    let alone = alone_reports(&specs);
    let len = kitti_sequences()[0].truncated(2.0).build().frames.len();
    assert_eq!(alone["r0-leave-0"].frames, 0);
    assert_eq!(alone["r0-leave-6"].frames, 6);
    assert_eq!(alone["r0-past-end"].frames, len);
    assert_eq!(alone["r0-full"].frames, len);
    assert_eq!(alone["r0-faulted-twin"].frames, len - 3);
    // The odd copies really differ from their clean siblings, so a stream
    // handed to the wrong session would show in the bits.
    assert_ne!(alone["r0-faulted"].digest(), alone["r0-full"].digest());
    assert_ne!(alone["r1-poisoned"].digest(), alone["r1-full"].digest());
    for name in ["r2-restarted", "r2-restarted-twin"] {
        assert_eq!(alone[name].outcome, SessionOutcome::Completed, "{name}");
        assert_eq!(alone[name].restarts, 1, "{name}");
    }
    alone["r2-full"].assert_bitwise_eq(&SessionReport {
        name: "r2-full".into(),
        ..alone["r2-restarted"].clone()
    });

    let mut reversed = specs.clone();
    reversed.reverse();
    let mut frozen: Option<HashMap<String, u64>> = None;
    for threads in [1usize, 2, 8] {
        for (order_name, order) in [("forward", &specs), ("reversed", &reversed)] {
            let report = run_fleet(
                order,
                &FleetConfig {
                    threads,
                    ..base_config()
                },
            );
            assert_eq!(report.session_restarts, 2, "{order_name}, {threads}t");
            for (spec, session) in order.iter().zip(&report.sessions) {
                assert_eq!(session.frames, alone[&spec.name].frames, "{}", spec.name);
                assert_eq!(
                    session.restarts, alone[&spec.name].restarts,
                    "{}",
                    spec.name
                );
                session.assert_bitwise_eq(&alone[&spec.name]);
            }
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
