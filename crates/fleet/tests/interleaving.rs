//! No cross-session leakage through the runtime layer: `IterCounter`,
//! `RuntimeWatchdog`, and full `RuntimeSystem` instances produce the same
//! decision streams whether sessions step alone or interleaved in any
//! order — including when every session shares one `Arc<GatingTable>`.

use archytas_core::{GatingTable, IterCounter, IterPolicy, RuntimeDecision, RuntimeSystem};
use archytas_dataset::kitti_sequences;
use archytas_faults::{ChaosKind, ChaosPlan};
use archytas_fleet::{
    run_fleet, run_session_alone, silence_chaos_panics, FleetConfig, Priority, SessionOutcome,
    SessionSpec,
};
use archytas_hw::{FpgaPlatform, HIGH_PERF};
use archytas_mdfg::ProblemShape;
use std::sync::Arc;

/// Per-session synthetic workload: (feature count, healthy?) per window.
/// Each session has a distinct rhythm so leakage would be visible; session
/// 1 goes unhealthy mid-stream to exercise the watchdog.
fn streams() -> Vec<Vec<(usize, bool)>> {
    (0..4)
        .map(|s| {
            (0..40)
                .map(|w| {
                    let features = 40 + 37 * s + (w * (7 + s)) % 211;
                    let healthy = !(s == 1 && (12..18).contains(&w));
                    (features, healthy)
                })
                .collect()
        })
        .collect()
}

fn fresh_runtime(gating: Option<&Arc<GatingTable>>) -> RuntimeSystem {
    let shape = ProblemShape::typical();
    let platform = FpgaPlatform::zc706();
    match gating {
        Some(g) => {
            RuntimeSystem::with_shared_gating(Arc::clone(g), &platform, IterPolicy::default_table())
        }
        None => RuntimeSystem::new(
            HIGH_PERF,
            &shape,
            2.5,
            &platform,
            IterPolicy::default_table(),
        ),
    }
}

/// Decision stream of one session stepping alone, plus per-window watchdog
/// engagement.
fn alone_stream(stream: &[(usize, bool)]) -> Vec<(RuntimeDecision, bool)> {
    let mut rt = fresh_runtime(None);
    stream
        .iter()
        .map(|&(f, h)| {
            let d = rt.step_with_health(f, h);
            (d, rt.watchdog().engaged())
        })
        .collect()
}

/// Steps all sessions under an arbitrary interleave order given by
/// `schedule` (a sequence of session indices; each session consumes its
/// own stream in order).
fn interleaved(
    streams: &[Vec<(usize, bool)>],
    schedule: impl Iterator<Item = usize>,
    gating: Option<&Arc<GatingTable>>,
) -> Vec<Vec<(RuntimeDecision, bool)>> {
    let mut runtimes: Vec<RuntimeSystem> = streams.iter().map(|_| fresh_runtime(gating)).collect();
    let mut cursors = vec![0usize; streams.len()];
    let mut out: Vec<Vec<(RuntimeDecision, bool)>> = streams
        .iter()
        .map(|s| Vec::with_capacity(s.len()))
        .collect();
    for s in schedule {
        if cursors[s] >= streams[s].len() {
            continue;
        }
        let (f, h) = streams[s][cursors[s]];
        cursors[s] += 1;
        let d = runtimes[s].step_with_health(f, h);
        out[s].push((d, runtimes[s].watchdog().engaged()));
    }
    assert!(
        cursors.iter().zip(streams).all(|(c, s)| *c == s.len()),
        "schedule must drain every stream"
    );
    out
}

#[test]
fn round_robin_interleaving_matches_alone() {
    let streams = streams();
    let expected: Vec<_> = streams.iter().map(|s| alone_stream(s)).collect();
    let n = streams.len();
    let total: usize = streams.iter().map(Vec::len).sum();
    let schedule = (0..total * n).map(move |i| i % n);
    let got = interleaved(&streams, schedule, None);
    assert_eq!(got, expected);
}

#[test]
fn bursty_and_skewed_interleavings_match_alone() {
    let streams = streams();
    let expected: Vec<_> = streams.iter().map(|s| alone_stream(s)).collect();
    // Bursty: drain session 3 fully, then 5-window bursts of the rest in a
    // rotating pattern.
    let mut schedule = vec![3usize; streams[3].len()];
    for round in 0..streams.iter().map(Vec::len).max().unwrap() {
        for s in [1usize, 0, 2] {
            for _ in 0..5 {
                let _ = round;
                schedule.push(s);
            }
        }
    }
    let got = interleaved(&streams, schedule.into_iter(), None);
    assert_eq!(got, expected);
}

#[test]
fn shared_gating_table_interleaving_matches_owned_alone() {
    // All sessions share ONE gating table (the fleet configuration);
    // decisions must still be bitwise those of private runtimes.
    let streams = streams();
    let expected: Vec<_> = streams.iter().map(|s| alone_stream(s)).collect();
    let gating = Arc::new(GatingTable::build(
        &HIGH_PERF,
        &ProblemShape::typical(),
        2.5,
        &FpgaPlatform::zc706(),
    ));
    let n = streams.len();
    let total: usize = streams.iter().map(Vec::len).sum();
    let schedule = (0..total * n).map(move |i| i % n);
    let got = interleaved(&streams, schedule, Some(&gating));
    assert_eq!(got, expected);
}

#[test]
fn watchdog_engagement_never_leaks_between_sessions() {
    let streams = streams();
    let n = streams.len();
    let total: usize = streams.iter().map(Vec::len).sum();
    let schedule = (0..total * n).map(move |i| i % n);
    let got = interleaved(&streams, schedule, None);
    // Session 1 is the only unhealthy stream: it must engage its watchdog,
    // and no other session may ever see an engaged watchdog.
    assert!(got[1].iter().any(|(_, engaged)| *engaged));
    for (s, decisions) in got.iter().enumerate() {
        if s != 1 {
            assert!(
                decisions.iter().all(|(_, engaged)| !*engaged),
                "session {s} caught session 1's watchdog"
            );
        }
    }
}

#[test]
fn racing_panics_on_a_saturated_pool_leave_survivors_bit_exact() {
    // Unwind-safety under pressure: four sessions panic at *different*
    // frames on an 8-worker pool with single-frame quanta — panics racing
    // each other, racing steals, and racing completions. Every panic must
    // be caught inside the slot's critical section (no poisoned locks, no
    // worker death), quarantine exactly its own session, and leave every
    // survivor's bits untouched.
    silence_chaos_panics();
    let kitti = kitti_sequences();
    let specs: Vec<SessionSpec> = (0..8)
        .map(|i| {
            let spec = SessionSpec::new(
                format!("s-{i}"),
                kitti[i % 4].truncated(2.5),
                Priority::Normal,
            );
            if i % 2 == 0 {
                // Panic frames spread across the sequence so the unwinds
                // interleave with healthy sessions' quanta.
                spec.with_chaos(
                    ChaosPlan::new(100 + i as u64)
                        .with(ChaosKind::SessionPanic { frame: 5 + 3 * i }),
                )
            } else {
                spec
            }
        })
        .collect();
    let config = FleetConfig {
        threads: 8,
        frames_per_quantum: 1, // maximize interleaving pressure
        restart: archytas_fleet::RestartPolicy { max_restarts: 0 },
        ..FleetConfig::default()
    };
    let report = run_fleet(&specs, &config);
    assert_eq!(report.quarantined_sessions, 4);
    for (i, (spec, session)) in specs.iter().zip(&report.sessions).enumerate() {
        if i % 2 == 0 {
            assert_eq!(
                session.outcome,
                SessionOutcome::Quarantined,
                "{}",
                spec.name
            );
            let failure = session.failure.as_ref().expect("failure record");
            assert_eq!(failure.frame, 5 + 3 * i, "{}", spec.name);
        } else {
            assert_eq!(session.outcome, SessionOutcome::Completed, "{}", spec.name);
            session.assert_bitwise_eq(&run_session_alone(spec, &FleetConfig::default()));
        }
    }
}

#[test]
fn iter_counters_debounce_independently_under_interleaving() {
    // Two counters fed different target streams, stepped interleaved; each
    // must match a privately-stepped twin exactly.
    let targets_a = [10usize, 4, 4, 4, 4, 9, 9, 2, 2, 2, 2, 2, 10, 10];
    let targets_b = [3usize, 3, 8, 8, 8, 1, 1, 1, 6, 6, 6, 6, 10, 2];
    let alone = |targets: &[usize]| {
        let mut c = IterCounter::new(10);
        targets.iter().map(|&t| c.observe(t)).collect::<Vec<_>>()
    };
    let (ea, eb) = (alone(&targets_a), alone(&targets_b));
    let (mut ca, mut cb) = (IterCounter::new(10), IterCounter::new(10));
    let (mut ga, mut gb) = (Vec::new(), Vec::new());
    for i in 0..targets_a.len() {
        // Deliberately uneven order: b twice every third step.
        ga.push(ca.observe(targets_a[i]));
        gb.push(cb.observe(targets_b[i]));
        if i % 3 == 0 {
            // Re-reading state must not advance the other counter.
            let _ = ca.current();
            let _ = cb.current();
        }
    }
    assert_eq!(ga, ea);
    assert_eq!(gb, eb);
}
