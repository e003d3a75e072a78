//! One serving bench for every fleet mode, behind one argument parser,
//! one `REC` record line and in-process gates (see `archytas_bench::serve`
//! for the record shape).
//!
//! Usage: `serve <batch|obs|chaos|sweep|soak|faults> [--workers N]
//! [--seconds S] [--sessions a,b] [--budget-w W] [--seed K] [--quick]`
//! (`sweep` takes a list, `--workers a,b`)
//!
//! * `batch` — the standard 8-vehicle batch. One `session` record per
//!   session, one `run` record per pool size.
//! * `obs` — the batch with telemetry and phase counters, plus a
//!   tight-power-envelope rerun: `scope` records (fleet and per-class
//!   histograms), `envelope` records (per-session admission decisions) and
//!   `run` records extended with fleet watts, envelope verdicts and
//!   per-phase wall-time attribution. Gates: shed and deferred counts and
//!   fleet watts equal at every pool size, shed and deferred both > 0.
//! * `chaos` — the batch through the execution-level chaos matrix. Per case
//!   and pool size the quarantine set must be exact, every session bitwise
//!   equal to its serial-alone run with the same chaos, and every untouched
//!   session equal to the chaos-free serial run.
//! * `sweep` — workers × sessions scaling points, each stamped with its
//!   parallel-efficiency verdict.
//! * `soak` — a churn schedule at pools {1, 2, 8}, bitwise vs serial-alone.
//! * `faults` — the fault matrix; fails above 3× nominal RMSE.
//!
//! `batch`, `obs` and `chaos` serve at 1 worker and at `--workers N`
//! (default 4; chaos adds {2, 8}) and byte-compare the `det` payloads
//! of each pool against the 1-worker run. Any gate break exits 1.

use archytas_bench::json::{array, phase_array, rec_line, JsonLine};
use archytas_bench::serve::{compare_det, cpus, run_timing, session_det, Args};
use archytas_bench::table;
use archytas_faults::{long_horizon_scenarios, run_matrix, scenarios, ChaosKind, ChaosPlan};
use archytas_fleet::{
    fleet_platform, plan_admission, run_fleet, run_session_alone, scaling_fleet_specs,
    silence_chaos_panics, standard_fleet_specs, AdmissionDecision, DeadlinePolicy, FleetConfig,
    FleetReport, PowerEnvelope, Priority, RestartPolicy, SessionOutcome, SessionReport,
    SessionSpec, TrafficClass, FLEET_DESIGN,
};
use archytas_par::counters;
use archytas_telemetry::{phase_rows, Histogram, PhaseRow, ScopeAggregate};
use std::collections::HashMap;

const USAGE: &str = "serve <batch|obs|chaos|sweep|soak|faults> [--workers N (sweep: a,b)] \
                     [--seconds S] [--sessions a,b] [--budget-w W] [--seed K] [--quick]";

/// Sweep floor per usable CPU: a multi-worker point must reach this
/// fraction of linear speed-up over the 1-worker point.
const EFF_FLOOR: f64 = 0.50;
/// Sweep floor when a multi-worker point has one usable CPU
/// (`min(workers, cpus) <= 1`, pure timeslicing): oversubscription may not
/// collapse throughput below this share of the 1-worker point. With two or
/// more usable CPUs the point is held to `EFF_FLOOR` per usable CPU
/// instead, so 4 workers on 2 CPUs must reach 1.00x.
const NO_COLLAPSE: f64 = 0.70;
/// Fault-matrix bound: a scenario's RMSE over its nominal RMSE.
const RMSE_BOUND: f64 = 3.0;
/// Active-set cap for every sweep point: any swept worker count can run
/// width-8 parallel, while a 2000-session point keeps ~64 activated frame
/// streams resident — the admitted-idle tail stays in its cheap form.
const SWEEP_MAX_ACTIVE: usize = 64;

fn main() {
    let args = Args::from_env(
        USAGE,
        &[
            "<mode>",
            "--workers",
            "--seconds",
            "--sessions",
            "--budget-w",
            "--seed",
            "--quick",
        ],
    );
    let violations = match args.mode.as_deref() {
        Some("batch") => batch(&args),
        Some("obs") => obs(&args),
        Some("chaos") => chaos(&args),
        Some("sweep") => sweep(&args),
        Some("soak") => soak(&args),
        Some("faults") => faults(&args),
        other => {
            let problem =
                other.map_or("a mode is required".into(), |m| format!("unknown mode {m}"));
            eprintln!("error: {problem}\nusage: {USAGE}");
            std::process::exit(2);
        }
    };
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("GATE VIOLATION: {v}");
        }
        eprintln!("serve gate FAILED: {} violation(s)", violations.len());
        std::process::exit(1);
    }
}

/// Records of one served pool: `(kind, det)` pairs compared across pools
/// and the pool's `run` timing, which is only reported.
struct Served {
    det: Vec<(&'static str, String)>,
    run: String,
}

/// Serves at every pool in `pools` (the first is the reference), prints
/// the reference pool's `det` records and every pool's `run` record,
/// and returns one violation per pool whose `det` payloads differ from
/// the reference's.
fn serve_pools(mode: &str, pools: &[usize], mut serve: impl FnMut(usize) -> Served) -> Vec<String> {
    let mut violations = Vec::new();
    let mut reference: Option<Vec<String>> = None;
    for &workers in pools {
        let served = serve(workers);
        let det: Vec<String> = served.det.iter().map(|(_, d)| d.clone()).collect();
        match &reference {
            None => {
                for (kind, d) in &served.det {
                    println!("{}", rec_line(mode, kind, d, "{}"));
                }
                reference = Some(det);
            }
            Some(r) => {
                if let Err(m) = compare_det(r, &det) {
                    violations.push(format!("{mode}: {} vs {workers} worker(s): {m}", pools[0]));
                }
            }
        }
        println!("{}", rec_line(mode, "run", "{}", &served.run));
    }
    violations
}

/// Pool sizes in ascending order: 1 (the reference), the one `--workers`
/// size (default 4) and `extra`.
fn gate_pools(args: &Args, extra: &[usize]) -> Vec<usize> {
    let workers = match args.workers.as_deref() {
        None => 4,
        Some(&[w]) => w,
        Some(_) => {
            eprintln!("error: --workers takes one value in batch, obs and chaos\nusage: {USAGE}");
            std::process::exit(2);
        }
    };
    let mut pools = vec![1, workers];
    pools.extend(extra);
    pools.sort_unstable();
    pools.dedup();
    pools
}

fn fleet_config(threads: usize) -> FleetConfig {
    FleetConfig {
        threads,
        ..FleetConfig::default()
    }
}

fn batch(args: &Args) -> Vec<String> {
    let specs = standard_fleet_specs(args.seconds.unwrap_or(4.0));
    serve_pools("batch", &gate_pools(args, &[]), |workers| {
        let report = run_fleet(&specs, &fleet_config(workers));
        eprintln!(
            "batch: {} sessions at {workers} worker(s): {:.1} fps",
            report.sessions.len(),
            report.throughput_fps
        );
        Served {
            det: report
                .sessions
                .iter()
                .map(|s| ("session", session_det(s).finish()))
                .collect(),
            run: run_timing(&report).finish(),
        }
    })
}

fn bucket_array(h: &Histogram) -> String {
    array(h.nonzero_buckets().map(|(i, c)| format!("[{i},{c}]")))
}

/// Deterministic aggregate of one telemetry scope (fleet or class):
/// merged histograms in sparse `[bucket, count]` form, integer
/// percentiles and the implied watts as a bit pattern.
fn scope_det(scope: &str, agg: &ScopeAggregate) -> String {
    let lat = &agg.latency_ns;
    let nrg = &agg.energy_nj;
    JsonLine::new()
        .str("scope", scope)
        .uint("sessions", agg.sessions)
        .uint("windows", agg.windows)
        .uint("lat_total_ns", lat.total())
        .uint("lat_min_ns", if lat.count() == 0 { 0 } else { lat.min() })
        .uint("lat_max_ns", lat.max())
        .uint("lat_p50_ns", lat.percentile(50.0))
        .uint("lat_p95_ns", lat.percentile(95.0))
        .uint("lat_p99_ns", lat.percentile(99.0))
        .uint("energy_total_nj", nrg.total())
        .uint("energy_p99_nj", nrg.percentile(99.0))
        .bits("watts_bits", agg.watts().to_bits())
        .float("watts", agg.watts(), 6)
        .float("mean_iterations", agg.mean_iterations(), 6)
        .raw("lat_buckets", &bucket_array(lat))
        .raw("energy_buckets", &bucket_array(nrg))
        .finish()
}

fn obs(args: &Args) -> Vec<String> {
    let specs = standard_fleet_specs(args.seconds.unwrap_or(4.0));
    let base = FleetConfig::default();
    // Default budget: two sessions' Eq. 17 draw, so admission must shed
    // Low and defer Normal arrivals past the boundary.
    let draw = PowerEnvelope::new(f64::INFINITY, &FLEET_DESIGN, &fleet_platform()).session_draw_w;
    let budget_w = args.budget_w.unwrap_or(2.0 * draw + 1e-9);
    let envelope = PowerEnvelope::new(budget_w, &FLEET_DESIGN, &fleet_platform());
    let decisions = plan_admission(&specs, base.max_active, base.shed_watermark, &envelope);

    let mut verdicts: Vec<(usize, usize, usize, f64)> = Vec::new();
    let mut violations =
        serve_pools("obs", &gate_pools(args, &[]), |workers| {
            counters::reset();
            counters::enable();
            let report = run_fleet(&specs, &fleet_config(workers));
            counters::disable();
            let phases = phase_rows();
            let env_report = run_fleet(
                &specs,
                &FleetConfig {
                    power_envelope_w: budget_w,
                    ..fleet_config(workers)
                },
            );
            verdicts.push((
                workers,
                env_report.shed_sessions,
                env_report.deferred_sessions,
                report.fleet_power_w,
            ));

            let scopes: Vec<(String, &ScopeAggregate)> =
                std::iter::once(("fleet".to_string(), &report.telemetry.fleet))
                    .chain(
                        TrafficClass::ALL
                            .iter()
                            .map(|c| (format!("class/{}", c.name()), report.telemetry.class(*c))),
                    )
                    .collect();
            if workers == 1 {
                print_obs_tables(&scopes, &phases, &specs, &env_report, &decisions, budget_w);
            }
            let mut det: Vec<(&'static str, String)> = scopes
                .iter()
                .map(|(name, agg)| ("scope", scope_det(name, agg)))
                .collect();
            det.extend(specs.iter().zip(&decisions).zip(&env_report.sessions).map(
                |((spec, d), s)| {
                    let line = session_det(s)
                        .str("class", TrafficClass::from(spec.priority).name())
                        .str("decision", &format!("{d:?}"));
                    ("envelope", line.finish())
                },
            ));
            let timing = run_timing(&report)
                .float("fleet_power_w", report.fleet_power_w, 6)
                .float("session_draw_w", draw, 6)
                .float("envelope_budget_w", budget_w, 6)
                .uint("envelope_capacity", envelope.capacity() as u64)
                .uint("envelope_shed", env_report.shed_sessions as u64)
                .uint("envelope_deferred", env_report.deferred_sessions as u64)
                .uint(
                    "envelope_deferrals",
                    env_report.scheduler.envelope_deferrals as u64,
                )
                .float("envelope_fleet_power_w", env_report.fleet_power_w, 6)
                .uint("attributed_ns", counters::attributed_total_ns())
                .raw("phases", &phase_array(&phases));
            Served {
                det,
                run: timing.finish(),
            }
        });

    let (_, shed, deferred, watts) = verdicts[0];
    for &(workers, s, d, w) in &verdicts[1..] {
        if (s, d, w.to_bits()) != (shed, deferred, watts.to_bits()) {
            violations.push(format!(
                "obs: envelope shed/deferred/fleet watts {s}/{d}/{w} at {workers} worker(s), \
                 {shed}/{deferred}/{watts} at 1"
            ));
        }
    }
    if shed == 0 || deferred == 0 {
        violations.push(format!(
            "obs: {budget_w:.2} W envelope shed {shed} and deferred {deferred}: admission inert"
        ));
    }
    eprintln!(
        "obs: fleet draws {watts:.3} W; {budget_w:.2} W envelope shed {shed} and deferred \
         {deferred} of {} sessions",
        specs.len()
    );
    violations
}

fn print_obs_tables(
    scopes: &[(String, &ScopeAggregate)],
    phases: &[PhaseRow],
    specs: &[SessionSpec],
    env_report: &FleetReport,
    decisions: &[AdmissionDecision],
    budget_w: f64,
) {
    let scope_rows: Vec<Vec<String>> = scopes
        .iter()
        .map(|(name, agg)| {
            let lat_us = |p| format!("{:.1}", agg.latency_ns.percentile(p) as f64 / 1e3);
            vec![
                name.clone(),
                agg.sessions.to_string(),
                agg.windows.to_string(),
                lat_us(50.0),
                lat_us(95.0),
                lat_us(99.0),
                format!("{:.3}", agg.energy_nj.total() as f64 / 1e6),
                format!("{:.3}", agg.watts()),
                format!("{:.2}", agg.mean_iterations()),
            ]
        })
        .collect();
    let headers = [
        "scope",
        "sessions",
        "windows",
        "p50 µs",
        "p95 µs",
        "p99 µs",
        "energy mJ",
        "watts",
        "iters",
    ];
    eprint!("{}", table(&headers, &scope_rows));
    let phase_rows: Vec<Vec<String>> = phases
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.3}", p.wall_ns as f64 / 1e6),
                p.calls.to_string(),
                format!("{:.1}%", p.share * 100.0),
            ]
        })
        .collect();
    eprint!(
        "{}",
        table(&["phase", "wall ms", "calls", "share"], &phase_rows)
    );
    eprintln!("power envelope {budget_w:.2} W:");
    let env_rows: Vec<Vec<String>> = specs
        .iter()
        .zip(decisions)
        .zip(&env_report.sessions)
        .map(|((spec, d), s)| {
            vec![
                spec.name.clone(),
                TrafficClass::from(spec.priority).name().to_string(),
                format!("{d:?}"),
                format!("{:?}", s.outcome),
                s.windows.to_string(),
            ]
        })
        .collect();
    eprint!(
        "{}",
        table(
            &["session", "class", "decision", "outcome", "windows"],
            &env_rows
        )
    );
}

/// One chaos scenario: which sessions get which chaos, under which
/// policies, and which sessions must end quarantined.
struct ChaosCase {
    name: &'static str,
    /// `(session name, chaos plan)` applied on top of the standard batch.
    chaos: Vec<(&'static str, ChaosPlan)>,
    deadline: DeadlinePolicy,
    restart: RestartPolicy,
    /// Sessions that must end `SessionOutcome::Quarantined` — exactly.
    expect_quarantined: Vec<&'static str>,
    /// Chaos-touched sessions expected to match the chaos-free serial
    /// bits anyway (restart replay, timing-only chaos).
    expect_clean_bits: Vec<&'static str>,
}

fn chaos_cases() -> Vec<ChaosCase> {
    let no_restart = RestartPolicy { max_restarts: 0 };
    vec![
        ChaosCase {
            name: "panic-restart",
            chaos: vec![(
                "car-3",
                ChaosPlan::new(41).with(ChaosKind::SessionPanic { frame: 15 }),
            )],
            deadline: DeadlinePolicy::default(),
            restart: RestartPolicy::default(),
            expect_quarantined: vec![],
            // The one-shot panic does not re-fire after the checkpoint
            // restore, so car-3 replays to the chaos-free bits.
            expect_clean_bits: vec!["car-3"],
        },
        ChaosCase {
            name: "panic-quarantine",
            chaos: vec![(
                "car-1",
                ChaosPlan::new(7).with(ChaosKind::SessionPanic { frame: 10 }),
            )],
            deadline: DeadlinePolicy::default(),
            restart: no_restart,
            expect_quarantined: vec!["car-1"],
            expect_clean_bits: vec![],
        },
        ChaosCase {
            name: "step-stall",
            chaos: vec![(
                "drone-0",
                ChaosPlan::new(5).with(ChaosKind::StepStall {
                    frame: 14,
                    rounds: 11,
                }),
            )],
            deadline: DeadlinePolicy {
                multiplier: 4.0,
                misses_to_quarantine: 1,
            },
            restart: no_restart,
            expect_quarantined: vec!["drone-0"],
            expect_clean_bits: vec![],
        },
        ChaosCase {
            name: "poisoned-observation",
            chaos: vec![(
                "car-2",
                ChaosPlan::new(3).with(ChaosKind::PoisonedObservation { start: 12, end: 16 }),
            )],
            deadline: DeadlinePolicy::default(),
            restart: RestartPolicy::default(),
            // The fallible solver absorbs the non-finite costs through the
            // degradation ladder: the session survives with different (but
            // deterministic) bits.
            expect_quarantined: vec![],
            expect_clean_bits: vec![],
        },
        ChaosCase {
            name: "worker-jitter",
            chaos: vec![
                (
                    "car-0",
                    ChaosPlan::new(9)
                        .with(ChaosKind::WorkerJitter { max_spins: 4000 })
                        .with(ChaosKind::StepStall {
                            frame: 8,
                            rounds: 3,
                        }),
                ),
                (
                    "drone-1",
                    ChaosPlan::new(17).with(ChaosKind::WorkerJitter { max_spins: 4000 }),
                ),
            ],
            deadline: DeadlinePolicy::default(),
            restart: RestartPolicy::default(),
            expect_quarantined: vec![],
            // Timing-only chaos: bits must equal the chaos-free reference.
            expect_clean_bits: vec!["car-0", "drone-1"],
        },
    ]
}

/// First divergence of two session reports' deterministic payload.
fn diff(a: &SessionReport, b: &SessionReport) -> Option<String> {
    if a.outcome != b.outcome {
        return Some(format!("outcome {:?} vs {:?}", a.outcome, b.outcome));
    }
    if a.windows != b.windows {
        return Some(format!("windows {} vs {}", a.windows, b.windows));
    }
    if a.digest() != b.digest() {
        return Some(format!("digest {:016x} vs {:016x}", a.digest(), b.digest()));
    }
    None
}

/// Checks one case's fleet run against the serial-alone references.
fn chaos_contract(
    case: &ChaosCase,
    report: &FleetReport,
    alone_chaotic: &HashMap<String, SessionReport>,
    alone_clean: &HashMap<String, SessionReport>,
) -> Vec<String> {
    let at = format!("chaos {}@{}w", case.name, report.threads);
    let mut violations = Vec::new();
    let quarantined: Vec<&str> = report
        .sessions
        .iter()
        .filter(|s| s.outcome == SessionOutcome::Quarantined)
        .map(|s| s.name.as_str())
        .collect();
    if quarantined != case.expect_quarantined {
        violations.push(format!(
            "{at}: quarantine set {quarantined:?}, expected {:?}",
            case.expect_quarantined
        ));
    }
    let touched: Vec<&str> = case.chaos.iter().map(|(n, _)| *n).collect();
    for s in &report.sessions {
        // Fleet == alone with the same chaos, for everyone.
        if let Some(d) = diff(s, &alone_chaotic[&s.name]) {
            violations.push(format!("{at}: {} vs chaotic serial-alone: {d}", s.name));
        }
        // Untouched sessions == the chaos-free reference.
        let name = s.name.as_str();
        if !touched.contains(&name) || case.expect_clean_bits.contains(&name) {
            if let Some(d) = diff(s, &alone_clean[&s.name]) {
                violations.push(format!("{at}: {} vs chaos-free serial-alone: {d}", s.name));
            }
        }
    }
    violations
}

fn chaos(args: &Args) -> Vec<String> {
    silence_chaos_panics();
    let seconds = args.seconds.unwrap_or(4.0);
    // A clean session's bits do not depend on the deadline/restart policy
    // (the watchdog only observes, checkpoints only clone), so one
    // chaos-free reference under the default config serves every case.
    let alone_clean: HashMap<String, SessionReport> = standard_fleet_specs(seconds)
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                run_session_alone(s, &FleetConfig::default()),
            )
        })
        .collect();
    let pools = gate_pools(args, &[2, 8]);
    let mut violations = Vec::new();
    for case in chaos_cases() {
        let mut specs = standard_fleet_specs(seconds);
        for (name, plan) in &case.chaos {
            let spec = specs
                .iter_mut()
                .find(|s| s.name == *name)
                .expect("chaos target exists in the standard batch");
            *spec = spec.clone().with_chaos(plan.clone());
        }
        let config = |threads| FleetConfig {
            threads,
            deadline: case.deadline,
            restart: case.restart,
            ..FleetConfig::default()
        };
        let alone_chaotic: HashMap<String, SessionReport> = specs
            .iter()
            .map(|s| {
                let report = match s.chaos {
                    Some(_) => run_session_alone(s, &config(1)),
                    None => alone_clean[&s.name].clone(),
                };
                (s.name.clone(), report)
            })
            .collect();
        let mut contract = Vec::new();
        violations.extend(serve_pools("chaos", &pools, |workers| {
            let report = run_fleet(&specs, &config(workers));
            contract.extend(chaos_contract(&case, &report, &alone_chaotic, &alone_clean));
            Served {
                det: report
                    .sessions
                    .iter()
                    .map(|s| ("session", session_det(s).str("case", case.name).finish()))
                    .collect(),
                run: run_timing(&report).str("case", case.name).finish(),
            }
        }));
        eprintln!(
            "chaos {}: pools {pools:?}, {} contract violation(s)",
            case.name,
            contract.len()
        );
        violations.extend(contract);
    }
    violations
}

fn sweep(args: &Args) -> Vec<String> {
    let (workers, sessions) = if args.quick {
        (vec![1, 4], vec![8, 64])
    } else {
        (vec![1, 2, 4, 8], vec![8, 64, 512, 2000])
    };
    let workers = args.workers.clone().unwrap_or(workers);
    let sessions = args.sessions.clone().unwrap_or(sessions);
    let seconds = args.seconds.unwrap_or(1.2);
    let cpus = cpus();
    let mut violations = Vec::new();
    for &n in &sessions {
        let specs = scaling_fleet_specs(n, seconds);
        let runs: Vec<FleetReport> = workers
            .iter()
            .map(|&w| {
                let config = FleetConfig {
                    max_active: SWEEP_MAX_ACTIVE,
                    ..fleet_config(w)
                };
                run_fleet(&specs, &config)
            })
            .collect();
        let base = runs.iter().find(|r| r.threads == 1);
        for r in &runs {
            let completed = r
                .sessions
                .iter()
                .filter(|s| s.outcome == SessionOutcome::Completed)
                .count();
            let (gate, reason) = match base {
                _ if completed != n => ("failed", format!("{completed} of {n} sessions completed")),
                _ if r.threads == 1 => (
                    "baseline",
                    "1-worker reference for this session count".to_string(),
                ),
                None => ("failed", format!("no 1-worker baseline for {n} sessions")),
                Some(b) => {
                    let ratio = r.throughput_fps / b.throughput_fps;
                    let usable = r.threads.min(cpus);
                    let (floor, kind) = if usable > 1 {
                        (
                            EFF_FLOOR * usable as f64,
                            format!("parallel efficiency ({usable} usable CPU(s))"),
                        )
                    } else {
                        (
                            NO_COLLAPSE,
                            format!(
                                "no-collapse (oversubscribed: {} workers on {cpus} CPU(s))",
                                r.threads
                            ),
                        )
                    };
                    let gate = if ratio >= floor { "passed" } else { "failed" };
                    (
                        gate,
                        format!("{kind}: {ratio:.2}x vs 1-worker baseline, floor {floor:.2}x"),
                    )
                }
            };
            eprintln!(
                "sweep {}w x {n:>4} sessions: {:>9.1} fps -> {gate} ({reason})",
                r.threads, r.throughput_fps
            );
            if gate == "failed" {
                violations.push(format!("sweep {}w x {n} sessions: {reason}", r.threads));
            }
            let timing = run_timing(r)
                .uint("max_active", SWEEP_MAX_ACTIVE as u64)
                .float("seconds", seconds, 2)
                .str("gate", gate)
                .str("gate_reason", &reason);
            println!("{}", rec_line("sweep", "point", "{}", &timing.finish()));
        }
    }
    violations
}

/// The churn schedule: 32 sessions where, past the 8 founding vehicles,
/// everyone arrives staggered on the quanta clock; every 5th session
/// leaves early; every 4th flips priority mid-run (and back); session 7
/// panics once and restarts from checkpoint; session 13 panics twice and
/// is terminally quarantined (restart budget 1).
fn churn_specs(sessions: usize, seconds: f64) -> Vec<SessionSpec> {
    scaling_fleet_specs(sessions, seconds)
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            if i >= 8 {
                spec = spec.arriving_at((i - 7) * 12);
            }
            if i % 5 == 4 {
                spec = spec.leaving_after(30);
            }
            if i % 4 == 1 {
                spec = spec
                    .with_priority_flip(16, Priority::Low)
                    .with_priority_flip(28, Priority::High);
            }
            if i == 7 {
                spec =
                    spec.with_chaos(ChaosPlan::new(21).with(ChaosKind::SessionPanic { frame: 18 }));
            }
            if i == 13 {
                spec = spec.with_chaos(
                    ChaosPlan::new(22)
                        .with(ChaosKind::SessionPanic { frame: 12 })
                        .with(ChaosKind::SessionPanic { frame: 26 }),
                );
            }
            spec
        })
        .collect()
}

fn soak(args: &Args) -> Vec<String> {
    const SESSIONS: usize = 32;
    const POOLS: [usize; 3] = [1, 2, 8];
    silence_chaos_panics();
    // The churn schedule's chaos frames need at least 4 s of sequence.
    let seconds = args.seconds.unwrap_or(4.0).max(4.0);
    let specs = churn_specs(SESSIONS, seconds);
    let config = FleetConfig {
        max_active: 12,
        defer_watermark: 10,
        ..FleetConfig::default()
    };
    let alone: Vec<_> = specs
        .iter()
        .map(|s| run_session_alone(s, &config))
        .collect();
    let mut violations = Vec::new();
    let (mut quanta_max, mut restarts, mut quarantined) = (0, 0, 0);
    for pool in POOLS {
        let report = run_fleet(
            &specs,
            &FleetConfig {
                threads: pool,
                ..config.clone()
            },
        );
        quanta_max = quanta_max.max(report.scheduler.quanta);
        restarts = report.session_restarts;
        quarantined = report.quarantined_sessions;
        for (s, a) in report.sessions.iter().zip(&alone) {
            if s.digest() != a.digest() || s.outcome != a.outcome {
                violations.push(format!(
                    "soak: {}@{pool} workers diverges from serial-alone \
                     (digest {:016x} vs {:016x})",
                    s.name,
                    s.digest(),
                    a.digest()
                ));
            }
        }
        let quarantined_names: Vec<&str> = report
            .sessions
            .iter()
            .filter(|s| s.outcome == SessionOutcome::Quarantined)
            .map(|s| s.name.as_str())
            .collect();
        if quarantined_names != ["car-0013"] {
            violations.push(format!(
                "soak: quarantine set at {pool} workers is {quarantined_names:?}, \
                 expected [\"car-0013\"]"
            ));
        }
    }
    let flips: usize = specs.iter().map(|s| s.priority_flips.len()).sum();
    let timing = JsonLine::new()
        .uint("sessions", SESSIONS as u64)
        .str("pools", "1,2,8")
        .uint("cpus", cpus() as u64)
        .float("seconds", seconds, 2)
        .uint(
            "churn_joins",
            specs.iter().filter(|s| s.arrival_round > 0).count() as u64,
        )
        .uint(
            "churn_leaves",
            specs
                .iter()
                .filter(|s| s.leave_after_frames.is_some())
                .count() as u64,
        )
        .uint("priority_flips", flips as u64)
        .uint("restarts", restarts as u64)
        .uint("quarantined", quarantined as u64)
        .uint("quanta_max", quanta_max as u64)
        .uint("violations", violations.len() as u64);
    println!("{}", rec_line("soak", "soak", "{}", &timing.finish()));
    eprintln!(
        "soak: {SESSIONS} sessions, pools 1/2/8, {restarts} restart(s), \
         {quarantined} quarantine(s), {} violation(s)",
        violations.len()
    );
    violations
}

fn faults(args: &Args) -> Vec<String> {
    let seed = args.seed.unwrap_or(7);
    let seconds = args.seconds.unwrap_or(8.0);
    let mut violations = Vec::new();
    // The standard seconds-scale matrix, then the long-horizon scenarios
    // (which pin their own sequence and duration, ignoring `seconds`).
    let mut matrix = scenarios(seed);
    matrix.extend(long_horizon_scenarios(seed));
    for r in run_matrix(&matrix, seconds) {
        let ok = r.within_rmse_bound(RMSE_BOUND);
        if !ok {
            violations.push(format!(
                "faults: {} rmse {:.4} m vs nominal {:.4} m (bound {RMSE_BOUND}x)",
                r.name, r.rmse_m, r.nominal_rmse_m
            ));
        }
        let det = JsonLine::new()
            .str("scenario", &r.name)
            .uint("seed", seed)
            .boolean("completed", r.completed)
            .boolean("pass", ok)
            .float("rmse_m", r.rmse_m, 6)
            .float("nominal_rmse_m", r.nominal_rmse_m, 6)
            .uint("windows", r.windows as u64)
            .uint("degraded_windows", r.degraded_windows as u64)
            .uint("watchdog_windows", r.watchdog_windows as u64)
            .opt_uint(
                "recovery_latency_windows",
                r.recovery_latency_windows.map(|w| w as u64),
            );
        println!("{}", rec_line("faults", "scenario", &det.finish(), "{}"));
    }
    violations
}
