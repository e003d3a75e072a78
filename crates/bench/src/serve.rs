//! Shared plumbing of the serving bins (`serve` and `session_admit_cost`):
//! one argument parser, one record line, and the two record halves every
//! serving mode builds its records from.
//!
//! Every machine-readable line is
//! `REC {"mode":…,"kind":…,"det":{…},"timing":{…}}`. `det` holds exactly
//! the fields the determinism gates byte-compare across pool sizes (digests,
//! bit patterns, decisions, counts that are a pure function of the served
//! work); `timing` holds wall-clock numbers and scheduler counters, which
//! differ run to run by design. Human tables go to stderr, so stdout is
//! nothing but `REC` lines.

use crate::json::JsonLine;
use archytas_fleet::{FleetReport, SessionOutcome, SessionReport};
use std::fmt;

/// Parsed command line of a serving bin. Every field is `None`/`false`
/// when its flag was absent; each mode applies its own defaults.
#[derive(Debug, Default)]
pub struct Args {
    /// Leading positional word (the `serve` mode).
    pub mode: Option<String>,
    /// `--workers a,b`: pool sizes (the gate modes of `serve` take one).
    pub workers: Option<Vec<usize>>,
    /// `--seconds S`: sequence truncation.
    pub seconds: Option<f64>,
    /// `--sessions a,b`: session counts.
    pub sessions: Option<Vec<usize>>,
    /// `--budget-w W`: power-envelope budget in watts.
    pub budget_w: Option<f64>,
    /// `--seed K`: fault-matrix seed.
    pub seed: Option<u64>,
    /// `--sample K`: activated sample size of the admission bench.
    pub sample: Option<usize>,
    /// `--quick`: the trimmed smoke-sized run.
    pub quick: bool,
}

fn positive_list(flag: &str, v: &str) -> Result<Vec<usize>, String> {
    let list = v
        .split(',')
        .map(|t| t.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| format!("{flag} needs a comma-separated list of unsigned integers"))?;
    if list.is_empty() || list.contains(&0) {
        return Err(format!("{flag} values must be at least 1"));
    }
    Ok(list)
}

fn positive_f64(flag: &str, v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!("{flag} needs a positive number")),
    }
}

impl Args {
    /// Parses `args` (without the program name). Only the flags named in
    /// `allowed` are accepted; a mode word is accepted when `allowed`
    /// contains `"<mode>"`.
    pub fn parse(args: impl IntoIterator<Item = String>, allowed: &[&str]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if out.mode.is_some() || !allowed.contains(&"<mode>") {
                    return Err(format!("unexpected argument {arg}"));
                }
                out.mode = Some(arg);
                continue;
            }
            if !allowed.contains(&arg.as_str()) {
                return Err(format!("unknown flag {arg}"));
            }
            if arg == "--quick" {
                out.quick = true;
                continue;
            }
            let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            let flag = arg.as_str();
            match flag {
                "--workers" => out.workers = Some(positive_list(flag, &v)?),
                "--sessions" => out.sessions = Some(positive_list(flag, &v)?),
                "--sample" => match positive_list(flag, &v)?.as_slice() {
                    [k] => out.sample = Some(*k),
                    _ => return Err("--sample takes one value".into()),
                },
                "--seconds" => out.seconds = Some(positive_f64(flag, &v)?),
                "--budget-w" => out.budget_w = Some(positive_f64(flag, &v)?),
                "--seed" => {
                    out.seed = Some(v.parse().map_err(|_| "--seed needs an unsigned integer")?)
                }
                _ => unreachable!("allowed flag {flag} has no parser"),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, or prints the error and `usage` and
    /// exits with status 2.
    pub fn from_env(usage: &str, allowed: &[&str]) -> Args {
        Args::parse(std::env::args().skip(1), allowed).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {usage}");
            std::process::exit(2);
        })
    }
}

/// Logical CPUs of this machine, stamped into every run record: a
/// 4-worker run on a 1-CPU box is timeslicing, not parallelism.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Renders one `REC` line from pre-rendered `det` and `timing` objects.
pub fn rec_line(mode: &str, kind: &str, det: &str, timing: &str) -> String {
    let payload = JsonLine::new()
        .str("mode", mode)
        .str("kind", kind)
        .raw("det", det)
        .raw("timing", timing)
        .finish();
    format!("REC {payload}")
}

/// The deterministic payload of one session: its identity, outcome,
/// estimate digest and modelled-cost bit patterns. Byte-identical at any
/// pool size by the fleet contract. Callers may append fields (the chaos
/// case, the envelope decision) before finishing.
pub fn session_det(s: &SessionReport) -> JsonLine {
    let failure = s.failure.as_ref().map(|f| f.cause.to_string());
    JsonLine::new()
        .str("session", &s.name)
        .str("outcome", &format!("{:?}", s.outcome))
        .str("phase", &s.phase.to_string())
        .uint("windows", s.windows as u64)
        .bits("digest", s.digest())
        .uint("iterations_sum", s.iterations.iter().sum::<usize>() as u64)
        .bits("rmse_bits", s.rmse_m.to_bits())
        .bits("latency_bits", s.modelled_latency_ms.to_bits())
        .bits("energy_bits", s.modelled_energy_mj.to_bits())
        .uint("degraded_windows", s.degraded_windows as u64)
        .uint("watchdog_windows", s.watchdog_windows as u64)
        .uint("sensor_fault_windows", s.sensor_fault_windows as u64)
        .uint(
            "solver_divergence_windows",
            s.solver_divergence_windows as u64,
        )
        .uint("prior_reset_windows", s.prior_reset_windows as u64)
        .uint("restarts", s.restarts as u64)
        .uint("deadline_misses", s.deadline_misses as u64)
        .opt_str("failure", failure.as_deref())
}

/// The timing payload of one fleet run: wall clock, pooled frame-latency
/// percentiles, shared-cache and scheduler counters. One fixed key set
/// for every mode; callers may append mode-specific fields.
pub fn run_timing(r: &FleetReport) -> JsonLine {
    let completed = r
        .sessions
        .iter()
        .filter(|s| s.outcome == SessionOutcome::Completed)
        .count();
    let sched = &r.scheduler;
    JsonLine::new()
        .uint("workers", r.threads as u64)
        .uint("cpus", cpus() as u64)
        .uint("sessions", r.sessions.len() as u64)
        .uint("completed", completed as u64)
        .uint("quarantined", r.quarantined_sessions as u64)
        .uint("shed", r.shed_sessions as u64)
        .uint("deferred", r.deferred_sessions as u64)
        .uint("session_restarts", r.session_restarts as u64)
        .uint("deadline_misses", r.deadline_misses as u64)
        .uint("frames", r.frames_processed as u64)
        .uint("windows", r.windows_processed as u64)
        .float("serving_wall_s", r.serving_wall_s, 6)
        .float("throughput_fps", r.throughput_fps, 3)
        .float("p50_us", r.latency.p50_ns as f64 / 1_000.0, 1)
        .float("p95_us", r.latency.p95_ns as f64 / 1_000.0, 1)
        .float("p99_us", r.latency.p99_ns as f64 / 1_000.0, 1)
        .uint("model_evaluations", r.model_evaluations as u64)
        .uint("model_cache_hits", r.model_cache_hits as u64)
        .uint("gating_builds", r.gating_builds as u64)
        .uint("gating_hits", r.gating_hits as u64)
        .uint("quanta", sched.quanta as u64)
        .uint("steals", sched.steals as u64)
        .uint("contended_probes", sched.contended_probes as u64)
        .uint("deferrals", sched.deferrals as u64)
        .uint("envelope_deferrals", sched.envelope_deferrals as u64)
        .uint("resurrections", sched.resurrections as u64)
        .uint("workspaces_created", sched.scratch.created as u64)
        .uint("workspace_checkouts", sched.scratch.checkouts as u64)
}

/// The first position where two pool sizes' `det` payloads differ.
#[derive(Debug, Clone, PartialEq)]
pub struct DetMismatch {
    /// Record index (in emission order).
    pub index: usize,
    /// The serial run's payload (`None`: the serial run has fewer records).
    pub serial: Option<String>,
    /// The pooled run's payload (`None`: the pooled run has fewer records).
    pub pooled: Option<String>,
}

impl fmt::Display for DetMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |p: &Option<String>| p.clone().unwrap_or_else(|| "<missing>".into());
        write!(
            f,
            "det record {} differs\n  serial: {}\n  pooled: {}",
            self.index,
            show(&self.serial),
            show(&self.pooled)
        )
    }
}

/// Byte-compares the `det` payloads of a serial and a pooled run.
pub fn compare_det(serial: &[String], pooled: &[String]) -> Result<(), DetMismatch> {
    let n = serial.len().max(pooled.len());
    match (0..n).find(|&i| serial.get(i) != pooled.get(i)) {
        None => Ok(()),
        Some(index) => Err(DetMismatch {
            index,
            serial: serial.get(index).cloned(),
            pooled: pooled.get(index).cloned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archytas_fleet::{run_fleet, scaling_fleet_specs, FleetConfig};

    fn args(s: &str, allowed: &[&str]) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from), allowed)
    }

    const SERVE: &[&str] = &["<mode>", "--workers", "--seconds", "--quick", "--seed"];

    #[test]
    fn parser_reads_lists_numbers_and_modes() {
        let a = args("sweep --workers 2,4 --seconds 1.5 --quick --seed 9", SERVE).unwrap();
        assert_eq!(a.mode.as_deref(), Some("sweep"));
        assert_eq!(a.workers, Some(vec![2, 4]));
        assert_eq!(a.seconds, Some(1.5));
        assert_eq!(a.seed, Some(9));
        assert!(a.quick);
    }

    #[test]
    fn parser_rejects_zero_counts_and_unknown_input() {
        let admit = &["--sessions", "--sample"];
        for bad in ["--sessions 0", "--sample 0", "--sessions 4,0"] {
            let e = args(bad, admit).unwrap_err();
            assert!(e.contains("at least 1"), "{bad}: {e}");
        }
        assert!(args("batch --workers 0", SERVE).is_err());
        assert!(args("--sample 1,2", admit).is_err());
        assert!(args("--budget-w 3", SERVE).is_err(), "flag not allowed");
        assert!(args("batch obs", SERVE).is_err(), "two modes");
        assert!(args("batch", admit).is_err(), "no mode expected");
        assert!(args("batch --seconds -1", SERVE).is_err());
        assert!(args("batch --seconds", SERVE).is_err());
    }

    /// Top-level keys of a flat JSON object rendered by [`JsonLine`].
    fn keys(json: &str) -> Vec<String> {
        json.trim_matches(|c| c == '{' || c == '}')
            .split(',')
            .map(|kv| kv.split(':').next().unwrap().trim_matches('"').to_string())
            .collect()
    }

    #[test]
    fn run_timing_has_one_key_set_for_every_mode() {
        let specs = scaling_fleet_specs(3, 1.0);
        // The configurations the batch, sweep and obs envelope modes serve.
        let configs = [
            FleetConfig::default(),
            FleetConfig {
                threads: 2,
                max_active: 64,
                ..FleetConfig::default()
            },
            FleetConfig {
                power_envelope_w: 1e-9,
                ..FleetConfig::default()
            },
        ];
        let expected = [
            "workers",
            "cpus",
            "sessions",
            "completed",
            "quarantined",
            "shed",
            "deferred",
            "session_restarts",
            "deadline_misses",
            "frames",
            "windows",
            "serving_wall_s",
            "throughput_fps",
            "p50_us",
            "p95_us",
            "p99_us",
            "model_evaluations",
            "model_cache_hits",
            "gating_builds",
            "gating_hits",
            "quanta",
            "steals",
            "contended_probes",
            "deferrals",
            "envelope_deferrals",
            "resurrections",
            "workspaces_created",
            "workspace_checkouts",
        ];
        for config in &configs {
            let timing = run_timing(&run_fleet(&specs, config)).finish();
            assert_eq!(keys(&timing), expected, "{timing}");
        }
    }

    #[test]
    fn det_compare_passes_across_pools_and_reports_a_flipped_byte() {
        let specs = scaling_fleet_specs(4, 1.5);
        let det = |threads| -> Vec<String> {
            let config = FleetConfig {
                threads,
                ..FleetConfig::default()
            };
            run_fleet(&specs, &config)
                .sessions
                .iter()
                .map(|s| session_det(s).finish())
                .collect()
        };
        let serial = det(1);
        let pooled = det(2);
        assert_eq!(compare_det(&serial, &pooled), Ok(()));

        let mut flipped = pooled.clone();
        let mut bytes = flipped[2].clone().into_bytes();
        let at = flipped[2].find("\"digest\":\"").unwrap() + 10;
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        flipped[2] = String::from_utf8(bytes).unwrap();
        let mismatch = compare_det(&serial, &flipped).unwrap_err();
        assert_eq!(mismatch.index, 2);
        assert_eq!(mismatch.serial.as_deref(), Some(serial[2].as_str()));
        assert_eq!(mismatch.pooled.as_deref(), Some(flipped[2].as_str()));
        assert!(mismatch.to_string().contains("det record 2 differs"));

        let short = compare_det(&serial, &pooled[..3]).unwrap_err();
        assert_eq!((short.index, short.pooled), (3, None));
    }
}
