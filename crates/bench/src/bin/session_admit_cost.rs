//! Session admission-cost microbench: what does an admitted-but-idle
//! session cost, in nanoseconds and resident bytes?
//!
//! A counting global allocator meters live heap bytes while the bench
//! admits `--sessions` (default 2000) idle sessions through the same
//! [`AdmittedSession::admit`] path `run_fleet` uses. For the "former"
//! cost — what each admitted session used to pay before state pooling —
//! it activates a sample of sessions (building their frame streams and
//! restart checkpoints) and grows one private `SolverWorkspace` per
//! sampled session by stepping it to its first optimized window, exactly
//! the per-session residency of the pre-pooling fleet layer.
//!
//! Emits one `REC` line (mode `admit`) and exits 1 when idle bytes reach
//! [`ADMIT_MAX_PCT`] of the former per-session cost. A separate bin from
//! `serve` because its counting global allocator would meter every
//! serving mode.
//!
//! Usage: `session_admit_cost [--sessions N] [--sample K] [--seconds S]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use archytas_bench::json::{rec_line, JsonLine};
use archytas_bench::serve::Args;
use archytas_fleet::{scaling_fleet_specs, AdmittedSession, FleetConfig, FleetServices};
use archytas_slam::SolverWorkspace;

/// Allocator wrapper keeping a live-bytes counter. Alloc/dealloc symmetry
/// is all the bench needs; per-thread attribution is irrelevant because
/// the measurement sections are single-threaded.
struct CountingAlloc;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }
}

/// Ceiling on admitted-idle bytes as a percentage of the former private
/// per-session cost.
const ADMIT_MAX_PCT: f64 = 10.0;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

fn main() {
    let args = Args::from_env(
        "session_admit_cost [--sessions N] [--sample K] [--seconds S]",
        &["--sessions", "--sample", "--seconds"],
    );
    let sessions = match args.sessions.as_deref() {
        None => 2000,
        Some(&[n]) => n,
        Some(_) => {
            eprintln!("error: --sessions takes one value");
            std::process::exit(2);
        }
    };
    let sample = args.sample.unwrap_or(16).min(sessions);
    let seconds = args.seconds.unwrap_or(1.2);

    let specs = scaling_fleet_specs(sessions, seconds);
    // Builds the fleet-wide gating table and model outside the measured
    // section: they are per-fleet costs, not per-session ones.
    let services = FleetServices::new(&FleetConfig::default());

    // Admitted-idle cost: ns and live bytes per session, the new steady
    // state of a 2000-session fleet where most sessions await activation.
    let bytes_before = live();
    let t0 = Instant::now();
    let mut admitted: Vec<AdmittedSession> = specs
        .iter()
        .map(|spec| AdmittedSession::admit(spec, &services))
        .collect();
    let admit_ns = t0.elapsed().as_nanos() as u64 / sessions as u64;
    let idle_bytes = (live().saturating_sub(bytes_before)) / sessions as u64;

    // Former per-session cost: activation (frame stream + checkpoint) plus
    // a private workspace grown to working size — what every admitted
    // session owned before pooling, measured on a sample.
    let bytes_active_before = live();
    let t1 = Instant::now();
    for s in admitted.iter_mut().take(sample) {
        s.activate();
    }
    let activate_ns = t1.elapsed().as_nanos() as u64 / sample as u64;
    let activation_bytes = (live().saturating_sub(bytes_active_before)) / sample as u64;

    let bytes_ws_before = live();
    let mut grown: Vec<Box<SolverWorkspace>> = Vec::with_capacity(sample);
    for s in admitted.iter_mut().take(sample) {
        let mut ws = Box::new(SolverWorkspace::new());
        while s.windows() == 0 && s.step(&mut ws) {}
        grown.push(ws);
    }
    let workspace_bytes = (live().saturating_sub(bytes_ws_before)) / sample as u64;
    let former_bytes = idle_bytes + activation_bytes + workspace_bytes;
    let ratio_pct = idle_bytes as f64 / former_bytes as f64 * 100.0;
    drop(grown);

    let timing = JsonLine::new()
        .uint("sessions", sessions as u64)
        .uint("sample", sample as u64)
        .float("seconds", seconds, 2)
        .uint("admit_ns_per_session", admit_ns)
        .uint("idle_bytes_per_session", idle_bytes)
        .uint("activate_ns_per_session", activate_ns)
        .uint("activation_bytes_per_session", activation_bytes)
        .uint("workspace_bytes_per_session", workspace_bytes)
        .uint("former_bytes_per_session", former_bytes)
        .float("ratio_pct", ratio_pct, 2);
    println!("{}", rec_line("admit", "admit", "{}", &timing.finish()));
    eprintln!(
        "admitted-idle: {admit_ns} ns, {idle_bytes} B/session; former \
         (activation {activation_bytes} B + workspace {workspace_bytes} B): \
         {former_bytes} B/session — idle is {ratio_pct:.2}% of former \
         (ceiling {ADMIT_MAX_PCT}%)"
    );
    if ratio_pct >= ADMIT_MAX_PCT {
        eprintln!("admission gate FAILED: idle/former {ratio_pct:.2}% >= {ADMIT_MAX_PCT}%");
        std::process::exit(1);
    }
}
