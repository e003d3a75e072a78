//! The fleet scheduler: one shared run queue that time-slices many
//! sessions over a few worker threads, each owning one solver workspace.
//!
//! # Queues
//!
//! Runnable sessions wait on one run queue shared by every worker:
//! activations join at the back, a worker requeues the session it just ran
//! at the front. The canonical pop order lives on [`acquire`] — the *only*
//! statement of it; everything else links here.
//!
//! # Why any schedule produces the same bits
//!
//! A session index lives in **exactly one** place at a time — the run
//! queue, the deferred queue, the resurrect queue, the admission queue, or
//! held by the worker currently executing a quantum. Workers therefore
//! never run two quanta of the same session concurrently, and a session's
//! frames are processed strictly in order. Since a quantum is a pure
//! function of the session's own state (sessions share only immutable
//! caches, and a worker's solver workspace is rewritten before it is read),
//! the stream of per-session results is independent of which worker ran
//! which quantum and of the pool size. Scheduling decides only
//! *interleaving*, and interleaving is unobservable to a session.
//!
//! # Backpressure
//!
//! When the count of runnable sessions reaches `defer_watermark`, workers
//! park `Low`-priority sessions on a deferred queue instead of requeueing
//! them; they resume (FIFO) as soon as the runnable count drops below the
//! resume watermark. Deferral changes completion *order*, never outputs,
//! and a deferred session can only wait while other work exists — the pool
//! never idles with a non-empty deferred queue.
//!
//! # Churn
//!
//! A session whose spec carries a future `arrival_round` sits in the
//! admission queue until the executed-quanta clock reaches it — the same
//! deterministic logical clock the restart ladder's backoff uses. If every
//! remaining session is parked behind a future logical time, the earliest
//! one is fast-forwarded so the pool cannot idle forever (timing-only,
//! contract-safe).
//!
//! # Fault isolation
//!
//! A quantum whose step fails (panic, deadline quarantine — the catch
//! happens *inside* [`SessionState::step_guarded`], under the slot lock,
//! so no `Mutex` is ever poisoned) consults the restart ladder. With
//! budget left, the session parks on the **resurrect queue** until its
//! backoff expires, then re-enters through the normal admission queue.
//! Without budget, the session is terminally quarantined: its slot is
//! reaped exactly like a completion, so neighbors keep their workers and
//! their bits.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use archytas_slam::SolverWorkspace;

use crate::session::{Priority, SessionReport, SessionState, StepOutcome};
use crate::FleetConfig;

/// Counters describing how the run was scheduled (timing-dependent;
/// excluded from the determinism contract).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Always 0: the scheduler has one run queue and nothing to steal from.
    /// Kept only because the standalone benchmark reads it; removed with
    /// the benchmark's next change.
    pub steals: usize,
    /// Always 0: no queue is probed with `try_lock`. Kept only because the
    /// standalone benchmark reads it; removed with the benchmark's next
    /// change.
    pub contended_probes: usize,
    /// Times a `Low` session was parked on the deferred queue.
    pub deferrals: usize,
    /// Quanta executed in total.
    pub quanta: usize,
    /// Sessions parked on the resurrect queue (restart ladder).
    pub resurrections: usize,
    /// Sessions whose *start* was deferred by the power envelope: on first
    /// activation they park on the deferred queue instead of the run queue.
    pub envelope_deferrals: usize,
    /// Solver-workspace counts, fixed by the worker count and the quanta.
    /// Kept only because the standalone benchmark reads it; removed with
    /// the benchmark's next change.
    pub scratch: ScratchStats,
}

/// Solver-workspace counts of one run: each worker owns one workspace and
/// runs every quantum it executes with it. Kept only because the
/// standalone benchmark reads it; removed with the benchmark's next change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Quanta run with a worker's workspace: equal to
    /// [`SchedulerStats::quanta`].
    pub checkouts: usize,
    /// Workspaces created: one per worker.
    pub created: usize,
}

struct Shared {
    /// Session slots, indexed like the input; `None` once finished.
    slots: Vec<Mutex<Option<SessionState>>>,
    reports: Vec<Mutex<Option<SessionReport>>>,
    /// Admitted sessions not yet activated (admission queue, FIFO among
    /// the arrival-eligible).
    waiting: Mutex<VecDeque<usize>>,
    /// Per-slot arrival round on the executed-quanta clock; a session is
    /// admission-eligible once the clock reaches it. Atomic so the
    /// anti-livelock fast-forward can promote one without extra locking.
    arrival: Vec<AtomicUsize>,
    /// Runnable sessions, shared by every worker.
    queue: Mutex<VecDeque<usize>>,
    /// Backpressured `Low` sessions.
    deferred: Mutex<VecDeque<usize>>,
    /// Failed sessions awaiting restart: `(slot, ready_at_quanta)`.
    resurrect: Mutex<Vec<(usize, usize)>>,
    /// One-shot per-slot flag: the power envelope deferred this session's
    /// start, so its *first* activation routes to the deferred queue. The
    /// flag clears on use — a later restart re-enters like anyone else.
    defer_at_start: Vec<AtomicBool>,
    /// Sessions currently activated and unfinished.
    active: AtomicUsize,
    /// Admitted sessions not yet finished (workers exit at zero).
    live: AtomicUsize,
    /// Runnable sessions: enqueued on the run queue.
    runnable: AtomicUsize,
    deferrals: AtomicUsize,
    quanta: AtomicUsize,
    resurrections: AtomicUsize,
    envelope_deferrals: AtomicUsize,
}

impl Shared {
    fn new(
        sessions: Vec<Option<SessionState>>,
        defer_at_start: Vec<bool>,
        arrival: Vec<usize>,
        order: VecDeque<usize>,
    ) -> Self {
        let live = order.len();
        let slot_count = sessions.len();
        Self {
            slots: sessions.into_iter().map(Mutex::new).collect(),
            reports: (0..slot_count).map(|_| Mutex::new(None)).collect(),
            waiting: Mutex::new(order),
            arrival: arrival.into_iter().map(AtomicUsize::new).collect(),
            defer_at_start: defer_at_start.into_iter().map(AtomicBool::new).collect(),
            queue: Mutex::new(VecDeque::new()),
            deferred: Mutex::new(VecDeque::new()),
            resurrect: Mutex::new(Vec::new()),
            active: AtomicUsize::new(0),
            live: AtomicUsize::new(live),
            runnable: AtomicUsize::new(0),
            deferrals: AtomicUsize::new(0),
            quanta: AtomicUsize::new(0),
            resurrections: AtomicUsize::new(0),
            envelope_deferrals: AtomicUsize::new(0),
        }
    }
}

/// Runs every session in `sessions` to completion and returns the reports
/// in slot order plus scheduling counters.
///
/// `defer_at_start[i]` marks slot `i` as envelope-deferred: it joins the
/// admission queue *behind* every immediately-admitted session (in arrival
/// order within each group — a pure function of the decision vector, so
/// identical at every pool size) and its first activation parks on the
/// deferred queue, resuming only once the runnable backlog has drained.
/// `arrival[i]` is the executed-quanta round at which slot `i` becomes
/// admission-eligible (`0` = at startup).
pub(crate) fn run(
    sessions: Vec<Option<SessionState>>,
    defer_at_start: Vec<bool>,
    arrival: Vec<usize>,
    cfg: &FleetConfig,
) -> (Vec<Option<SessionReport>>, SchedulerStats) {
    let threads = cfg.threads.max(1);
    let live_slots: Vec<usize> = sessions
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_some().then_some(i))
        .collect();
    let order: VecDeque<usize> = live_slots
        .iter()
        .filter(|&&i| !defer_at_start[i])
        .chain(live_slots.iter().filter(|&&i| defer_at_start[i]))
        .copied()
        .collect();
    let shared = Shared::new(sessions, defer_at_start, arrival, order);

    if threads == 1 {
        // Serial fast path: same code, no thread spawn.
        worker(&shared, cfg);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let shared = &shared;
                scope.spawn(move || worker(shared, cfg));
            }
        });
    }

    let quanta = shared.quanta.load(Ordering::Relaxed);
    let stats = SchedulerStats {
        steals: 0,
        contended_probes: 0,
        deferrals: shared.deferrals.load(Ordering::Relaxed),
        quanta,
        resurrections: shared.resurrections.load(Ordering::Relaxed),
        envelope_deferrals: shared.envelope_deferrals.load(Ordering::Relaxed),
        scratch: ScratchStats {
            checkouts: quanta,
            created: threads,
        },
    };
    let reports = shared
        .reports
        .into_iter()
        .map(|m| m.into_inner().unwrap())
        .collect();
    (reports, stats)
}

fn worker(sh: &Shared, cfg: &FleetConfig) {
    // Pure scratch: every buffer is rewritten before it is read, so which
    // worker's workspace a quantum runs with never changes the session's
    // bits, and the fleet holds one workspace per worker, not per session.
    let mut workspace = SolverWorkspace::new();
    while sh.live.load(Ordering::SeqCst) != 0 {
        promote_resurrections(sh);
        admit_up_to_capacity(sh, cfg);
        let Some(i) = acquire(sh, cfg) else {
            fast_forward_if_idle(sh);
            std::thread::yield_now();
            continue;
        };
        sh.quanta.fetch_add(1, Ordering::Relaxed);
        let mut slot = sh.slots[i].lock().unwrap();
        let state = slot
            .as_mut()
            .expect("a queued session index always has live state");
        let mut outcome = StepOutcome::Progress;
        for _ in 0..cfg.frames_per_quantum.max(1) {
            outcome = state.step_guarded(&mut workspace);
            // A wedged step (Stalled) consumes the rest of this quantum —
            // one Stalled return costs exactly one scheduler round, the
            // same unit the serial-alone loop charges, so the logical
            // deadline clock agrees between fleet and alone.
            if outcome != StepOutcome::Progress {
                break;
            }
        }
        match outcome {
            StepOutcome::Done => {
                let state = slot.take().unwrap();
                drop(slot);
                *sh.reports[i].lock().unwrap() = Some(state.finish());
                sh.active.fetch_sub(1, Ordering::SeqCst);
                sh.live.fetch_sub(1, Ordering::SeqCst);
            }
            StepOutcome::Failed => {
                let restart = slot.as_mut().unwrap().try_schedule_restart();
                match restart {
                    Some(backoff) => {
                        // The slot keeps the (checkpoint-restored) state;
                        // only its scheduling claim is released. It will
                        // re-enter through the admission queue once the
                        // backoff expires on the quanta clock.
                        drop(slot);
                        let ready_at = sh.quanta.load(Ordering::Relaxed) + backoff;
                        sh.resurrect.lock().unwrap().push((i, ready_at));
                        sh.resurrections.fetch_add(1, Ordering::Relaxed);
                        sh.active.fetch_sub(1, Ordering::SeqCst);
                    }
                    None => {
                        // Terminal quarantine: reaped like a completion so
                        // the pool keeps serving everyone else.
                        let state = slot.take().unwrap();
                        drop(slot);
                        *sh.reports[i].lock().unwrap() = Some(state.finish_quarantined());
                        sh.active.fetch_sub(1, Ordering::SeqCst);
                        sh.live.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            StepOutcome::Progress | StepOutcome::Stalled => {
                let low = slot.as_ref().unwrap().priority() == Priority::Low;
                drop(slot);
                release(sh, i, low, cfg);
            }
        }
    }
}
/// Moves restart-ladder sessions whose backoff has expired (on the
/// executed-quanta clock) back onto the admission queue, so a revived
/// session re-enters through the same capacity gate as a new arrival.
fn promote_resurrections(sh: &Shared) {
    let mut resurrect = sh.resurrect.lock().unwrap();
    if resurrect.is_empty() {
        return;
    }
    let now = sh.quanta.load(Ordering::Relaxed);
    let mut waiting = sh.waiting.lock().unwrap();
    resurrect.retain(|&(i, ready_at)| {
        if ready_at <= now {
            waiting.push_back(i);
            false
        } else {
            true
        }
    });
}

/// Activates arrival-eligible waiting sessions while the active set has
/// capacity. `active` is only incremented under the `waiting` lock, so the
/// cap holds. Activations go to the back of the run queue.
///
/// An envelope-deferred session activates into the *deferred* queue (its
/// one-shot flag clears here): it consumes an active slot — so completion
/// accounting stays uniform — but is not runnable, and therefore only
/// starts once the runnable backlog drains below the resume watermark.
fn admit_up_to_capacity(sh: &Shared, cfg: &FleetConfig) {
    let now = sh.quanta.load(Ordering::Relaxed);
    let mut waiting = sh.waiting.lock().unwrap();
    let mut idx = 0;
    while idx < waiting.len() && sh.active.load(Ordering::SeqCst) < cfg.max_active.max(1) {
        if sh.arrival[waiting[idx]].load(Ordering::Relaxed) > now {
            idx += 1; // not yet arrived: hold, but keep admitting behind it
            continue;
        }
        let i = waiting.remove(idx).unwrap();
        sh.active.fetch_add(1, Ordering::SeqCst);
        if sh.defer_at_start[i].swap(false, Ordering::SeqCst) {
            sh.deferred.lock().unwrap().push_back(i);
            sh.envelope_deferrals.fetch_add(1, Ordering::Relaxed);
        } else {
            sh.queue.lock().unwrap().push_back(i);
            sh.runnable.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Anti-livelock for the logical clock: the executed-quanta clock only
/// advances while some session runs, so if *every* remaining session is
/// parked behind a future logical time (restart backoff or a churn arrival
/// round), the earliest such wakeup is fast-forwarded to now. Backoff and
/// arrival rounds shape timing, never outputs, so this is contract-safe.
fn fast_forward_if_idle(sh: &Shared) {
    if sh.runnable.load(Ordering::SeqCst) != 0 || sh.active.load(Ordering::SeqCst) != 0 {
        return;
    }
    let now = sh.quanta.load(Ordering::Relaxed);
    let mut resurrect = sh.resurrect.lock().unwrap();
    let mut waiting = sh.waiting.lock().unwrap();
    // Another worker may have replenished between the counter check and
    // taking the locks; promoting one extra session early is harmless
    // (timing-only), so no re-check is needed.
    let earliest_res = resurrect
        .iter()
        .enumerate()
        .min_by_key(|&(_, &(slot, ready_at))| (ready_at, slot))
        .map(|(pos, &(_, ready_at))| (ready_at, pos));
    let earliest_arr = waiting
        .iter()
        .map(|&i| (sh.arrival[i].load(Ordering::Relaxed), i))
        .min();
    match (earliest_res, earliest_arr) {
        // Earliest wakeup is a resurrection still in the future: pull it
        // forward by re-queueing it through `waiting` (its arrival round
        // is already <= now, so admission picks it up immediately).
        (Some((res_at, pos)), arr)
            if arr.is_none_or(|(arr_at, _)| res_at <= arr_at) && res_at > now =>
        {
            let (i, _) = resurrect.remove(pos);
            waiting.push_back(i);
        }
        // Earliest wakeup is a resurrection that is already due: the next
        // promote_resurrections pass runs it, and fast-forwarding a later
        // arrival past it would reorder admission — do nothing.
        (Some((res_at, _)), arr) if arr.is_none_or(|(arr_at, _)| res_at <= arr_at) => {}
        (_, Some((arr_at, i))) if arr_at > now => {
            sh.arrival[i].store(now, Ordering::Relaxed);
        }
        _ => {}
    }
}

/// Takes the next session for a worker.
///
/// **Canonical pop order** (the single authoritative statement — module
/// docs, DESIGN.md and the `pop_order_is_one_queue_then_deferred` test all
/// defer to this list):
///
/// 1. the run queue (front): a session a worker just requeued, then the
///    activations in arrival order;
/// 2. the deferred queue (front), only once the runnable backlog has
///    drained below the resume watermark.
///
/// At one worker the session that just ran is therefore run again until it
/// finishes, fails or is deferred.
fn acquire(sh: &Shared, cfg: &FleetConfig) -> Option<usize> {
    if let Some(i) = sh.queue.lock().unwrap().pop_front() {
        sh.runnable.fetch_sub(1, Ordering::SeqCst);
        return Some(i);
    }
    if sh.runnable.load(Ordering::SeqCst) < resume_watermark(cfg) {
        if let Some(i) = sh.deferred.lock().unwrap().pop_front() {
            return Some(i);
        }
    }
    None
}

/// Requeues an unfinished session: `Low` sessions park on the deferred
/// queue while the runnable backlog is at or above the watermark;
/// everything else goes back on the front of the run queue.
fn release(sh: &Shared, i: usize, low: bool, cfg: &FleetConfig) {
    if low && sh.runnable.load(Ordering::SeqCst) >= cfg.defer_watermark {
        sh.deferred.lock().unwrap().push_back(i);
        sh.deferrals.fetch_add(1, Ordering::Relaxed);
    } else {
        sh.queue.lock().unwrap().push_front(i);
        sh.runnable.fetch_add(1, Ordering::SeqCst);
    }
}

/// Deferred sessions resume once fewer runnable sessions remain than half
/// the defer watermark (at least one, so a deferred-only fleet always
/// makes progress).
fn resume_watermark(cfg: &FleetConfig) -> usize {
    (cfg.defer_watermark / 2).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Empty slots with the given start-deferral flags, all arrived at
    /// startup and waiting for admission in slot order.
    fn test_shared(defer_at_start: &[bool]) -> Shared {
        let n = defer_at_start.len();
        Shared::new(
            (0..n).map(|_| None).collect(),
            defer_at_start.to_vec(),
            vec![0; n],
            (0..n).collect(),
        )
    }

    /// Single-thread replay of [`acquire`]'s canonical pop order through
    /// the real admission and requeue paths: a requeued session pops before
    /// an earlier activation, activations pop in arrival order, and the
    /// deferred queue pops last.
    #[test]
    fn pop_order_is_one_queue_then_deferred() {
        let cfg = FleetConfig {
            max_active: 8,
            defer_watermark: 16,
            ..FleetConfig::default()
        };
        // Slot 3's start is envelope-deferred.
        let sh = test_shared(&[false, false, false, true]);
        admit_up_to_capacity(&sh, &cfg);
        assert_eq!(sh.runnable.load(Ordering::SeqCst), 3);

        assert_eq!(acquire(&sh, &cfg), Some(0));
        release(&sh, 0, false, &cfg);
        let drained: Vec<Option<usize>> = (0..5).map(|_| acquire(&sh, &cfg)).collect();
        assert_eq!(
            drained,
            vec![Some(0), Some(1), Some(2), Some(3), None],
            "pop order must be: requeued session, activations in arrival \
             order, deferred"
        );
        assert_eq!(sh.runnable.load(Ordering::SeqCst), 0);
    }

    /// The deferred tier stays fenced while the runnable backlog is at or
    /// above the resume watermark.
    #[test]
    fn deferred_tier_respects_resume_watermark() {
        let cfg = FleetConfig {
            max_active: 8,
            defer_watermark: 4,
            ..FleetConfig::default()
        };
        let sh = test_shared(&[]);
        sh.deferred.lock().unwrap().push_back(9);
        sh.runnable.store(2, Ordering::SeqCst); // watermark/2 = 2: fenced
        assert_eq!(acquire(&sh, &cfg), None);
        sh.runnable.store(1, Ordering::SeqCst); // below: resumes
        assert_eq!(acquire(&sh, &cfg), Some(9));
    }
}
