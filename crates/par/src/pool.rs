//! Scoped worker pool over [`std::thread::scope`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `f`. A pass-through, kept only because the standalone benchmark
/// (`benchmark/src/fleet.rs`) calls it around its serial replays.
pub fn run_as_worker<R>(f: impl FnOnce() -> R) -> R {
    f()
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Hardware thread count, measured once per process:
/// [`std::thread::available_parallelism`] re-reads cgroup files on every
/// call.
fn hardware_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A scoped worker pool.
///
/// The pool is a *policy* object (a thread count), not a set of persistent
/// threads: each parallel [`Pool::par_map`] spawns `threads − 1` scoped
/// workers for its own call, runs the same chunk-claiming loop on the
/// calling thread as the last worker, and joins the spawned ones before
/// returning, so borrows of caller data need no `'static` lifetime and no
/// shutdown protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// The environment-configured pool: `ARCHYTAS_THREADS` threads (0,
    /// unset or garbage → the hardware thread count). The variable is
    /// re-read on every call; the hardware thread count is measured once
    /// per process.
    pub fn global() -> Pool {
        let threads = match env_usize("ARCHYTAS_THREADS") {
            Some(n) if n > 0 => n,
            _ => hardware_threads(),
        };
        Pool { threads }
    }

    /// A pool with an explicit thread count (minimum 1).
    pub fn with_threads(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a job of `work_items` independent items takes the parallel
    /// path on this pool (more than one thread and at least two items).
    pub fn should_parallelize(&self, work_items: usize) -> bool {
        self.threads > 1 && work_items >= 2
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Bit-identical to `items.iter().map(f).collect()` for any thread
    /// count: each element is mapped exactly once and results are reassembled
    /// by index.
    ///
    /// On the parallel path the calling thread claims chunks too. A panic
    /// in `f` — on any thread — propagates to the caller only after every
    /// spawned worker has joined.
    pub fn par_map<T: Sync, U: Send>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
        if !self.should_parallelize(items.len()) {
            return items.iter().map(f).collect();
        }
        // Small fixed chunks + dynamic claiming load-balance uneven items
        // (e.g. suite sequences of different lengths) without affecting
        // output order.
        let chunk_size = (items.len() / (4 * self.threads)).max(1);
        let n_chunks = items.len().div_ceil(chunk_size);
        let next = AtomicUsize::new(0);
        let f = &f;
        // One chunk-claiming loop, run by every spawned worker and by the
        // calling thread itself, which would otherwise only wait at the join.
        let claim_chunks = || {
            let mut local: Vec<(usize, Vec<U>)> = Vec::new();
            loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(items.len());
                local.push((c, items[lo..hi].iter().map(f).collect()));
            }
            local
        };
        let mut pieces: Vec<(usize, Vec<U>)> = std::thread::scope(|s| {
            let workers: Vec<_> = (1..self.threads.min(n_chunks))
                .map(|_| s.spawn(claim_chunks))
                .collect();
            // A panic here unwinds out of the scope, which joins the
            // spawned workers before it propagates.
            let mut pieces = claim_chunks();
            for w in workers {
                pieces.extend(w.join().expect("par_map worker panicked"));
            }
            pieces
        });
        pieces.sort_unstable_by_key(|(c, _)| *c);
        let mut out = Vec::with_capacity(items.len());
        for (_, mut piece) in pieces.drain(..) {
            out.append(&mut piece);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let got = Pool::with_threads(threads).par_map(&items, |&x| x * x);
            let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_small_and_empty() {
        let empty: Vec<u32> = Vec::new();
        assert!(Pool::with_threads(4).par_map(&empty, |&x| x).is_empty());
        assert_eq!(Pool::with_threads(4).par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn item_count_gates_parallelism() {
        let p = Pool::with_threads(8);
        assert!(!p.should_parallelize(1), "one item runs serially");
        assert!(p.should_parallelize(2), "two items run in parallel");
        assert!(!Pool::with_threads(1).should_parallelize(1_000_000));
    }

    #[test]
    fn caller_panic_propagates_after_workers_join() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        /// Waits on the barrier when dropped, i.e. while the caller's chunk
        /// unwinds.
        struct MeetOnUnwind<'a>(&'a Barrier);
        impl Drop for MeetOnUnwind<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        // Two threads, two items, chunk size 1: the `claimed` barrier holds
        // each thread to one chunk, so the caller maps one item and the
        // spawned worker the other. The worker finishes its item only after
        // the caller's chunk has started to unwind (`unwinding`), so the
        // panic is in flight while the worker still runs.
        let claimed = Barrier::new(2);
        let unwinding = Barrier::new(2);
        let worker_finished = AtomicBool::new(false);
        let caller = std::thread::current().id();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Pool::with_threads(2).par_map(&[0usize, 1], |&i| {
                claimed.wait();
                if std::thread::current().id() == caller {
                    let _meet = MeetOnUnwind(&unwinding);
                    panic!("item {i} failed on the calling thread");
                }
                unwinding.wait();
                std::thread::sleep(std::time::Duration::from_millis(20));
                worker_finished.store(true, Ordering::SeqCst);
                i
            })
        }));
        assert!(result.is_err(), "the caller's panic must propagate");
        assert!(
            worker_finished.load(Ordering::SeqCst),
            "the panic surfaced before the spawned worker joined"
        );
    }
}
