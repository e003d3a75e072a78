//! Scoped worker pool over [`std::thread::scope`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default minimum number of work items before [`Pool::par_map`] goes
/// parallel. Below this, thread spawn + synchronization overhead dwarfs the
/// work; the map runs serially and is still bit-identical.
pub const DEFAULT_SERIAL_THRESHOLD: usize = 64;

thread_local! {
    // Set while a closure runs inside one of our workers; nested par_map
    // calls observe it and degrade to serial instead of oversubscribing the
    // machine with scopes-within-scopes.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

struct WorkerGuard;

impl WorkerGuard {
    fn enter() -> WorkerGuard {
        IN_WORKER.with(|f| f.set(true));
        WorkerGuard
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|f| f.set(false));
    }
}

/// Runs `f` with this thread marked as a pool worker, so any nested
/// [`Pool::par_map`] inside `f` degrades to serial.
///
/// This is for *embedding* schedulers (e.g. the fleet serving layer) that
/// spawn their own threads outside this crate: each of their workers already
/// occupies a core, so letting a nested sweep fork another scope inside one
/// would oversubscribe the machine. Marking the thread costs one
/// thread-local write and changes no results — `par_map` is bit-identical
/// serial vs parallel by contract.
pub fn run_as_worker<R>(f: impl FnOnce() -> R) -> R {
    let _guard = WorkerGuard::enter();
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
/// The pool is a *policy* object (thread count + serial threshold), not a set
/// of persistent threads: each [`Pool::par_map`] spawns scoped workers for
/// its own call and joins them before returning, so borrows of caller data
/// need no `'static` lifetime and no shutdown protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
    serial_threshold: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::global()
    }
}

impl Pool {
    /// The environment-configured pool: `ARCHYTAS_THREADS` threads (0,
    /// unset or garbage → the hardware thread count) and an
    /// `ARCHYTAS_PAR_THRESHOLD` serial-fallback threshold (default
    /// [`DEFAULT_SERIAL_THRESHOLD`]). Both variables are re-read on every
    /// call; the hardware thread count is measured once per process.
    pub fn global() -> Pool {
        let threads = match env_usize("ARCHYTAS_THREADS") {
            Some(n) if n > 0 => n,
            _ => hardware_threads(),
        };
        let serial_threshold =
            env_usize("ARCHYTAS_PAR_THRESHOLD").unwrap_or(DEFAULT_SERIAL_THRESHOLD);
        Pool {
            threads,
            serial_threshold,
        }
    }

    /// A pool with an explicit thread count (minimum 1).
    pub fn with_threads(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
            serial_threshold: DEFAULT_SERIAL_THRESHOLD,
        }
    }

    /// Returns this pool with a different serial-fallback threshold.
    /// `0` forces every call down the parallel path (used by the
    /// equivalence tests).
    pub fn with_serial_threshold(self, serial_threshold: usize) -> Pool {
        Pool {
            serial_threshold,
            ..self
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Configured serial-fallback threshold (work items).
    pub fn serial_threshold(&self) -> usize {
        self.serial_threshold
    }

    /// Whether a job of `work_items` independent items takes the parallel
    /// path on this pool (more than one thread, enough work, and not already
    /// inside a worker).
    ///
    /// Nested dispatch degrades to serial on the *inner* level only: a map
    /// called from inside one of this crate's workers sees `false` here, but
    /// the enclosing (outer) parallel region is unaffected.
    pub fn should_parallelize(&self, work_items: usize) -> bool {
        self.threads > 1 && work_items >= self.serial_threshold.max(2) && !in_worker()
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Bit-identical to `items.iter().map(f).collect()` for any thread
    /// count: each element is mapped exactly once and results are reassembled
    /// by index.
    pub fn par_map<T: Sync, U: Send>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
        if !self.should_parallelize(items.len()) {
            return items.iter().map(f).collect();
        }
        // Small fixed chunks + dynamic claiming load-balance uneven items
        // (e.g. synthesizer stripes) without affecting output order.
        let chunk_size = (items.len() / (4 * self.threads)).max(1);
        let n_chunks = items.len().div_ceil(chunk_size);
        let next = AtomicUsize::new(0);
        let f = &f;
        let mut pieces: Vec<(usize, Vec<U>)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..self.threads.min(n_chunks))
                .map(|_| {
                    s.spawn(|| {
                        let _guard = WorkerGuard::enter();
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
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("par_map worker panicked"))
                .collect()
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

    fn forced(threads: usize) -> Pool {
        Pool::with_threads(threads).with_serial_threshold(0)
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let got = forced(threads).par_map(&items, |&x| x * x);
            let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_small_and_empty() {
        let empty: Vec<u32> = Vec::new();
        assert!(forced(4).par_map(&empty, |&x| x).is_empty());
        assert_eq!(forced(4).par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn nested_calls_degrade_to_serial() {
        let outer: Vec<usize> = (0..64).collect();
        let got = forced(4).par_map(&outer, |&i| {
            // should_parallelize must report false inside a worker.
            assert!(!forced(4).should_parallelize(1_000_000));
            let inner: Vec<usize> = (0..100).collect();
            forced(4).par_map(&inner, move |&j| i * 1000 + j).len()
        });
        assert!(got.iter().all(|&n| n == 100));
    }

    #[test]
    fn serial_threshold_gates_parallelism() {
        let p = Pool::with_threads(8).with_serial_threshold(50);
        assert!(!p.should_parallelize(49));
        assert!(p.should_parallelize(50));
        assert!(!Pool::with_threads(1).should_parallelize(1_000_000));
    }
}
