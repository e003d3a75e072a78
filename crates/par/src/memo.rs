//! Exactly-once memoization for hardware-model evaluations.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A concurrent cache that computes each key's value **exactly once**, even
/// under parallel lookups of the same key.
///
/// The map itself is guarded by a mutex held only for the slot lookup; the
/// (possibly expensive) computation runs outside the lock through a per-key
/// [`OnceLock`], so distinct keys never serialize on each other and a
/// duplicate lookup blocks only on its own key's first computation.
///
/// Hit/miss counters make "evaluated exactly once" testable: after a sweep,
/// `misses()` must equal the number of distinct keys.
pub struct Memo<K, V> {
    slots: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<K, V> std::fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }
}

impl<K, V> Memo<K, V> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys cached so far.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("memo poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran `compute` (== distinct keys ever requested).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// Returns the cached value for `key`, computing it with `compute` on
    /// first use. `compute` runs at most once per key across all threads.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let slot = {
            let mut slots = self.slots.lock().expect("memo poisoned");
            slots.entry(key).or_default().clone()
        };
        // First caller through wins the OnceLock init; everyone else either
        // sees the value immediately (hit) or waits for it below.
        let mut computed = false;
        let value = slot.get_or_init(|| {
            computed = true;
            compute()
        });
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;

    #[test]
    fn computes_each_key_once() {
        let memo: Memo<u32, u64> = Memo::new();
        let calls = AtomicUsize::new(0);
        for i in [3u32, 5, 3, 7, 5, 3] {
            let v = memo.get_or_compute(i, || {
                calls.fetch_add(1, Ordering::Relaxed);
                u64::from(i) * 10
            });
            assert_eq!(v, u64::from(i) * 10);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(memo.misses(), 3);
        assert_eq!(memo.hits(), 3);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn exactly_once_under_parallel_lookups() {
        let memo: Memo<usize, usize> = Memo::new();
        let calls = AtomicUsize::new(0);
        let keys: Vec<usize> = (0..512).map(|i| i % 16).collect();
        let pool = Pool::with_threads(8).with_serial_threshold(0);
        let got = pool.par_map(&keys, |&k| {
            memo.get_or_compute(k, || {
                calls.fetch_add(1, Ordering::Relaxed);
                k * k
            })
        });
        assert!(got.iter().zip(&keys).all(|(v, k)| *v == k * k));
        assert_eq!(calls.load(Ordering::Relaxed), 16, "one compute per key");
        assert_eq!(memo.misses(), 16);
        assert_eq!(memo.hits() + memo.misses(), 512);
    }
}
