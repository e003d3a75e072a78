//! Percentile and frame-labelling helpers shared by every workload.

/// Percentile levels tried, highest first, when picking the tail to report,
/// in tenths of a percent (integers, so ranks carry no rounding error).
const TAIL_LEVELS: [u32; 5] = [999, 990, 950, 900, 500];

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille`/10 percentile in `n` samples.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty);
/// `permille` is the percentile in tenths of a percent (990 = p99).
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), permille) - 1]
}

/// The highest percentile of [`TAIL_LEVELS`] (in tenths of a percent) with
/// at least [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its rank.
pub fn tail_level(n: usize) -> Option<u32> {
    TAIL_LEVELS
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// Median of an unsorted sample (nearest rank; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 500)
}

/// One repetition of a workload's unit of work (a fleet batch or a sweep
/// pass): its throughput and every operation's time.
#[derive(Debug, Clone, PartialEq)]
pub struct Repetition {
    /// Operations completed per second of the repetition's wall time.
    pub ops_per_s: f64,
    /// Each operation's time (ms), ascending.
    pub op_ms: Vec<f64>,
}

impl Repetition {
    /// A repetition of `ops` operations taking `wall_s` in total.
    pub fn new(mut op_ms: Vec<f64>, ops: usize, wall_s: f64) -> Self {
        op_ms.sort_by(f64::total_cmp);
        Self {
            ops_per_s: ops as f64 / wall_s,
            op_ms,
        }
    }
}

/// The fastest time seen for each of a workload's distinct operations.
/// Every repetition replays identical deterministic work, so an
/// operation's fastest repeat is its cost under the least interference
/// from co-tenants of a shared host, which only ever adds time.
#[derive(Debug, Clone, Default)]
pub struct Fastest(Vec<f64>);

impl Fastest {
    /// `ops` operations, none timed yet.
    pub fn new(ops: usize) -> Self {
        Self(vec![f64::INFINITY; ops])
    }

    /// Records one repeat of operation `op` taking `ms`.
    pub fn record(&mut self, op: usize, ms: f64) {
        let best = &mut self.0[op];
        *best = best.min(ms);
    }

    /// Fastest repeat of operation `op` (ms; infinite if never timed).
    pub fn get(&self, op: usize) -> f64 {
        self.0[op]
    }
}

/// The end-to-end figures of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Operations per second of fastest-repeat time.
    pub ops_per_s: f64,
    /// Median over operations of each one's fastest repeat (ms).
    pub p50_ms: f64,
    /// 95th percentile over operations of each one's fastest repeat (ms).
    pub p95_ms: f64,
}

impl Summary {
    /// Figures from the fastest repeat of each operation, in any order
    /// (operations never timed are left out), and the throughput.
    pub fn new(mut fastest_ms: Vec<f64>, ops_per_s: f64) -> Self {
        fastest_ms.retain(|ms| ms.is_finite());
        fastest_ms.sort_by(f64::total_cmp);
        Self {
            ops_per_s,
            p50_ms: percentile(&fastest_ms, 500),
            p95_ms: percentile(&fastest_ms, 950),
        }
    }
}

/// Host timings of one session's frames, split by what each frame did.
#[derive(Debug, Default, PartialEq)]
pub struct LabelledFrames {
    /// Frames that closed (optimized and slid) a window, in ns.
    pub window_ns: Vec<u64>,
    /// Frames that only ran the frontend, in ns.
    pub frontend_ns: Vec<u64>,
}

/// Labels each `frame_wall_ns` entry as window-closing or frontend-only
/// from the window-closing flags a replay of the same session recorded.
/// `None` when the two disagree on the frame count (a restart or a lost
/// frame would misalign every later label).
pub fn label_frames(frame_wall_ns: &[u64], closes_window: &[bool]) -> Option<LabelledFrames> {
    if frame_wall_ns.len() != closes_window.len() {
        return None;
    }
    let mut out = LabelledFrames::default();
    for (&ns, &closes) in frame_wall_ns.iter().zip(closes_window) {
        if closes {
            out.window_ns.push(ns);
        } else {
            out.frontend_ns.push(ns);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 990), 99.0);
        assert_eq!(percentile(&s, 1000), 100.0);
        assert_eq!(percentile(&s, 1), 1.0);
        assert_eq!(percentile(&[], 500), 0.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(0), None);
        assert_eq!(tail_level(15), None);
        assert_eq!(tail_level(20), Some(500));
        assert_eq!(tail_level(100), Some(900));
        assert_eq!(tail_level(999), Some(950));
        assert_eq!(tail_level(1_000), Some(990));
        assert_eq!(tail_level(9_999), Some(990));
        assert_eq!(tail_level(10_000), Some(999));
        for n in [20, 100, 1_000, 10_000, 12_345] {
            let p = tail_level(n).expect("enough samples");
            assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn repetition_sorts_its_times() {
        assert_eq!(
            Repetition::new(vec![3.0, 1.0, 2.0], 6, 2.0),
            Repetition {
                ops_per_s: 3.0,
                op_ms: vec![1.0, 2.0, 3.0]
            }
        );
    }

    #[test]
    fn summary_takes_each_operations_fastest_repeat() {
        let mut f = Fastest::new(4);
        // Two repetitions of ops 0..3; the second is disturbed on op 1
        // and the first on op 2. Op 3 is never timed.
        for (op, ms) in [(0, 1.0), (1, 2.0), (2, 9.0), (0, 1.5), (1, 8.0), (2, 3.0)] {
            f.record(op, ms);
        }
        assert_eq!((f.get(0), f.get(1), f.get(2)), (1.0, 2.0, 3.0));
        assert_eq!(f.get(3), f64::INFINITY);
        let s = Summary::new((0..4).map(|op| f.get(op)).collect(), 5.0);
        assert_eq!((s.ops_per_s, s.p50_ms, s.p95_ms), (5.0, 2.0, 3.0));
        assert_eq!(Summary::new(Vec::new(), 0.0), Summary::default());
    }

    #[test]
    fn labels_split_window_and_frontend_frames() {
        let ns = [10, 20, 30, 40];
        let closes = [false, false, true, true];
        let l = label_frames(&ns, &closes).expect("aligned");
        assert_eq!(l.window_ns, vec![30, 40]);
        assert_eq!(l.frontend_ns, vec![10, 20]);
        assert_eq!(label_frames(&ns, &closes[..3]), None);
        assert_eq!(label_frames(&[], &[]), Some(LabelledFrames::default()));
    }
}
