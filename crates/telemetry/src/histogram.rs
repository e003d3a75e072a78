//! Zero-alloc, fixed-bucket streaming histograms with a bitwise-
//! deterministic merge.
//!
//! The serving layer records one latency and one energy sample per
//! optimized window, on the hot path, for every session in the fleet. That
//! rules out anything that allocates, hashes, or sorts at record time. A
//! [`Histogram`] is a flat `[u64; 256]` of bucket counts plus four scalar
//! accumulators — recording is a shift, a mask, and two integer adds.
//!
//! # Bucket layout
//!
//! Buckets are log-spaced with [`SUB_BITS`] = 2 sub-buckets per octave
//! (HDR-histogram style): a sample's bucket is its floored log2 refined by
//! the top two mantissa bits, giving ≤ 19 % relative bucket width across
//! the full `u64` range in [`BUCKETS`] = 256 fixed slots. The index is
//! computed from `leading_zeros` — no float math, no libm, so the layout
//! is identical on every platform.
//!
//! # Deterministic merge
//!
//! All state is integer (counts and sums of already-quantized samples), so
//! [`Histogram::merge`] is *exactly* associative and commutative — not
//! "close enough": merging any permutation of any partition of the same
//! per-session histograms produces byte-identical bits. The fleet
//! aggregator still folds sessions in canonical submission order (see
//! `FleetTelemetry`), so even a future non-commutative field would keep
//! 1-worker and 8-worker aggregates byte-identical. The proptest suite
//! `tests/histogram_merge.rs` pins both properties.

/// Sub-bucket resolution bits per octave.
pub const SUB_BITS: u32 = 2;

/// Sub-buckets per octave (`2^SUB_BITS`).
const SUB: u64 = 1 << SUB_BITS;

/// Total fixed bucket count. Values `0..SUB*2` get exact unit buckets;
/// octave `e ≥ SUB_BITS+1` contributes `SUB` buckets each, and the top
/// octave of `u64` lands at index `(63 - SUB_BITS) * SUB + SUB*2 - 1 = 251`.
pub const BUCKETS: usize = ((63 - SUB_BITS as usize) << SUB_BITS) + (SUB as usize) * 2;

/// A fixed-footprint streaming histogram over `u64` samples.
///
/// `Copy`-free but `Clone`-cheap (one flat memcpy): fleet sessions carry
/// their histograms inside the checkpointable `Core`, so a restart restores
/// the telemetry to exactly the bits it had at the checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a sample: unit buckets below `2*SUB`, then
/// `SUB` log-spaced sub-buckets per octave. Monotone in `v` and total over
/// the whole `u64` range (see unit tests).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB * 2 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // >= SUB_BITS + 1
    let sub = (v >> (exp - SUB_BITS as u64)) & (SUB - 1);
    (((exp - 1 - SUB_BITS as u64) << SUB_BITS) + SUB * 2 + sub) as usize
}

/// Inclusive lower bound of a bucket (the smallest sample mapping to it);
/// the exact inverse of [`bucket_index`]'s quantization.
pub fn bucket_lower_bound(index: usize) -> u64 {
    let i = index as u64;
    if i < SUB * 2 {
        return i;
    }
    let exp = ((i - SUB * 2) >> SUB_BITS) + 1 + SUB_BITS as u64;
    let sub = (i - SUB * 2) & (SUB - 1);
    (1u64 << exp) | (sub << (exp - SUB_BITS as u64))
}

impl Histogram {
    /// An empty histogram. All-zero except `min`, which starts at
    /// `u64::MAX` so the first merge/record wins.
    pub const fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. Hot path: no allocation, no branch beyond the
    /// small-value fast case, wrapping-free for any realistic total.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.total = self.total.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Exactly associative and commutative:
    /// every field is an integer sum, min, or max.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.count += other.count;
        self.total = self.total.wrapping_add(other.total);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (wrapping, exact for realistic loads).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample (`u64::MAX` when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile, resolved to the bucket's lower bound —
    /// deterministic, and within one bucket width (≤ 19 %) of the exact
    /// order statistic.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower_bound(i);
            }
        }
        bucket_lower_bound(BUCKETS - 1)
    }

    /// Non-empty buckets as `(index, count)`, ascending — the sparse form
    /// the `serve obs` scope records serialize.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

/// Quantizes a modelled window latency (ms) to integer nanoseconds — the
/// latency histogram's sample unit. Pure function of the input bits, so
/// every pool size quantizes a window identically.
#[inline]
pub fn latency_ns(latency_ms: f64) -> u64 {
    quantize(latency_ms * 1e6)
}

/// Quantizes a modelled window energy (mJ) to integer nanojoules — the
/// energy histogram's sample unit.
#[inline]
pub fn energy_nj(energy_mj: f64) -> u64 {
    quantize(energy_mj * 1e6)
}

/// `f64 → u64` with round-half-up, clamped to `[0, u64::MAX]`; NaN maps
/// to 0. Deterministic: one multiply and one round, no environment-
/// dependent rounding mode.
#[inline]
fn quantize(v: f64) -> u64 {
    if v.is_nan() || v <= 0.0 {
        0
    } else if v >= u64::MAX as f64 {
        u64::MAX
    } else {
        (v + 0.5) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_total() {
        let probes: Vec<u64> = (0..200)
            .chain((1..63).flat_map(|e| {
                let b = 1u64 << e;
                [b - 1, b, b + 1, b + (b >> 2), b + (b >> 1)]
            }))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let mut prev = 0usize;
        for v in sorted {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            assert!(i >= prev, "bucket index not monotone at {v}");
            prev = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_lower_bound_inverts_index() {
        for i in 0..BUCKETS {
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), i, "lower bound of bucket {i}");
            if lb > 0 {
                assert!(bucket_index(lb - 1) < i, "bucket {i} lower bound tight");
            }
        }
    }

    #[test]
    fn bucket_width_is_bounded() {
        // Relative bucket width ≤ 1/4 above the unit-bucket region.
        for i in (SUB as usize * 2)..BUCKETS - 1 {
            let lo = bucket_lower_bound(i) as f64;
            let hi = bucket_lower_bound(i + 1) as f64;
            assert!(hi > lo);
            assert!((hi - lo) / lo <= 0.25 + 1e-12, "bucket {i} too wide");
        }
    }

    #[test]
    fn record_accumulates_scalars() {
        let mut h = Histogram::new();
        for v in [3u64, 1000, 1_000_000, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.total(), 1_001_006);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 1_000_000);
        assert!((h.mean() - 250_251.5).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..1000u64 {
            let s = v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
            all.record(s);
            if v % 2 == 0 { &mut a } else { &mut b }.record(s);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn percentile_hits_bucket_lower_bounds() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        assert_eq!(h.percentile(50.0), bucket_lower_bound(bucket_index(100)));
        assert_eq!(h.percentile(99.0), bucket_lower_bound(bucket_index(10_000)));
        assert_eq!(Histogram::new().percentile(50.0), 0);
    }

    #[test]
    fn quantizers_are_deterministic_and_sane() {
        assert_eq!(latency_ns(1.5), 1_500_000);
        assert_eq!(energy_nj(0.25), 250_000);
        assert_eq!(latency_ns(f64::NAN), 0);
        assert_eq!(latency_ns(-1.0), 0);
        assert_eq!(quantize(2.4), 2);
        assert_eq!(quantize(2.5), 3);
        assert_eq!(quantize(f64::INFINITY), u64::MAX);
    }
}
