//! Property tests: histogram merging is *exactly* associative and
//! commutative (all-integer state), and a canonical-order fold of
//! per-worker partial aggregates is byte-identical no matter how many
//! workers the sessions were sharded across — the property the fleet's
//! byte-compare of `serve obs` scope records across pool sizes rests on.

use archytas_telemetry::{
    bucket_index, bucket_lower_bound, FleetTelemetry, Histogram, ScopeAggregate, SessionTelemetry,
    TrafficClass, BUCKETS,
};
use proptest::prelude::*;

/// Values spanning the full bucket range: zeros, unit buckets, exact
/// powers of two, mid octaves, and near-u64::MAX extremes.
fn value_strategy() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..u64::MAX).prop_map(|(kind, raw)| match kind {
        0 => raw % 16,
        1 => raw % 1_000_000,
        2 => 1u64 << (raw % 64),
        _ => raw,
    })
}

fn histogram_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// A deterministic per-session record stream derived from a seed.
fn session_from_seed(seed: u64, windows: u16) -> SessionTelemetry {
    let mut t = SessionTelemetry::new();
    let mut x = seed | 1;
    for _ in 0..windows {
        // xorshift: cheap, deterministic, full-range.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let latency_ms = (x % 10_000) as f64 / 100.0;
        let energy_mj = ((x >> 16) % 50_000) as f64 / 100.0;
        t.record_window(latency_ms, energy_mj, (x >> 32) as u32 % 9);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_is_exactly_associative(
        a in proptest::collection::vec(value_strategy(), 0..200),
        b in proptest::collection::vec(value_strategy(), 0..200),
        c in proptest::collection::vec(value_strategy(), 0..200),
    ) {
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_is_exactly_commutative(
        a in proptest::collection::vec(value_strategy(), 0..200),
        b in proptest::collection::vec(value_strategy(), 0..200),
    ) {
        let (ha, hb) = (histogram_of(&a), histogram_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_equals_concatenated_stream(
        a in proptest::collection::vec(value_strategy(), 0..300),
        b in proptest::collection::vec(value_strategy(), 0..300),
    ) {
        let mut merged = histogram_of(&a);
        merged.merge(&histogram_of(&b));
        let concat: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(merged, histogram_of(&concat));
    }

    #[test]
    fn bucket_index_is_total_monotone_and_inverted_by_lower_bound(
        v in value_strategy(),
        w in value_strategy(),
    ) {
        let (iv, iw) = (bucket_index(v), bucket_index(w));
        prop_assert!(iv < BUCKETS);
        if v <= w {
            prop_assert!(iv <= iw);
        }
        // The bucket's lower bound maps back to the same bucket and never
        // exceeds the value it classifies.
        prop_assert_eq!(bucket_index(bucket_lower_bound(iv)), iv);
        prop_assert!(bucket_lower_bound(iv) <= v);
    }

    /// The fleet claim: shard sessions across a worker pool, let each
    /// worker fold its own completions locally (in whatever order they
    /// finish), merge the partials in canonical worker order — the result
    /// is byte-identical for 1, 2, and 8 workers, and identical to the
    /// direct submission-order fold.
    #[test]
    fn sharded_fold_is_byte_identical_at_pools_1_2_and_8(
        seeds in proptest::collection::vec((0u64..u64::MAX, 0u16..120, 0usize..3), 1..24),
        scramble in 0u64..u64::MAX,
    ) {
        let sessions: Vec<(TrafficClass, SessionTelemetry)> = seeds
            .iter()
            .map(|&(seed, windows, class)| {
                (TrafficClass::ALL[class], session_from_seed(seed, windows))
            })
            .collect();
        let direct = FleetTelemetry::fold(sessions.iter().map(|(c, t)| (*c, t)));

        let mut folds = Vec::new();
        for workers in [1usize, 2, 8] {
            // Deterministic but arbitrary shard assignment.
            let mut partials = vec![ScopeAggregate::new(); workers];
            let mut assignments: Vec<(usize, usize)> = sessions
                .iter()
                .enumerate()
                .map(|(i, _)| (i, (i as u64 ^ scramble) as usize % workers))
                .collect();
            // Workers complete sessions in scrambled order, not submission
            // order — local absorption order must not matter.
            assignments.sort_by_key(|&(i, _)| (i as u64).wrapping_mul(scramble | 1));
            for (i, w) in assignments {
                partials[w].absorb(&sessions[i].1);
            }
            let mut merged = ScopeAggregate::new();
            for p in &partials {
                merged.merge(p);
            }
            folds.push(merged);
        }
        prop_assert_eq!(&folds[0], &folds[1]);
        prop_assert_eq!(&folds[1], &folds[2]);
        prop_assert_eq!(&folds[0], &direct.fleet);
        // Scalars agree too, including the derived watt figure.
        prop_assert_eq!(folds[0].watts().to_bits(), direct.fleet.watts().to_bits());
    }
}
