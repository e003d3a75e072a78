//! Equivalence suite for the pruned design-space search.
//!
//! The incumbent-bound pruned synthesizer ([`synthesize`]) promises the
//! **bitwise-identical design** the exhaustive scan
//! ([`synthesize_exhaustive`]) returns: same configuration, bit-equal
//! modelled latency, power and resources; infeasible specs must report a
//! bit-equal best-achievable latency. These properties are exercised over
//! random workload shapes and both objectives.

use archytas_core::{
    synthesize, synthesize_exhaustive, DesignSpec, Objective, SynthesisError, SynthesizedDesign,
};
use archytas_hw::{FpgaPlatform, LatencyTables};
use archytas_mdfg::ProblemShape;
use proptest::prelude::*;

fn shapes() -> impl Strategy<Value = ProblemShape> {
    (20usize..400, 2usize..12, 2usize..15, 0usize..40).prop_map(
        |(features, keyframes, obs_per_feature, marg)| ProblemShape {
            features,
            keyframes,
            states_per_keyframe: 15,
            obs_per_feature,
            marginalized_features: marg.min(features),
        },
    )
}

fn specs() -> impl Strategy<Value = DesignSpec> {
    // The vendored proptest has no `prop_oneof`; draw indices instead.
    (shapes(), 1usize..8, 0usize..2, 0usize..2, 1.0f64..40.0).prop_map(
        |(shape, iterations, plat, obj, bound)| DesignSpec {
            shape,
            iterations,
            platform: if plat == 0 {
                FpgaPlatform::zc706()
            } else {
                FpgaPlatform::kintex7_160t()
            },
            objective: if obj == 0 {
                Objective::MinLatency
            } else {
                Objective::MinPowerUnderLatency(bound)
            },
        },
    )
}

/// Asserts the optimized outcome equals the oracle outcome bit for bit —
/// including the infeasible case's best-achievable latency.
fn assert_same_outcome(
    got: &Result<SynthesizedDesign, SynthesisError>,
    oracle: &Result<SynthesizedDesign, SynthesisError>,
    label: &str,
) {
    match (got, oracle) {
        (Ok(g), Ok(o)) => assert!(
            g.same_design(o),
            "{label}: {:?} (lat bits {:#x}) != oracle {:?} (lat bits {:#x})",
            g.config,
            g.latency_ms.to_bits(),
            o.config,
            o.latency_ms.to_bits()
        ),
        (
            Err(SynthesisError::Infeasible {
                best_achievable_latency_ms: g,
            }),
            Err(SynthesisError::Infeasible {
                best_achievable_latency_ms: o,
            }),
        ) => assert_eq!(
            g.to_bits(),
            o.to_bits(),
            "{label}: infeasible latencies differ: {g} vs {o}"
        ),
        _ => panic!("{label}: feasibility disagrees: {got:?} vs oracle {oracle:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pruned scan returns the exhaustive scan's outcome.
    #[test]
    fn pruned_search_is_bitwise_exhaustive(spec in specs()) {
        assert_same_outcome(&synthesize(&spec), &synthesize_exhaustive(&spec), "pruned");
    }
}

/// Specs on the Virtex-7 lattice, half of them without marginalized
/// features: there every stripe past the Jacobian-bound `nd` ties the one
/// before it, the regime of the plateau cut.
fn virtex7_specs() -> impl Strategy<Value = DesignSpec> {
    (shapes(), 0usize..2, 1usize..8, 0usize..2, 0.8f64..8.0).prop_map(
        |(mut shape, no_marg, iterations, obj, bound)| {
            if no_marg == 1 {
                shape.marginalized_features = 0;
            }
            DesignSpec {
                shape,
                iterations,
                platform: FpgaPlatform::virtex7_690t(),
                objective: if obj == 0 {
                    Objective::MinLatency
                } else {
                    Objective::MinPowerUnderLatency(bound)
                },
            }
        },
    )
}

proptest! {
    // Each case runs the exhaustive oracle over the 5.76 M-point lattice.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The pruned scan returns the exhaustive scan's outcome on the
    /// Virtex-7 lattice.
    #[test]
    fn virtex7_pruned_search_is_bitwise_exhaustive(spec in virtex7_specs()) {
        assert_same_outcome(&synthesize(&spec), &synthesize_exhaustive(&spec), "virtex7");
    }
}

/// A pose-estimation-like shape (no marginalized features, 4 observations
/// per feature) on the Virtex-7 lattice, where the plateau cut skips every
/// stripe past the Jacobian-bound `nd`, under both objectives and an
/// infeasible bound: the pruned search still returns the exhaustive
/// outcome.
#[test]
fn virtex7_plateau_stripes_are_cut_exactly() {
    let mut shape = ProblemShape::typical();
    shape.marginalized_features = 0;
    shape.obs_per_feature = 4;
    let tables = LatencyTables::new(&shape, 6, 120, 96, 500);
    assert!((73..=120).all(|nd| tables.ties_previous_stripe(nd)));
    let spec = |objective| DesignSpec {
        shape,
        platform: FpgaPlatform::virtex7_690t(),
        objective,
        ..DesignSpec::zc706_power_optimal(0.0)
    };
    let fastest = synthesize_exhaustive(&spec(Objective::MinLatency)).expect("feasible");
    for objective in [
        Objective::MinLatency,
        Objective::MinPowerUnderLatency(fastest.latency_ms),
        Objective::MinPowerUnderLatency(1.25 * fastest.latency_ms),
        Objective::MinPowerUnderLatency(0.99 * fastest.latency_ms),
    ] {
        let oracle = synthesize_exhaustive(&spec(objective));
        assert_same_outcome(
            &synthesize(&spec(objective)),
            &oracle,
            &format!("{objective:?}"),
        );
    }
}

/// The virtex7 scaled lattice (5.76M points) is the cold-sweep perf target;
/// this pins down that the pruned search selects the exhaustive design there
/// and that pruning does the heavy lifting (that every lattice point is
/// either examined or accounted to a cut is
/// `counters_cover_the_feasible_lattice`).
#[test]
fn virtex7_cold_sweep_prunes_most_of_the_lattice() {
    let spec = DesignSpec {
        platform: FpgaPlatform::virtex7_690t(),
        objective: Objective::MinLatency,
        ..DesignSpec::zc706_power_optimal(0.0)
    };
    let oracle = synthesize_exhaustive(&spec).expect("feasible");
    let pruned = synthesize(&spec).expect("feasible");
    assert!(pruned.same_design(&oracle));
    let lattice = 120 * 96 * 500; // knob_bounds(virtex7_690t)
    assert!(
        pruned.candidates_examined < lattice / 100,
        "examined {} of {lattice}",
        pruned.candidates_examined
    );
    assert!(
        pruned.candidates_pruned > lattice / 2,
        "pruned only {} of {lattice}",
        pruned.candidates_pruned
    );
}

/// The typical-shape spec on the Virtex-7 lattice with `objective`.
fn virtex7_spec(objective: Objective) -> DesignSpec {
    DesignSpec {
        platform: FpgaPlatform::virtex7_690t(),
        objective,
        ..DesignSpec::zc706_power_optimal(0.0)
    }
}

/// Eq. 11 on the large lattice, where the latency-constraint cuts fire on
/// most stripes: at the minimum latency itself, just above it, loose, and
/// just below it (infeasible, so the search must stay exhaustive and report
/// the oracle's best-achievable latency bit for bit).
#[test]
fn virtex7_min_power_matches_exhaustive() {
    let min_latency = synthesize_exhaustive(&virtex7_spec(Objective::MinLatency))
        .expect("feasible")
        .latency_ms;
    for factor in [1.0, 1.25, 4.0, 0.99] {
        let spec = virtex7_spec(Objective::MinPowerUnderLatency(factor * min_latency));
        let oracle = synthesize_exhaustive(&spec);
        assert_eq!(oracle.is_ok(), factor >= 1.0, "{factor}x: {oracle:?}");
        let label = format!("{factor}x min latency");
        assert_same_outcome(&synthesize(&spec), &oracle, &label);
    }
}

/// The search counters account for the whole lattice: every
/// resource-feasible point (the exhaustive scan evaluates exactly those) is
/// either examined or added to `pruned` by one cut, and `examined` also
/// counts the incumbent-seeding probes (at most 5 `nd` × 3 `nm` × 2 `s`).
#[test]
fn counters_cover_the_feasible_lattice() {
    for platform in [
        FpgaPlatform::zc706(),
        FpgaPlatform::kintex7_160t(),
        FpgaPlatform::virtex7_690t(),
    ] {
        let spec = |objective| DesignSpec {
            platform: platform.clone(),
            objective,
            ..DesignSpec::zc706_power_optimal(0.0)
        };
        let oracle = synthesize_exhaustive(&spec(Objective::MinLatency)).expect("feasible");
        let feasible = oracle.candidates_examined;
        for objective in [
            Objective::MinLatency,
            Objective::MinPowerUnderLatency(1.25 * oracle.latency_ms),
        ] {
            let d = synthesize(&spec(objective)).expect("feasible");
            let covered = d.candidates_examined + d.candidates_pruned;
            assert!(
                (feasible + 1..=feasible + 30).contains(&covered),
                "{} {objective:?}: examined {} + pruned {} vs {feasible} feasible points",
                platform.name,
                d.candidates_examined,
                d.candidates_pruned
            );
        }
    }
}
