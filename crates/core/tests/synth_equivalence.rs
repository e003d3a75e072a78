//! Equivalence suite for the pruned design-space search.
//!
//! The incumbent-bound pruned synthesizer ([`synthesize_with`]) promises
//! the **bitwise-identical design** the exhaustive serial scan
//! ([`synthesize_exhaustive`]) returns: same
//! configuration, bit-equal modelled latency, power and resources, at any
//! pool size; infeasible specs must report a bit-equal best-achievable
//! latency. These properties are exercised over random workload shapes,
//! both objectives and pools of 1, 2 and 8 threads.

use archytas_core::{
    synthesize_exhaustive, synthesize_with, DesignSpec, Objective, SynthesisError,
    SynthesizedDesign,
};
use archytas_hw::FpgaPlatform;
use archytas_mdfg::ProblemShape;
use archytas_par::Pool;
use proptest::prelude::*;

/// The pool gamut every equivalence property runs under: serial, and
/// oversubscribed parallel so the striped path really executes on worker
/// threads.
fn pools() -> Vec<Pool> {
    vec![
        Pool::with_threads(1),
        Pool::with_threads(2),
        Pool::with_threads(8),
    ]
}

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

    /// The pruned striped scan returns the exhaustive scan's outcome at
    /// every pool size.
    #[test]
    fn pruned_search_is_bitwise_exhaustive(spec in specs()) {
        let oracle = synthesize_exhaustive(&spec);
        for pool in pools() {
            let got = synthesize_with(&spec, &pool);
            assert_same_outcome(&got, &oracle, &format!("{} threads", pool.threads()));
        }
    }
}

/// The virtex7 scaled lattice (5.76M points) is the cold-sweep perf target;
/// this pins down that the pruned search actually covers it — every lattice
/// point is either examined or accounted to a bound cut — and that pruning
/// does the heavy lifting.
#[test]
fn virtex7_cold_sweep_prunes_most_of_the_lattice() {
    let spec = DesignSpec {
        platform: FpgaPlatform::virtex7_690t(),
        objective: Objective::MinLatency,
        ..DesignSpec::zc706_power_optimal(0.0)
    };
    let oracle = synthesize_exhaustive(&spec).expect("feasible");
    let pruned = synthesize_with(&spec, &Pool::with_threads(1)).expect("feasible");
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
