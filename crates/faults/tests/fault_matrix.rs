//! The acceptance gate of the fault harness: every scenario in the standard
//! matrix completes without panicking and stays within the accuracy bound.

use archytas_faults::{long_horizon_scenarios, run_matrix, scenarios};

#[test]
fn every_scenario_completes_within_rmse_bound() {
    for r in run_matrix(&scenarios(7), 4.0) {
        assert!(r.completed, "{}: run panicked", r.name);
        assert!(r.windows > 0, "{}: no windows completed", r.name);
        assert!(r.rmse_m.is_finite(), "{}: non-finite RMSE", r.name);
        assert!(
            r.within_rmse_bound(3.0),
            "{}: rmse {} vs nominal {} (> 3x)",
            r.name,
            r.rmse_m,
            r.nominal_rmse_m
        );
    }
}

#[test]
fn standard_matrix_is_index_stable() {
    // Downstream code (and these tests) pin scenarios by index and name;
    // long-horizon additions must go to `long_horizon_scenarios`, not here.
    let m = scenarios(7);
    assert_eq!(m.len(), 9);
    assert_eq!(m[0].name, "feature-drought");
    assert_eq!(m[1].name, "vision-dropout");
    assert!(m
        .iter()
        .all(|s| s.sequence.is_none() && s.seconds.is_none()));
}

#[test]
fn long_horizon_scenarios_pin_their_sequences() {
    // The minutes-scale runs are exercised by the release-mode fault-matrix
    // bin (debug runs would take minutes per scenario); tier-1 checks the
    // list's invariants only.
    let m = long_horizon_scenarios(7);
    assert!(!m.is_empty());
    for sc in &m {
        let spec = sc.sequence.as_ref().expect("long-horizon pins a sequence");
        let seconds = sc.seconds.expect("long-horizon pins a duration");
        assert!(
            seconds >= 120.0,
            "{}: {seconds} s is not minutes-scale",
            sc.name
        );
        assert!(
            spec.duration >= seconds,
            "{}: spec shorter than run",
            sc.name
        );
    }
    assert_eq!(m[0].name, "tunnel-drought");
}

#[test]
fn faults_are_actually_detected() {
    // Scenarios that corrupt the stream inside the run must trip the
    // degradation ladder at least once; the matrix would be vacuous if the
    // pipeline never noticed. (Drought/outlier/duplicate scenarios degrade
    // softly and may stay under the detection thresholds by design.)
    let matrix: Vec<_> = scenarios(7)
        .into_iter()
        .filter(|s| ["vision-dropout", "imu-nan"].contains(&s.name.as_str()))
        .collect();
    assert_eq!(matrix.len(), 2, "scenarios present");
    for r in run_matrix(&matrix, 4.0) {
        let name = &r.name;
        assert!(r.degraded_windows > 0, "{name}: ladder never engaged");
        assert!(
            r.recovery_latency_windows.is_some(),
            "{name}: never recovered"
        );
    }
}

#[test]
fn different_seeds_change_stochastic_scenarios() {
    let droughts = [scenarios(7).swap_remove(0), scenarios(8).swap_remove(0)];
    let runs = run_matrix(&droughts, 4.0);
    let (drought_a, drought_b) = (&runs[0], &runs[1]);
    assert!(drought_a.completed && drought_b.completed);
    // Both run on the same sequence, so they share one fault-free nominal.
    assert_eq!(
        drought_a.nominal_rmse_m.to_bits(),
        drought_b.nominal_rmse_m.to_bits()
    );
    // Same sequence, different injected stream → different trajectories.
    let same = drought_a
        .estimates
        .iter()
        .zip(&drought_b.estimates)
        .all(|(x, y)| x.trans.x().to_bits() == y.trans.x().to_bits());
    assert!(!same, "seed had no effect on the faulted trajectory");
}
