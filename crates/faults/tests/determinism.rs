//! Bitwise run-to-run determinism of faulted runs: two passes over the same
//! scenarios produce the same trajectory bits.

use archytas_faults::{run_matrix, scenarios};
use archytas_slam::Pose;

fn bits(poses: &[Pose]) -> Vec<[u64; 7]> {
    poses
        .iter()
        .map(|p| {
            [
                p.trans.x().to_bits(),
                p.trans.y().to_bits(),
                p.trans.z().to_bits(),
                p.rot.w.to_bits(),
                p.rot.v.x().to_bits(),
                p.rot.v.y().to_bits(),
                p.rot.v.z().to_bits(),
            ]
        })
        .collect()
}

#[test]
fn faulted_runs_are_bit_identical_run_to_run() {
    let matrix: Vec<_> = scenarios(7)
        .into_iter()
        .filter(|s| ["vision-dropout", "stacked"].contains(&s.name.as_str()))
        .collect();
    assert_eq!(matrix.len(), 2, "scenarios present");
    let first = run_matrix(&matrix, 4.0);
    let second = run_matrix(&matrix, 4.0);
    for (a, b) in first.iter().zip(&second) {
        let name = &a.name;
        assert!(a.completed && b.completed, "{name} panicked");
        assert_eq!(
            bits(&a.estimates),
            bits(&b.estimates),
            "{name}: a second run changed the trajectory bits"
        );
    }
}
