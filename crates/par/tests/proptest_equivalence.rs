//! Property test: `par_map` is bit-identical to a serial map for arbitrary
//! inputs and thread counts.

use archytas_par::Pool;
use proptest::prelude::*;

fn forced(threads: usize) -> Pool {
    Pool::with_threads(threads).with_serial_threshold(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn par_map_equals_serial(
        xs in proptest::collection::vec(-1e6f64..1e6, 0..400),
        threads in 1usize..9,
    ) {
        let f = |&x: &f64| (x * 0.25).sin() + x;
        let par = forced(threads).par_map(&xs, f);
        let ser: Vec<f64> = xs.iter().map(f).collect();
        prop_assert_eq!(par.len(), ser.len());
        for (a, b) in par.iter().zip(&ser) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
