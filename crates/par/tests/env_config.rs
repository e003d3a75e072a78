//! `Pool::global` environment knobs. One test function only: integration
//! tests in a file share a process, and `set_var` must not race another
//! test's `Pool::global()` call.

use archytas_par::Pool;

#[test]
fn global_pool_reads_environment() {
    // SAFETY-adjacent note: this is the sole test in this binary, so no
    // other thread is reading the environment concurrently.
    std::env::set_var("ARCHYTAS_THREADS", "8");
    assert_eq!(Pool::global().threads(), 8);

    std::env::set_var("ARCHYTAS_THREADS", "1");
    let one = Pool::global();
    assert_eq!(one.threads(), 1);
    assert!(
        !one.should_parallelize(1_000_000),
        "1 thread is always serial"
    );

    // 0 and garbage fall back to hardware parallelism (≥ 1).
    std::env::set_var("ARCHYTAS_THREADS", "0");
    assert!(Pool::global().threads() >= 1);
    std::env::set_var("ARCHYTAS_THREADS", "not-a-number");
    assert!(Pool::global().threads() >= 1);
    std::env::remove_var("ARCHYTAS_THREADS");
    assert!(Pool::global().threads() >= 1);

    // The env-configured pool behaves identically to an explicit one.
    std::env::set_var("ARCHYTAS_THREADS", "3");
    let items: Vec<u64> = (0..500).collect();
    let env_pool = Pool::global();
    let explicit = Pool::with_threads(3);
    let a = env_pool.par_map(&items, |&x| x.wrapping_mul(x));
    let b = explicit.par_map(&items, |&x| x.wrapping_mul(x));
    assert_eq!(a, b);
    std::env::remove_var("ARCHYTAS_THREADS");
}
