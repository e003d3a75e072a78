//! Shared harness utilities for the experiment binaries that regenerate
//! every table and figure of the Archytas paper (see DESIGN.md's experiment
//! index and EXPERIMENTS.md for paper-vs-measured numbers).

#![warn(missing_docs)]

use archytas_baselines::{CachedCpuPlatform, CpuPlatform};
use archytas_dataset::{euroc_sequences, kitti_sequences, SequenceData, SequenceSpec};
use archytas_hw::{AcceleratorModel, CachedAcceleratorModel, FpgaPlatform, HIGH_PERF, LOW_POWER};
use archytas_mdfg::ProblemShape;
use archytas_par::Pool;
use archytas_slam::mean_stdev;

pub mod json;
pub mod serve;

/// Prints a fixed-width text table (header + separator + rows).
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", table(headers, rows));
}

/// Renders a fixed-width text table (header + separator + rows).
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
            .collect();
        format!("  {}\n", joined.join("  "))
    };
    let mut out = line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out += &line(&sep);
    for row in rows {
        out += &line(row);
    }
    out
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("==============================================================");
}

/// Truncation (seconds) for suite runs; override with
/// `ARCHYTAS_FULL=1` to run the full sequence durations.
pub fn suite_truncation() -> Option<f64> {
    if std::env::var("ARCHYTAS_FULL").is_ok() {
        None
    } else {
        Some(15.0)
    }
}

/// The benchmark suite: all KITTI-like and EuRoC-like sequences, truncated
/// unless `ARCHYTAS_FULL=1`.
pub fn suite() -> Vec<SequenceSpec> {
    let trunc = suite_truncation();
    kitti_sequences()
        .into_iter()
        .chain(euroc_sequences())
        .map(|s| match trunc {
            Some(t) => s.truncated(t),
            None => s,
        })
        .collect()
}

/// Per-window problem shapes of a sequence, from the fast workload path.
pub fn sequence_shapes(data: &SequenceData, window_size: usize) -> Vec<ProblemShape> {
    data.window_workloads(window_size)
        .iter()
        .map(ProblemShape::from_workload)
        .collect()
}

/// Builds every sequence of `specs` and extracts its per-window shapes, in
/// parallel on the global pool. Order matches `specs`; sequences too short
/// for a window yield an empty shape list.
pub fn build_suite_shapes(
    specs: &[SequenceSpec],
    window_size: usize,
) -> Vec<(String, Vec<ProblemShape>)> {
    // Sequence generation dominates the sweep binaries; each build is
    // hundreds of frames of work, so parallelize per sequence.
    Pool::global()
        .with_serial_threshold(2)
        .par_map(specs, |spec| {
            let data = spec.build();
            (spec.name.clone(), sequence_shapes(&data, window_size))
        })
}

/// One row of the Fig. 16 table: a design compared against a CPU baseline
/// across the whole suite.
#[derive(Debug, Clone)]
pub struct Fig16Row {
    /// Design name (`High-Perf` / `Low-Power`).
    pub design: &'static str,
    /// Baseline platform name.
    pub baseline: &'static str,
    /// Mean and standard deviation of per-sequence speedups.
    pub speedup: (f64, f64),
    /// Mean and standard deviation of per-sequence energy reductions.
    pub energy_reduction: (f64, f64),
}

/// Cache counters of one memoized evaluator after the Fig. 16 sweep.
#[derive(Debug, Clone)]
pub struct EvalCacheStats {
    /// Evaluator name.
    pub name: String,
    /// Cost-model evaluations performed (cache misses).
    pub evaluations: usize,
    /// Lookups served from the cache.
    pub hits: usize,
}

/// Full result of the Fig. 16 computation.
#[derive(Debug, Clone)]
pub struct Fig16Result {
    /// Table rows, one per (design, baseline) pair.
    pub rows: Vec<Fig16Row>,
    /// Cache counters per evaluator (two accelerator designs, two CPUs).
    pub cache_stats: Vec<EvalCacheStats>,
    /// Distinct `(shape, iterations)` keys in the whole suite — the floor
    /// (and, with the caches, the exact count) of model evaluations any
    /// platform performs.
    pub distinct_keys: usize,
}

/// Fig. 16 computation: mean speedup and energy reduction of the High-Perf
/// and Low-Power designs over the Intel and Arm baselines across `specs`.
///
/// Sequences are built in parallel ([`build_suite_shapes`]); every model
/// evaluation is memoized per platform, so each of the `distinct_keys`
/// `(shape, 6)` keys is evaluated exactly once per platform no matter how
/// many designs, baselines, or repeated window shapes reference it.
pub fn fig16_result(specs: &[SequenceSpec]) -> Fig16Result {
    let iterations = 6;
    let suite_shapes = build_suite_shapes(specs, 10);
    let designs = [("High-Perf", HIGH_PERF), ("Low-Power", LOW_POWER)];
    let models: Vec<(&'static str, CachedAcceleratorModel)> = designs
        .iter()
        .map(|&(name, config)| {
            (
                name,
                CachedAcceleratorModel::new(AcceleratorModel::new(config, FpgaPlatform::zc706())),
            )
        })
        .collect();
    let cpus = [
        CachedCpuPlatform::new(CpuPlatform::intel_comet_lake()),
        CachedCpuPlatform::new(CpuPlatform::arm_a57()),
    ];

    let mut rows = Vec::new();
    for (dname, model) in &models {
        for cpu in &cpus {
            let mut speedups = Vec::new();
            let mut energies = Vec::new();
            for (_, shapes) in &suite_shapes {
                if shapes.is_empty() {
                    continue;
                }
                let eval = |f: &dyn Fn(&ProblemShape) -> f64| {
                    mean(&shapes.iter().map(f).collect::<Vec<_>>())
                };
                let accel_ms = eval(&|s| model.window_latency_ms(s, iterations));
                let accel_mj = eval(&|s| model.window_energy_mj(s, iterations));
                let cpu_ms = eval(&|s| cpu.window_time_ms(s, iterations));
                let cpu_mj = eval(&|s| cpu.window_energy_mj(s, iterations));
                speedups.push(cpu_ms / accel_ms);
                energies.push(cpu_mj / accel_mj);
            }
            rows.push(Fig16Row {
                design: dname,
                baseline: cpu.cpu().name,
                speedup: mean_stdev(&speedups),
                energy_reduction: mean_stdev(&energies),
            });
        }
    }

    let distinct_keys = suite_shapes
        .iter()
        .flat_map(|(_, shapes)| shapes.iter().map(|s| (*s, iterations)))
        .collect::<std::collections::HashSet<_>>()
        .len();
    let mut cache_stats: Vec<EvalCacheStats> = models
        .iter()
        .map(|(name, m)| EvalCacheStats {
            name: format!("accel/{name}"),
            evaluations: m.evaluations(),
            hits: m.cache_hits(),
        })
        .collect();
    cache_stats.extend(cpus.iter().map(|c| EvalCacheStats {
        name: format!("cpu/{}", c.cpu().name),
        evaluations: c.evaluations(),
        hits: c.cache_hits(),
    }));
    Fig16Result {
        rows,
        cache_stats,
        distinct_keys,
    }
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of strictly positive values (0 for empty input).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_both_datasets() {
        let s = suite();
        assert_eq!(s.len(), 16);
        assert!(s.iter().any(|x| x.name.starts_with("kitti")));
        assert!(s.iter().any(|x| x.name.starts_with("euroc")));
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shapes_from_short_sequence() {
        let data = kitti_sequences()[5].truncated(3.0).build();
        let shapes = sequence_shapes(&data, 10);
        assert!(!shapes.is_empty());
        assert!(shapes.iter().all(|s| s.features > 0));
    }

    #[test]
    fn build_suite_shapes_matches_serial_build() {
        let specs: Vec<SequenceSpec> = suite()
            .into_iter()
            .take(3)
            .map(|s| s.truncated(3.0))
            .collect();
        let parallel = build_suite_shapes(&specs, 10);
        for (spec, (name, shapes)) in specs.iter().zip(&parallel) {
            assert_eq!(&spec.name, name);
            assert_eq!(shapes, &sequence_shapes(&spec.build(), 10));
        }
    }

    #[test]
    fn fig16_evaluates_each_key_exactly_once_per_platform() {
        let specs: Vec<SequenceSpec> = vec![
            kitti_sequences()[1].truncated(4.0),
            euroc_sequences()[0].truncated(4.0),
        ];
        let result = fig16_result(&specs);
        assert_eq!(result.rows.len(), 4);
        assert!(result.distinct_keys > 0);
        // Repeated shapes exist in real traces, and every platform touches
        // each key 4× (two ratio terms × two outer loops for its pair);
        // the caches must collapse all of that to exactly one evaluation
        // per distinct (shape, iterations) key per platform.
        for stats in &result.cache_stats {
            assert_eq!(
                stats.evaluations, result.distinct_keys,
                "{}: {} evaluations for {} distinct keys",
                stats.name, stats.evaluations, result.distinct_keys
            );
            assert!(
                stats.hits > stats.evaluations,
                "{}: caching is doing work",
                stats.name
            );
        }
        // Sanity on the numbers themselves: accelerator wins on speed,
        // Intel burns more energy than it saves.
        for row in &result.rows {
            assert!(row.speedup.0 > 1.0, "{} vs {}", row.design, row.baseline);
            assert!(row.energy_reduction.0 > 1.0);
        }
    }
}
