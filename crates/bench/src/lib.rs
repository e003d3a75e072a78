//! Shared harness utilities for the experiment binaries that regenerate
//! every table and figure of the Archytas paper (see DESIGN.md's experiment
//! index and EXPERIMENTS.md for paper-vs-measured numbers).

#![warn(missing_docs)]

use archytas_baselines::CpuPlatform;
use archytas_dataset::{euroc_sequences, kitti_sequences, SequenceData, SequenceSpec};
use archytas_hw::{AcceleratorModel, FpgaPlatform, HIGH_PERF, LOW_POWER};
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
    Pool::global().par_map(specs, |spec| {
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

/// Mean per-window time (ms) and energy (mJ) of `cpu` over `shapes`. Each
/// window's time is computed once; its energy is `time * power_w`, the
/// expression [`CpuPlatform::window_energy_mj`] evaluates, so both means
/// keep the bits of the per-call methods.
pub fn cpu_window_means(
    cpu: &CpuPlatform,
    shapes: &[ProblemShape],
    iterations: usize,
) -> (f64, f64) {
    let ms: Vec<f64> = shapes
        .iter()
        .map(|s| cpu.window_time_ms(s, iterations))
        .collect();
    let mj: Vec<f64> = ms.iter().map(|t| t * cpu.power_w).collect();
    (mean(&ms), mean(&mj))
}

/// Full result of the Fig. 16 computation.
#[derive(Debug, Clone)]
pub struct Fig16Result {
    /// Table rows, one per (design, baseline) pair.
    pub rows: Vec<Fig16Row>,
}

/// Fig. 16 computation: mean speedup and energy reduction of the High-Perf
/// and Low-Power designs over the Intel and Arm baselines across `specs`.
///
/// Sequences are built in parallel ([`build_suite_shapes`]). Each CPU's
/// means ([`cpu_window_means`]) are computed once per sequence, outside
/// the design loop (they are design-independent); the accelerator designs
/// are priced by direct [`AcceleratorModel`] calls.
pub fn fig16_result(specs: &[SequenceSpec]) -> Fig16Result {
    let iterations = 6;
    let suite_shapes = build_suite_shapes(specs, 10);
    let designs = [("High-Perf", HIGH_PERF), ("Low-Power", LOW_POWER)];
    let cpus = [CpuPlatform::intel_comet_lake(), CpuPlatform::arm_a57()];
    // Per sequence, per CPU: the design-independent (time, energy) means.
    let cpu_means: Vec<Vec<(f64, f64)>> = suite_shapes
        .iter()
        .map(|(_, shapes)| {
            cpus.iter()
                .map(|cpu| cpu_window_means(cpu, shapes, iterations))
                .collect()
        })
        .collect();

    let mut rows = Vec::new();
    for &(dname, config) in &designs {
        let model = AcceleratorModel::new(config, FpgaPlatform::zc706());
        for (c, cpu) in cpus.iter().enumerate() {
            let mut speedups = Vec::new();
            let mut energies = Vec::new();
            for ((_, shapes), means) in suite_shapes.iter().zip(&cpu_means) {
                if shapes.is_empty() {
                    continue;
                }
                let eval = |f: &dyn Fn(&ProblemShape) -> f64| {
                    mean(&shapes.iter().map(f).collect::<Vec<_>>())
                };
                let accel_ms = eval(&|s| model.window_latency_ms(s, iterations));
                let accel_mj = eval(&|s| model.window_energy_mj(s, iterations));
                let (cpu_ms, cpu_mj) = means[c];
                speedups.push(cpu_ms / accel_ms);
                energies.push(cpu_mj / accel_mj);
            }
            rows.push(Fig16Row {
                design: dname,
                baseline: cpu.name,
                speedup: mean_stdev(&speedups),
                energy_reduction: mean_stdev(&energies),
            });
        }
    }
    Fig16Result { rows }
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
    fn fig16_rows_match_direct_evaluation() {
        let specs: Vec<SequenceSpec> = vec![
            kitti_sequences()[1].truncated(4.0),
            euroc_sequences()[0].truncated(4.0),
        ];
        let result = fig16_result(&specs);
        assert_eq!(result.rows.len(), 4);
        // Recompute every row from plain per-window model calls: the
        // restructured sweep must keep every bit.
        let seqs: Vec<Vec<ProblemShape>> = specs
            .iter()
            .map(|spec| sequence_shapes(&spec.build(), 10))
            .collect();
        let designs = [("High-Perf", HIGH_PERF), ("Low-Power", LOW_POWER)];
        let cpus = [CpuPlatform::intel_comet_lake(), CpuPlatform::arm_a57()];
        let mut want = Vec::new();
        for (dname, config) in designs {
            let model = AcceleratorModel::new(config, FpgaPlatform::zc706());
            for cpu in &cpus {
                let mut speedups = Vec::new();
                let mut energies = Vec::new();
                for shapes in seqs.iter().filter(|s| !s.is_empty()) {
                    let per = |f: &dyn Fn(&ProblemShape) -> f64| {
                        mean(&shapes.iter().map(f).collect::<Vec<_>>())
                    };
                    speedups.push(
                        per(&|s| cpu.window_time_ms(s, 6))
                            / per(&|s| model.window_latency_ms(s, 6)),
                    );
                    energies.push(
                        per(&|s| cpu.window_energy_mj(s, 6))
                            / per(&|s| model.window_energy_mj(s, 6)),
                    );
                }
                want.push((
                    dname,
                    cpu.name,
                    mean_stdev(&speedups),
                    mean_stdev(&energies),
                ));
            }
        }
        let bits = |(m, s): (f64, f64)| (m.to_bits(), s.to_bits());
        for (row, (dname, cname, speedup, energy)) in result.rows.iter().zip(want) {
            assert_eq!((row.design, row.baseline), (dname, cname));
            assert_eq!(bits(row.speedup), bits(speedup), "{dname} vs {cname}");
            assert_eq!(
                bits(row.energy_reduction),
                bits(energy),
                "{dname} vs {cname}"
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
