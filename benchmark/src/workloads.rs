//! Seeded workload generation. Each workload is a pure function of its
//! seed: the program under test only ever sees the specs built here.

use archytas_core::AlgorithmDescription;
use archytas_dataset::{euroc_sequences, kitti_sequences, SequenceSpec};
use archytas_faults::{FaultKind, FaultPlan};
use archytas_fleet::{FleetConfig, Priority, SessionSpec};
use archytas_hw::FpgaPlatform;
use archytas_mdfg::ProblemShape;

/// A seed whose figures were never used to tune the benchmark, so a later
/// performance claim can be checked on inputs no tuning saw.
pub const HELD_OUT_SEED: u64 = 20_211_018;

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eight warm vehicles on one worker: the solve path dominates.
    FleetSteady,
    /// Many one-second vehicles on two workers: admission, activation and
    /// cold windows.
    FleetChurn,
    /// Cold accelerator generation over a seeded design sweep.
    SynthSweep,
}

impl Workload {
    /// Every workload, in catalog order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetSteady,
        Workload::FleetChurn,
        Workload::SynthSweep,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet-steady",
            Workload::FleetChurn => "fleet-churn",
            Workload::SynthSweep => "synth-sweep",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// splitmix64: a tiny, dependency-free generator whose stream is fixed by
/// its seed on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, offset by a per-use `stream` tag so two uses
    /// of one workload seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`; modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw from `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What one operation of a fleet workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetOp {
    /// A served window, timed by the frame that closes it.
    Window,
    /// A served frame.
    Frame,
}

impl FleetOp {
    /// The operation's name in printed figures.
    pub fn noun(self) -> &'static str {
        match self {
            FleetOp::Window => "window",
            FleetOp::Frame => "frame",
        }
    }
}

/// A fleet workload: the submission batch, the deployment serving it, and
/// for each session the index of the first session with identical
/// deterministic input (its reference is computed once).
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// What the workload counts and times as one operation.
    pub op: FleetOp,
    /// Sessions in submission (admission) order.
    pub specs: Vec<SessionSpec>,
    /// Serving configuration.
    pub config: FleetConfig,
    /// `representative[i]`: first index whose spec serves identical frames.
    pub representative: Vec<usize>,
}

impl FleetPlan {
    fn new(op: FleetOp, specs: Vec<SessionSpec>, config: FleetConfig, keys: &[u64]) -> Self {
        let representative = keys
            .iter()
            .map(|k| keys.iter().position(|o| o == k).expect("own key"))
            .collect();
        Self {
            op,
            specs,
            config,
            representative,
        }
    }

    /// Indices of the distinct sessions (each its own representative).
    pub fn distinct(&self) -> Vec<usize> {
        (0..self.specs.len())
            .filter(|&i| self.representative[i] == i)
            .collect()
    }
}

/// Sequence seed drawn for one vehicle (the dataset derives world, noise
/// and feature droughts from it).
fn reseeded(base: &SequenceSpec, seconds: f64, rng: &mut SplitMix) -> SequenceSpec {
    SequenceSpec {
        seed: rng.next_u64() >> 32,
        ..base.truncated(seconds)
    }
}

/// Seconds of sequence each fleet-steady vehicle drives.
pub const STEADY_SECONDS: f64 = 5.0;

/// fleet-steady: the standard 8-vehicle mix (4 cars, 2 drones, a car with
/// a vision dropout and a drone with NaN IMU bursts), every sequence seed
/// drawn from `seed`, served on one worker.
pub fn fleet_steady(seed: u64) -> FleetPlan {
    let mut rng = SplitMix::new(seed, 1);
    let kitti = kitti_sequences();
    let euroc = euroc_sequences();
    let t = STEADY_SECONDS;
    let mut seq = |base: &SequenceSpec| reseeded(base, t, &mut rng);
    let mut specs = vec![
        SessionSpec::new("car-0", seq(&kitti[0]), Priority::High),
        SessionSpec::new("car-1", seq(&kitti[1]), Priority::Normal),
        SessionSpec::new("car-2", seq(&kitti[2]), Priority::Low),
        SessionSpec::new("drone-0", seq(&euroc[0]), Priority::Normal),
        SessionSpec::new("drone-1", seq(&euroc[1]), Priority::Low),
        SessionSpec::new("car-3", seq(&kitti[3]), Priority::Normal),
        SessionSpec::new("car-flaky", seq(&kitti[1]), Priority::High),
        SessionSpec::new("drone-flaky", seq(&euroc[0]), Priority::Low),
    ];
    let fault_seeds = [rng.next_u64(), rng.next_u64()];
    specs[6] = specs[6]
        .clone()
        .with_faults(FaultPlan::new(fault_seeds[0]).with(FaultKind::VisionDropout, 24, 28));
    specs[7] = specs[7]
        .clone()
        .with_faults(FaultPlan::new(fault_seeds[1]).with(
            FaultKind::ImuNan { probability: 0.3 },
            24,
            27,
        ));
    let keys: Vec<u64> = (0..specs.len() as u64).collect();
    let config = FleetConfig {
        threads: 1,
        ..FleetConfig::default()
    };
    FleetPlan::new(FleetOp::Window, specs, config, &keys)
}

/// Vehicles in one fleet-churn batch.
pub const CHURN_VEHICLES: usize = 1536;
/// Seconds of sequence each fleet-churn route covers.
pub const CHURN_SECONDS: f64 = 1.0;
/// Distinct routes fleet-churn vehicles draw from.
pub const CHURN_ROUTES: usize = 48;
/// Frames after which every fleet-churn vehicle departs, before its first
/// window fills.
pub const CHURN_LEAVE_AFTER: usize = 6;
/// Worker threads serving fleet-churn.
pub const CHURN_WORKERS: usize = 2;

/// fleet-churn: [`CHURN_VEHICLES`] short-lived vehicles spread evenly over
/// a seeded pool of [`CHURN_ROUTES`] one-second routes, each leaving after
/// [`CHURN_LEAVE_AFTER`] frames, in a seeded admission order with seeded
/// priorities. Served on two workers with at most 8 active sessions, so the
/// backlog drains continuously through admission, first activation (the
/// frame-stream build), the frontend and the scheduler — and never reaches
/// the solver.
pub fn fleet_churn(seed: u64) -> FleetPlan {
    let mut rng = SplitMix::new(seed, 2);
    let kitti = kitti_sequences();
    let euroc = euroc_sequences();
    let routes: Vec<SequenceSpec> = (0..CHURN_ROUTES)
        .map(|r| {
            let base = if r % 3 == 2 {
                &euroc[r % euroc.len()]
            } else {
                &kitti[r % kitti.len()]
            };
            reseeded(base, CHURN_SECONDS, &mut rng)
        })
        .collect();
    let mut vehicles: Vec<(SessionSpec, u64)> = (0..CHURN_VEHICLES)
        .map(|v| {
            // Every route serves the same number of vehicles, so a seed
            // changes which routes exist, not how often each is driven.
            let route = v % CHURN_ROUTES;
            let priority = [Priority::High, Priority::Normal, Priority::Low][rng.below(3)];
            let spec = SessionSpec::new(format!("v-{v:04}"), routes[route].clone(), priority)
                .leaving_after(CHURN_LEAVE_AFTER);
            (spec, route as u64)
        })
        .collect();
    rng.shuffle(&mut vehicles);
    let (specs, keys): (Vec<_>, Vec<_>) = vehicles.into_iter().unzip();
    let config = FleetConfig {
        threads: CHURN_WORKERS,
        max_active: 8,
        ..FleetConfig::default()
    };
    FleetPlan::new(FleetOp::Frame, specs, config, &keys)
}

/// What one sweep point optimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepObjective {
    /// Eq. 12: minimum latency under the resource constraint.
    MinLatency,
    /// Eq. 11: minimum power under a latency bound of this multiple of the
    /// point's best achievable latency (so every point is feasible).
    MinPowerAt(f64),
}

/// One design request of the sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Algorithm family and its (jittered) workload shape.
    pub description: AlgorithmDescription,
    /// Target board.
    pub platform: FpgaPlatform,
    /// Objective.
    pub objective: SweepObjective,
}

/// Problem shapes in one synth-sweep pass.
pub const SWEEP_SHAPES: usize = 168;
/// Latency-bound multiples of the min-power points.
pub const SWEEP_BOUNDS: [f64; 3] = [1.25, 2.0, 4.0];

/// A seeded problem shape: one of the three algorithm families, with its
/// feature count, window length and track length jittered.
fn jittered_description(rng: &mut SplitMix) -> AlgorithmDescription {
    match rng.below(4) {
        0 => {
            let mut d = AlgorithmDescription::curve_fitting();
            d.shape.features = rng.between(80, 160);
            d.shape.keyframes = rng.between(3, 5);
            d.shape.obs_per_feature = rng.between(6, 10);
            d
        }
        1 => {
            let mut d = AlgorithmDescription::pose_estimation();
            d.shape.features = rng.between(40, 120);
            d.shape.obs_per_feature = rng.between(3, 5);
            d
        }
        _ => {
            let features = rng.between(120, 400);
            let keyframes = rng.between(6, 12);
            AlgorithmDescription::slam(ProblemShape {
                features,
                keyframes,
                obs_per_feature: rng.between(4, keyframes),
                marginalized_features: features / rng.between(6, 14),
                ..ProblemShape::typical()
            })
        }
    }
}

/// synth-sweep: [`SWEEP_SHAPES`] seeded shapes × {ZC706, Kintex-7,
/// Virtex-7} × {min-latency, min-power at each of [`SWEEP_BOUNDS`]}, in a
/// seeded order.
pub fn synth_sweep(seed: u64) -> Vec<SweepPoint> {
    let mut rng = SplitMix::new(seed, 3);
    let platforms = [
        FpgaPlatform::zc706(),
        FpgaPlatform::kintex7_160t(),
        FpgaPlatform::virtex7_690t(),
    ];
    let objectives: Vec<SweepObjective> = std::iter::once(SweepObjective::MinLatency)
        .chain(SWEEP_BOUNDS.map(SweepObjective::MinPowerAt))
        .collect();
    let mut points = Vec::new();
    for _ in 0..SWEEP_SHAPES {
        let description = jittered_description(&mut rng);
        for platform in &platforms {
            for &objective in &objectives {
                points.push(SweepPoint {
                    description: description.clone(),
                    platform: platform.clone(),
                    objective,
                });
            }
        }
    }
    rng.shuffle(&mut points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_specs() {
        for seed in [0, 1, HELD_OUT_SEED] {
            assert_eq!(
                format!("{:?}", fleet_steady(seed)),
                format!("{:?}", fleet_steady(seed))
            );
            assert_eq!(
                format!("{:?}", fleet_churn(seed)),
                format!("{:?}", fleet_churn(seed))
            );
            assert_eq!(
                format!("{:?}", synth_sweep(seed)),
                format!("{:?}", synth_sweep(seed))
            );
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(
            format!("{:?}", fleet_steady(1).specs),
            format!("{:?}", fleet_steady(2).specs)
        );
        assert_ne!(
            format!("{:?}", fleet_churn(1).specs),
            format!("{:?}", fleet_churn(2).specs)
        );
        assert_ne!(
            format!("{:?}", synth_sweep(1)),
            format!("{:?}", synth_sweep(2))
        );
    }

    #[test]
    fn churn_vehicles_leave_early_and_share_a_small_route_pool() {
        let plan = fleet_churn(7);
        assert_eq!(plan.specs.len(), CHURN_VEHICLES);
        assert!(plan
            .specs
            .iter()
            .all(|s| s.leave_after_frames == Some(CHURN_LEAVE_AFTER)));
        assert_eq!(plan.distinct().len(), CHURN_ROUTES);
        for (i, &r) in plan.representative.iter().enumerate() {
            let (a, b) = (&plan.specs[i], &plan.specs[r]);
            assert_eq!(a.sequence.seed, b.sequence.seed);
            assert_eq!(a.leave_after_frames, b.leave_after_frames);
        }
    }

    #[test]
    fn sweep_covers_every_platform_and_objective() {
        let sweep = synth_sweep(5);
        assert_eq!(sweep.len(), SWEEP_SHAPES * 3 * (1 + SWEEP_BOUNDS.len()));
        assert!(sweep.len() >= 1_000);
        for name in ["ZC706", "Kintex", "Virtex"] {
            assert!(
                sweep.iter().any(|p| p.platform.name.contains(name)),
                "{name}"
            );
        }
    }

    #[test]
    fn generator_is_uniformish_and_shuffle_is_a_permutation() {
        let mut rng = SplitMix::new(9, 0);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
        assert!((0..1000).all(|_| (3..=5).contains(&rng.between(3, 5))));
    }
}
