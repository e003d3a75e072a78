//! The top-level Archytas framework API (paper Fig. 1, left-to-right):
//! algorithm description → M-DFG → schedule → synthesized configuration →
//! synthesizable Verilog.

use crate::synth::{synthesize, DesignSpec, SynthesisError, SynthesizedDesign};
use crate::verilog::{emit_verilog, VerilogDesign};
use archytas_mdfg::{build_mdfg, schedule, BuiltMdfg, ProblemShape, Schedule};

/// The MAP-estimation algorithm families Archytas generates accelerators
/// for. Beyond sliding-window SLAM, the paper demonstrates generality on
/// two more MAP problems (Sec. 7.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// Sliding-window visual–inertial SLAM (the primary case study).
    SlidingWindowSlam,
    /// Timed-elastic curve fitting for motion planning.
    CurveFitting,
    /// Camera pose estimation for augmented reality.
    PoseEstimation,
}

/// A high-level algorithm description: the family plus its workload shape.
#[derive(Debug, Clone)]
pub struct AlgorithmDescription {
    /// Algorithm family.
    pub kind: AlgorithmKind,
    /// Workload shape driving the cost and latency models.
    pub shape: ProblemShape,
    /// Whether the algorithm carries a marginalization phase.
    pub marginalization: bool,
}

impl AlgorithmDescription {
    /// Sliding-window SLAM at the typical KITTI-scale shape.
    pub fn slam_typical() -> Self {
        Self {
            kind: AlgorithmKind::SlidingWindowSlam,
            shape: ProblemShape::typical(),
            marginalization: true,
        }
    }

    /// SLAM at a caller-provided shape.
    pub fn slam(shape: ProblemShape) -> Self {
        Self {
            kind: AlgorithmKind::SlidingWindowSlam,
            shape,
            marginalization: true,
        }
    }

    /// Curve fitting for planning (Sec. 7.7): many scalar residuals over a
    /// few dense coefficient blocks, no marginalization.
    pub fn curve_fitting() -> Self {
        Self {
            kind: AlgorithmKind::CurveFitting,
            shape: ProblemShape {
                features: 120,
                keyframes: 4,
                states_per_keyframe: 15,
                obs_per_feature: 8,
                marginalized_features: 0,
            },
            marginalization: false,
        }
    }

    /// Pose estimation for AR (Sec. 7.7): one 6-DoF pose constrained by
    /// many 2D–3D correspondences.
    pub fn pose_estimation() -> Self {
        Self {
            kind: AlgorithmKind::PoseEstimation,
            shape: ProblemShape {
                features: 80,
                keyframes: 2,
                states_per_keyframe: 15,
                obs_per_feature: 4,
                marginalized_features: 0,
            },
            marginalization: false,
        }
    }
}

/// Everything Archytas generates for one request.
#[derive(Debug, Clone)]
pub struct GeneratedAccelerator {
    /// The algorithm this accelerator serves.
    pub description: AlgorithmDescription,
    /// The concrete M-DFG (with its blocking decisions).
    pub mdfg: BuiltMdfg,
    /// The static schedule onto the template's blocks.
    pub schedule: Schedule,
    /// The synthesized configuration with its modelled latency/power/resources.
    pub design: SynthesizedDesign,
    /// The emitted Verilog.
    pub verilog: VerilogDesign,
}

/// The framework entry point.
#[derive(Debug, Default, Clone, Copy)]
pub struct Archytas;

impl Archytas {
    /// Runs the full generation flow of Fig. 1.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError`] when no configuration meets the spec on
    /// the target platform.
    pub fn generate(
        description: &AlgorithmDescription,
        spec: &DesignSpec,
    ) -> Result<GeneratedAccelerator, SynthesisError> {
        let spec = DesignSpec {
            shape: description.shape,
            ..spec.clone()
        };
        let mdfg = build_mdfg(&description.shape);
        let sched = schedule(&mdfg);
        let design = synthesize(&spec)?;
        let verilog = emit_verilog(&design.config);
        Ok(GeneratedAccelerator {
            description: description.clone(),
            mdfg,
            schedule: sched,
            design,
            verilog,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use crate::synth::Objective;
    use archytas_hw::FpgaPlatform;

    #[test]
    fn slam_generation_end_to_end() {
        let desc = AlgorithmDescription::slam_typical();
        let spec = DesignSpec::zc706_power_optimal(5.0);
        let acc = Archytas::generate(&desc, &spec).expect("feasible");
        assert!(acc.design.latency_ms <= 5.0);
        assert!(elaborate(&acc.verilog).is_ok());
        assert_eq!(acc.mdfg.nls_blocking.p, desc.shape.features);
        assert!(!acc.schedule.shared_blocks.is_empty());
    }

    #[test]
    fn other_algorithms_generate() {
        for desc in [
            AlgorithmDescription::curve_fitting(),
            AlgorithmDescription::pose_estimation(),
        ] {
            let spec = DesignSpec {
                objective: Objective::MinLatency,
                ..DesignSpec::zc706_power_optimal(0.0)
            };
            let acc = Archytas::generate(&desc, &spec).expect("feasible");
            assert!(acc.design.latency_ms > 0.0);
            assert!(elaborate(&acc.verilog).is_ok());
            assert!(!desc.marginalization || !acc.mdfg.marginalization.is_empty());
        }
    }

    #[test]
    fn spec_shape_is_overridden_by_description() {
        let desc = AlgorithmDescription::pose_estimation();
        let spec = DesignSpec::zc706_power_optimal(50.0); // spec carries the SLAM shape
        let acc = Archytas::generate(&desc, &spec).expect("feasible");
        // Pose estimation is a tiny workload: latency far below the bound,
        // modest design.
        assert!(acc.design.latency_ms < 5.0);
    }

    #[test]
    fn kintex_generation_targets_smaller_fabric() {
        let desc = AlgorithmDescription::slam_typical();
        let spec = DesignSpec {
            platform: FpgaPlatform::kintex7_160t(),
            objective: Objective::MinLatency,
            ..DesignSpec::zc706_power_optimal(0.0)
        };
        let acc = Archytas::generate(&desc, &spec).expect("feasible");
        assert!(acc
            .design
            .resources
            .fits(&FpgaPlatform::kintex7_160t().capacity));
        // The smaller board cannot host a ZC706-class design.
        let zc_spec = DesignSpec {
            platform: FpgaPlatform::zc706(),
            objective: Objective::MinLatency,
            ..DesignSpec::zc706_power_optimal(0.0)
        };
        let zc = Archytas::generate(&desc, &zc_spec).expect("feasible");
        assert!(zc.design.latency_ms <= acc.design.latency_ms);
    }
}
