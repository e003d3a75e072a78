//! Cost-driven M-DFG construction (paper Sec. 3.2).
//!
//! The general MAP algorithm (Fig. 2) leaves key blocks — the linear-system
//! solve and the marginalization priors — with many possible concrete
//! implementations. The builder picks the implementation that minimizes
//! arithmetic cost:
//!
//! * For the NLS solve `A·δp = b` it sweeps the Schur-elimination split
//!   point `p` over a cost model and (as the paper observes) lands on the
//!   blocking whose leading block `U` is the diagonal landmark block — the
//!   **D-type Schur**.
//! * For marginalization it blocks `M` so that `M₁₁` is the diagonal
//!   landmark sub-block, turning `S′ = M₂₂ − M₂₁·M₁₁⁻¹·M₁₂` into another
//!   D-type Schur that can *share hardware* with the NLS one (Sec. 3.2.3).

use crate::graph::{MDfg, NodeId};
use crate::node::{node_cost, Dims, NodeKind};

/// Shape of one sliding-window problem, the input to every cost model.
/// `Hash` lets shapes key maps, since distinct windows frequently share a
/// shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemShape {
    /// Number of feature points (`a`).
    pub features: usize,
    /// Number of keyframes (`b`).
    pub keyframes: usize,
    /// States per keyframe (`k`, 15 in this system).
    pub states_per_keyframe: usize,
    /// Average observations per feature (`No`), rounded.
    pub obs_per_feature: usize,
    /// Features marginalized when the window slides (`am`).
    pub marginalized_features: usize,
}

impl ProblemShape {
    /// A typical KITTI-scale window: `k = 15`, `b = 10`, ≈10× more features
    /// than keyframes and ≈10× more observations than features — the ratios
    /// the paper profiles (Sec. 4.2).
    pub fn typical() -> Self {
        Self {
            features: 250,
            keyframes: 10,
            states_per_keyframe: 15,
            obs_per_feature: 10,
            marginalized_features: 25,
        }
    }

    /// Builds a shape from observed workload statistics.
    pub fn from_workload(w: &archytas_slam::WindowWorkload) -> Self {
        Self {
            features: w.features.max(1),
            keyframes: w.keyframes.max(2),
            states_per_keyframe: archytas_slam::STATE_DIM,
            obs_per_feature: (w.avg_observations_per_feature().round() as usize).max(1),
            marginalized_features: w.marginalized_features,
        }
    }

    /// Dimension of the keyframe block (`k·b`).
    pub fn pose_block_dim(&self) -> usize {
        self.states_per_keyframe * self.keyframes
    }

    /// Full state dimension (`a + k·b`).
    pub fn state_dim(&self) -> usize {
        self.features + self.pose_block_dim()
    }
}

/// A chosen blocking strategy for a Schur elimination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockingChoice {
    /// Split point: size of the eliminated leading block.
    pub p: usize,
    /// Whether the leading block is diagonal at this split (D-type).
    pub leading_diagonal: bool,
    /// Modelled cost of solving with this blocking.
    pub cost: u64,
}

/// Cost of solving the `n × n` NLS system with Schur elimination at split
/// `p`, where the first `a` coordinates (landmarks) form a diagonal block.
///
/// For `p ≤ a` the leading block is diagonal: inversion is `O(p)` and
/// `W·U⁻¹` is a column scaling. For `p > a` the leading block mixes in dense
/// keyframe states, so inverting it costs `O(p³)` — the cost model makes the
/// paper's observation quantitative.
pub fn nls_schur_cost(shape: &ProblemShape, p: usize) -> u64 {
    let n = shape.state_dim();
    let a = shape.features;
    let q = n - p;
    let (inv_cost, wuinv_cost) = if p <= a {
        (
            node_cost(NodeKind::DMatInv, Dims::square(p)),
            node_cost(NodeKind::DMatMul, Dims::rect(q, p)),
        )
    } else {
        (
            // Dense inversion via Cholesky + p triangular solves.
            node_cost(NodeKind::CD, Dims::square(p)) + (p as u64) * (p as u64) * (p as u64),
            node_cost(NodeKind::MatMul, Dims::product(q, p, p)),
        )
    };
    let schur_mul = node_cost(NodeKind::MatMul, Dims::product(q, p, q));
    let sub = node_cost(NodeKind::MatSub, Dims::square(q));
    let reduced_solve =
        node_cost(NodeKind::CD, Dims::square(q)) + node_cost(NodeKind::FBSub, Dims::square(q));
    // Back substitution for the eliminated block.
    let back = if p <= a {
        (p + p * q) as u64
    } else {
        (p * p + p * q) as u64
    };
    inv_cost + wuinv_cost + schur_mul + sub + reduced_solve + back
}

/// Sweeps every split point (including `p = 0`, the direct dense solve) and
/// returns the argmin.
pub fn optimal_nls_blocking(shape: &ProblemShape) -> BlockingChoice {
    let n = shape.state_dim();
    let mut best = BlockingChoice {
        p: 0,
        leading_diagonal: true,
        // p = 0 degenerates to the direct dense solve of the full system.
        cost: node_cost(NodeKind::CD, Dims::square(n))
            + node_cost(NodeKind::FBSub, Dims::square(n)),
    };
    for p in 1..n {
        let cost = nls_schur_cost(shape, p);
        if cost < best.cost {
            best = BlockingChoice {
                p,
                leading_diagonal: p <= shape.features,
                cost,
            };
        }
    }
    best
}

/// Cost of the marginalization prior computation when `M` (the marginalized
/// block, `am` landmarks + one keyframe) is blocked at `p`.
pub fn marginalization_schur_cost(shape: &ProblemShape, p: usize) -> u64 {
    let am = shape.marginalized_features;
    let k = shape.states_per_keyframe;
    let m_dim = am + k;
    let kept = shape.pose_block_dim().saturating_sub(k);
    if m_dim == 0 || kept == 0 {
        return 0;
    }
    let q = m_dim - p;
    // Inverting M via Eq. 5 with the leading p×p block M₁₁:
    let m11_inv = if p <= am {
        node_cost(NodeKind::DMatInv, Dims::square(p))
    } else {
        node_cost(NodeKind::CD, Dims::square(p)) + (p as u64).pow(3)
    };
    // S′ = M₂₂ − M₂₁ M₁₁⁻¹ M₁₂ and its inversion.
    let sprime = node_cost(NodeKind::MatMul, Dims::product(q, p, q))
        + node_cost(NodeKind::MatSub, Dims::square(q))
        + node_cost(NodeKind::CD, Dims::square(q))
        + (q as u64).pow(3);
    // Assembling M⁻¹'s four blocks (Eq. 5) and the outer products with Λ.
    let assemble = 2 * node_cost(NodeKind::MatMul, Dims::product(p, q, p))
        + node_cost(NodeKind::MatMul, Dims::product(p, p, q));
    let outer = node_cost(NodeKind::MatMul, Dims::product(kept, m_dim, m_dim))
        + node_cost(NodeKind::MatMul, Dims::product(kept, m_dim, kept))
        + node_cost(NodeKind::MatSub, Dims::square(kept));
    m11_inv + sprime + assemble + outer
}

/// Optimal blocking of the marginalized block `M`.
pub fn optimal_marginalization_blocking(shape: &ProblemShape) -> BlockingChoice {
    let m_dim = shape.marginalized_features + shape.states_per_keyframe;
    let mut best = BlockingChoice {
        p: 0,
        leading_diagonal: true,
        cost: u64::MAX,
    };
    for p in 0..m_dim {
        let cost = marginalization_schur_cost(shape, p);
        if cost < best.cost {
            best = BlockingChoice {
                p,
                leading_diagonal: p <= shape.marginalized_features,
                cost,
            };
        }
    }
    best
}

/// The concrete M-DFGs of one sliding-window pass plus the blocking
/// decisions behind them.
#[derive(Debug, Clone)]
pub struct BuiltMdfg {
    /// One NLS iteration (runs `Iter` times per window).
    pub nls: MDfg,
    /// Marginalization (runs once per window).
    pub marginalization: MDfg,
    /// Chosen NLS blocking.
    pub nls_blocking: BlockingChoice,
    /// Chosen marginalization blocking.
    pub marg_blocking: BlockingChoice,
    /// Node ids of the two D-type Schur product nodes — candidates for
    /// hardware sharing.
    pub shared_dschur: (NodeId, NodeId),
}

/// Builds the final M-DFG for a window shape (paper Fig. 3b for the solver
/// part).
pub fn build_mdfg(shape: &ProblemShape) -> BuiltMdfg {
    let nls_blocking = optimal_nls_blocking(shape);
    let marg_blocking = optimal_marginalization_blocking(shape);

    let a = shape.features;
    let q = shape.state_dim() - nls_blocking.p;
    let obs = a * shape.obs_per_feature;

    // ---- NLS iteration ----
    let mut nls = MDfg::new();
    let vjac = nls.add_node(NodeKind::VJac, Dims::rect(obs, 0), "nls.vjac");
    let ijac = nls.add_node(
        NodeKind::IJac,
        Dims::rect(shape.keyframes.saturating_sub(1), 0),
        "nls.ijac",
    );
    // Prepare A, b: the Gram accumulation JᵀJ (dominated by the visual part)
    let prep_a = nls.add_node(
        NodeKind::MatMul,
        Dims::product(shape.state_dim(), 2 * obs.max(1), 1),
        "nls.prepare_ab",
    );
    nls.add_edge(vjac, prep_a);
    nls.add_edge(ijac, prep_a);
    // D-type Schur sub-graph (Fig. 3b): DMatInv → DMatMul → MatTp/MatMul → MatSub
    let dinv = nls.add_node(
        NodeKind::DMatInv,
        Dims::square(nls_blocking.p),
        "nls.dschur.Uinv",
    );
    let dmul = nls.add_node(
        NodeKind::DMatMul,
        Dims::rect(q, nls_blocking.p),
        "nls.dschur.WUinv",
    );
    let wt = nls.add_node(
        NodeKind::MatTp,
        Dims::rect(q, nls_blocking.p),
        "nls.dschur.Wt",
    );
    let mul = nls.add_node(
        NodeKind::MatMul,
        Dims::product(q, nls_blocking.p, q),
        "nls.dschur.WUinvWt",
    );
    let sub = nls.add_node(NodeKind::MatSub, Dims::square(q), "nls.dschur.sub");
    nls.add_edge(prep_a, dinv);
    nls.add_edge(dinv, dmul);
    nls.add_edge(prep_a, wt);
    nls.add_edge(dmul, mul);
    nls.add_edge(wt, mul);
    nls.add_edge(mul, sub);
    // Reduced solve + back substitution.
    let cd = nls.add_node(NodeKind::CD, Dims::square(q), "nls.cd");
    let fbsub = nls.add_node(NodeKind::FBSub, Dims::square(q), "nls.fbsub");
    nls.add_edge(sub, cd);
    nls.add_edge(cd, fbsub);
    let back = nls.add_node(
        NodeKind::DMatMul,
        Dims::rect(nls_blocking.p, 1),
        "nls.back_subst",
    );
    nls.add_edge(fbsub, back);
    nls.add_edge(dinv, back);

    // ---- Marginalization ----
    let am = shape.marginalized_features;
    let k = shape.states_per_keyframe;
    let kept = shape.pose_block_dim().saturating_sub(k);
    let m_dim = am + k;
    let mq = m_dim - marg_blocking.p;
    let mut marg = MDfg::new();
    let mvjac = marg.add_node(
        NodeKind::VJac,
        Dims::rect(am * shape.obs_per_feature, 0),
        "marg.vjac",
    );
    let mijac = marg.add_node(NodeKind::IJac, Dims::rect(1, 0), "marg.ijac");
    let info = marg.add_node(
        NodeKind::MatMul,
        Dims::product(m_dim + kept, 2 * am * shape.obs_per_feature.max(1), 1),
        "marg.information",
    );
    marg.add_edge(mvjac, info);
    marg.add_edge(mijac, info);
    // M-type Schur: invert M via Eq. 5 whose inner S′ is a D-type Schur.
    let m11inv = marg.add_node(
        NodeKind::DMatInv,
        Dims::square(marg_blocking.p),
        "marg.mschur.M11inv",
    );
    let m21m11 = marg.add_node(
        NodeKind::DMatMul,
        Dims::rect(mq, marg_blocking.p),
        "marg.mschur.M21M11inv",
    );
    let sprime_mul = marg.add_node(
        NodeKind::MatMul,
        Dims::product(mq, marg_blocking.p, mq),
        "marg.mschur.Sprime",
    );
    let sprime_sub = marg.add_node(NodeKind::MatSub, Dims::square(mq), "marg.mschur.sub");
    let sprime_cd = marg.add_node(NodeKind::CD, Dims::square(mq), "marg.mschur.cd");
    let sprime_fb = marg.add_node(NodeKind::FBSub, Dims::square(mq), "marg.mschur.fbsub");
    marg.add_edge(info, m11inv);
    marg.add_edge(m11inv, m21m11);
    marg.add_edge(m21m11, sprime_mul);
    marg.add_edge(sprime_mul, sprime_sub);
    marg.add_edge(sprime_sub, sprime_cd);
    marg.add_edge(sprime_cd, sprime_fb);
    // Priors: Hp = A − Λ M⁻¹ Λᵀ, rp = br − Λ M⁻¹ bm.
    let lam_minv = marg.add_node(
        NodeKind::MatMul,
        Dims::product(kept, m_dim, m_dim),
        "marg.prior.LamMinv",
    );
    let lam_t = marg.add_node(NodeKind::MatTp, Dims::rect(kept, m_dim), "marg.prior.LamT");
    let hp_mul = marg.add_node(
        NodeKind::MatMul,
        Dims::product(kept, m_dim, kept),
        "marg.prior.Hp_mul",
    );
    let hp_sub = marg.add_node(NodeKind::MatSub, Dims::square(kept), "marg.prior.Hp");
    let rp_sub = marg.add_node(NodeKind::MatSub, Dims::rect(kept, 1), "marg.prior.rp");
    marg.add_edge(sprime_fb, lam_minv);
    marg.add_edge(info, lam_t);
    marg.add_edge(lam_minv, hp_mul);
    marg.add_edge(lam_t, hp_mul);
    marg.add_edge(hp_mul, hp_sub);
    marg.add_edge(lam_minv, rp_sub);

    BuiltMdfg {
        nls,
        marginalization: marg,
        nls_blocking,
        marg_blocking,
        shared_dschur: (mul, sprime_mul),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_nls_split_is_the_landmark_block() {
        // The paper's key observation: the argmin blocks A so U is the full
        // diagonal landmark block.
        for shape in [
            ProblemShape::typical(),
            ProblemShape {
                features: 250,
                keyframes: 10,
                states_per_keyframe: 15,
                obs_per_feature: 8,
                marginalized_features: 25,
            },
            ProblemShape {
                features: 40,
                keyframes: 8,
                states_per_keyframe: 15,
                obs_per_feature: 3,
                marginalized_features: 5,
            },
        ] {
            let choice = optimal_nls_blocking(&shape);
            assert_eq!(choice.p, shape.features, "shape {shape:?}");
            assert!(choice.leading_diagonal);
        }
    }

    #[test]
    fn schur_beats_direct_solve() {
        let shape = ProblemShape::typical();
        let n = shape.state_dim();
        let direct =
            node_cost(NodeKind::CD, Dims::square(n)) + node_cost(NodeKind::FBSub, Dims::square(n));
        let choice = optimal_nls_blocking(&shape);
        assert!(
            choice.cost * 3 < direct * 2,
            "schur {} should be at least a third cheaper than direct {direct}",
            choice.cost
        );
    }

    #[test]
    fn oversized_split_is_penalized() {
        // Splitting past the landmark block forces dense inversion and must
        // cost more than the D-type split.
        let shape = ProblemShape::typical();
        let at_a = nls_schur_cost(&shape, shape.features);
        let past_a = nls_schur_cost(&shape, shape.features + 30);
        assert!(past_a > at_a);
    }

    #[test]
    fn marginalization_blocks_landmarks_diagonally() {
        let shape = ProblemShape::typical();
        let choice = optimal_marginalization_blocking(&shape);
        assert_eq!(choice.p, shape.marginalized_features);
        assert!(choice.leading_diagonal);
    }

    #[test]
    fn built_graphs_are_acyclic_and_complete() {
        let built = build_mdfg(&ProblemShape::typical());
        assert!(built.nls.topo_order().is_ok());
        assert!(built.marginalization.topo_order().is_ok());
        // The NLS graph realizes Fig. 3b: exactly one of each Schur piece.
        let h = built.nls.kind_histogram();
        assert_eq!(h[&NodeKind::DMatInv], 1);
        assert_eq!(h[&NodeKind::CD], 1);
        assert_eq!(h[&NodeKind::FBSub], 1);
        assert!(h[&NodeKind::MatMul] >= 2);
    }

    #[test]
    fn shared_dschur_nodes_have_matching_kind() {
        let built = build_mdfg(&ProblemShape::typical());
        let n1 = built.nls.node(built.shared_dschur.0);
        let n2 = built.marginalization.node(built.shared_dschur.1);
        assert_eq!(n1.kind, NodeKind::MatMul);
        assert_eq!(n2.kind, NodeKind::MatMul);
    }

    #[test]
    fn shape_from_workload() {
        let w = archytas_slam::WindowWorkload {
            features: 120,
            observations: 600,
            keyframes: 10,
            marginalized_features: 12,
        };
        let s = ProblemShape::from_workload(&w);
        assert_eq!(s.features, 120);
        assert_eq!(s.obs_per_feature, 5);
        assert_eq!(s.state_dim(), 120 + 150);
    }
}
