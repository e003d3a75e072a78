//! Assembly of the normal equations `A·δp = b` for one sliding window.
//!
//! The global error-state ordering puts all inverse depths first, then the
//! 15-dim keyframe states. Because every visual factor touches exactly one
//! inverse depth, the leading `a × a` block of `A` is *diagonal*; this is the
//! structure that makes the paper's D-type Schur elimination optimal
//! (Sec. 3.2.2) and that the hardware template is organized around.
//!
//! `A` is assembled directly from per-factor blocks (as production BA solvers
//! do) rather than materializing the global Jacobian; the per-factor flop
//! counts still match the M-DFG cost model in `archytas-mdfg`.

use crate::factors::{
    evaluate_imu, evaluate_visual_residual, evaluate_visual_with, keyframe_rotations,
    FactorWeights, VISUAL_WEIGHT,
};
use crate::geometry::Mat3;
use crate::prior::{Prior, PriorScratch};
use crate::window::{SlidingWindow, STATE_DIM};
use archytas_math::{kernels, BlockSparseSystem, DMat, DVec};

/// Height of the `W` blocks a visual factor writes: the pose-tangent slots of
/// a keyframe state (rotation + translation, the first 6 of the 15).
pub const POSE_TANGENT_DIM: usize = 6;

/// Destination of normal-equation scatter writes.
///
/// The assembly loop is generic over this sink so the dense matrix and the
/// block-sparse system are filled by the *same* factor iteration: every
/// logical entry receives the same contributions in the same order, which is
/// what makes the two solve paths bit-identical.
pub(crate) trait NormalEqSink {
    /// Adds `v` at `(i, j)` of `A` in the global state ordering. Raw — no
    /// implicit mirroring; callers write both triangles explicitly.
    fn add_a(&mut self, i: usize, j: usize, v: f64);
    /// Subtracts `v` from `b[i]` (the `b -= Jᵀ·W·e` scatter convention).
    fn sub_b(&mut self, i: usize, v: f64);
    /// Adds `scale·vals[t]` at `(i, j0 + t)` for each nonzero `vals[t]` — the
    /// contiguous-run form of [`NormalEqSink::add_a`] that lets sinks use
    /// slice writes on matrix rows.
    ///
    /// Skipping the zero entries mirrors the per-pair scatter's zero guard
    /// and is bit-safe even where the per-element path did not skip:
    /// accumulated entries are sums of nonzero terms, hence never `-0.0`,
    /// and adding `±0.0` to anything that is not `-0.0` leaves its bit
    /// pattern alone.
    fn add_a_row(&mut self, i: usize, j0: usize, vals: &[f64], scale: f64) {
        for (t, &v) in vals.iter().enumerate() {
            if v != 0.0 {
                self.add_a(i, j0 + t, scale * v);
            }
        }
    }
    /// Mirror of an [`NormalEqSink::add_a_row`]: the symmetric counterpart
    /// writes `scale·vals[t]` at `(i0 + t, j)`, below the diagonal (the
    /// assembler emits runs in ascending column order, so row writes land in
    /// the upper triangle and mirrors in the lower).
    ///
    /// Because the mirror of every contribution carries the exact same value
    /// as its primary, the accumulated lower triangle is bitwise equal to
    /// the transposed upper one. Sinks may therefore ignore these calls and
    /// instead copy the lower triangle from the upper in
    /// [`NormalEqSink::reflect_upper`] — *except* where the mirrored region
    /// is their only storage for a block (the block-sparse `W`).
    fn mirror_a_col(&mut self, i0: usize, j: usize, vals: &[f64], scale: f64) {
        for (t, &v) in vals.iter().enumerate() {
            if v != 0.0 {
                self.add_a(i0 + t, j, scale * v);
            }
        }
    }
    /// Called once after the factor loop (before the prior and gauge
    /// writes, which land raw on both triangles). Sinks that ignored
    /// [`NormalEqSink::mirror_a_col`] writes reconstruct the lower triangle
    /// here by copying the upper.
    fn reflect_upper(&mut self) {}

    /// Fused pair form of [`NormalEqSink::add_a_row`]: row 0's contribution
    /// then row 1's at the same `(i, j0)` run. The default is the two
    /// sequential calls; sinks override it with a single-traversal kernel
    /// that applies both guarded multiply-adds per cell in the same order —
    /// bit-identical by construction, half the row walks.
    fn add_a_row2(&mut self, i: usize, j0: usize, vals0: &[f64], s0: f64, vals1: &[f64], s1: f64) {
        self.add_a_row(i, j0, vals0, s0);
        self.add_a_row(i, j0, vals1, s1);
    }

    /// Fused pair form of [`NormalEqSink::mirror_a_col`], with the same
    /// contract as [`NormalEqSink::add_a_row2`].
    fn mirror_a_col2(
        &mut self,
        i0: usize,
        j: usize,
        vals0: &[f64],
        s0: f64,
        vals1: &[f64],
        s1: f64,
    ) {
        self.mirror_a_col(i0, j, vals0, s0);
        self.mirror_a_col(i0, j, vals1, s1);
    }

    /// Fused many-row form of [`NormalEqSink::add_a_row`]: every `(vals,
    /// scale)` source row — `len` leading entries of each — applied at the
    /// same `(i, j0)` run, in slice order. Default is the sequential calls;
    /// overrides keep the per-cell contribution order and bits.
    fn add_a_row_fused(&mut self, i: usize, j0: usize, len: usize, rows: &[(&[f64], f64)]) {
        for &(vals, s) in rows {
            self.add_a_row(i, j0, &vals[..len], s);
        }
    }

    /// Fused many-row form of [`NormalEqSink::mirror_a_col`], with the same
    /// contract as [`NormalEqSink::add_a_row_fused`].
    fn mirror_a_col_fused(&mut self, i0: usize, j: usize, len: usize, rows: &[(&[f64], f64)]) {
        for &(vals, s) in rows {
            self.mirror_a_col(i0, j, &vals[..len], s);
        }
    }

    /// Whole-observation scatter of one visual factor: a 1-wide inverse-depth
    /// run plus two pose-tangent runs (`first.0 < second.0`), shared by both
    /// residual rows. The default is exactly the generic per-source-column
    /// scatter ([`scatter_runs2`]); sinks that store the factor's destination
    /// regions directly override it with a fused routine that replays the
    /// same per-cell guarded multiply-add sequence — bit-identical by
    /// construction — without the per-column sink-call plumbing.
    fn scatter_visual(
        &mut self,
        rho: (usize, &[f64], &[f64]),
        first: (usize, &[f64], &[f64]),
        second: (usize, &[f64], &[f64]),
        e: [f64; 2],
        w2: f64,
    ) where
        Self: Sized,
    {
        scatter_runs2(self, &[rho, first, second], e, w2);
    }
}

pub(crate) struct DenseSink<'a> {
    pub a: &'a mut DMat,
    pub b: &'a mut DVec,
}

impl NormalEqSink for DenseSink<'_> {
    fn add_a(&mut self, i: usize, j: usize, v: f64) {
        self.a.add_at(i, j, v);
    }
    fn sub_b(&mut self, i: usize, v: f64) {
        self.b[i] -= v;
    }
    fn add_a_row(&mut self, i: usize, j0: usize, vals: &[f64], scale: f64) {
        kernels::add_scaled_skip(&mut self.a.row_mut(i)[j0..j0 + vals.len()], vals, scale);
    }
    fn mirror_a_col(&mut self, _i0: usize, _j: usize, _vals: &[f64], _scale: f64) {
        // Deferred: the whole lower triangle is copied in `reflect_upper`.
    }
    fn add_a_row2(&mut self, i: usize, j0: usize, vals0: &[f64], s0: f64, vals1: &[f64], s1: f64) {
        kernels::add_scaled_skip2(
            &mut self.a.row_mut(i)[j0..j0 + vals0.len()],
            vals0,
            s0,
            vals1,
            s1,
        );
    }
    fn mirror_a_col2(
        &mut self,
        _i0: usize,
        _j: usize,
        _vals0: &[f64],
        _s0: f64,
        _vals1: &[f64],
        _s1: f64,
    ) {
        // Deferred, like the single-row mirror.
    }
    fn add_a_row_fused(&mut self, i: usize, j0: usize, len: usize, rows: &[(&[f64], f64)]) {
        kernels::add_scaled_skip_rows(&mut self.a.row_mut(i)[j0..j0 + len], rows);
    }
    fn mirror_a_col_fused(&mut self, _i0: usize, _j: usize, _len: usize, _rows: &[(&[f64], f64)]) {
        // Deferred, like the single-row mirror.
    }
    fn reflect_upper(&mut self) {
        let n = self.a.rows();
        for r in 0..n {
            for c in (r + 1)..n {
                let v = self.a.get(r, c);
                self.a.set(c, r, v);
            }
        }
    }
}

/// Routes global-ordering writes into a [`BlockSparseSystem`]: the leading
/// `p` indices are landmarks, the rest the pose region. Upper-right (`X`)
/// writes are dropped — that block is implied by symmetry and never stored —
/// so the `W` entries receive exactly the mirror-write sequence the dense
/// lower-left block gets.
struct BlockSink<'a> {
    sys: &'a mut BlockSparseSystem<f64>,
    p: usize,
}

impl NormalEqSink for BlockSink<'_> {
    fn add_a(&mut self, i: usize, j: usize, v: f64) {
        let p = self.p;
        match (i < p, j < p) {
            (true, true) => {
                debug_assert_eq!(i, j, "off-diagonal landmark–landmark entry");
                self.sys.add_u(i, v);
            }
            (false, false) => self.sys.add_v(i - p, j - p, v),
            (false, true) => self.sys.add_w(j, i - p, v),
            (true, false) => {}
        }
    }
    fn sub_b(&mut self, i: usize, v: f64) {
        if i < self.p {
            self.sys.sub_bx(i, v);
        } else {
            self.sys.sub_by(i - self.p, v);
        }
    }
    fn add_a_row(&mut self, i: usize, j0: usize, vals: &[f64], scale: f64) {
        let p = self.p;
        if i >= p && j0 >= p {
            self.sys.add_v_row(i - p, j0 - p, vals, scale);
        } else if i < p && j0 >= p {
            // X block: implied by symmetry, never stored.
        } else {
            for (t, &v) in vals.iter().enumerate() {
                if v != 0.0 {
                    self.add_a(i, j0 + t, scale * v);
                }
            }
        }
    }
    fn mirror_a_col(&mut self, i0: usize, j: usize, vals: &[f64], scale: f64) {
        let p = self.p;
        if i0 >= p && j < p {
            // The mirror writes *are* the `W` block's storage (the upper
            // `X` primaries are dropped), so they cannot be deferred.
            self.sys.add_w_run(j, i0 - p, vals, scale);
        } else if i0 >= p {
            // Pose–pose mirror: deferred, `reflect_upper` copies `V`'s
            // lower triangle from the upper.
        } else {
            for (t, &v) in vals.iter().enumerate() {
                if v != 0.0 {
                    self.add_a(i0 + t, j, scale * v);
                }
            }
        }
    }
    fn add_a_row2(&mut self, i: usize, j0: usize, vals0: &[f64], s0: f64, vals1: &[f64], s1: f64) {
        let p = self.p;
        if i >= p && j0 >= p {
            self.sys.add_v_row2(i - p, j0 - p, vals0, s0, vals1, s1);
        } else if i < p && j0 >= p {
            // X block: implied by symmetry, never stored.
        } else {
            // Landmark-region runs are single-entry; the sequential calls
            // keep the per-cell row-0-then-row-1 order.
            self.add_a_row(i, j0, vals0, s0);
            self.add_a_row(i, j0, vals1, s1);
        }
    }
    fn mirror_a_col2(
        &mut self,
        i0: usize,
        j: usize,
        vals0: &[f64],
        s0: f64,
        vals1: &[f64],
        s1: f64,
    ) {
        let p = self.p;
        if i0 >= p && j < p {
            // One block lookup for both rows of the W run.
            self.sys.add_w_run2(j, i0 - p, vals0, s0, vals1, s1);
        } else if i0 >= p {
            // Pose–pose mirror: deferred.
        } else {
            self.mirror_a_col(i0, j, vals0, s0);
            self.mirror_a_col(i0, j, vals1, s1);
        }
    }
    fn add_a_row_fused(&mut self, i: usize, j0: usize, len: usize, rows: &[(&[f64], f64)]) {
        let p = self.p;
        if i >= p && j0 >= p {
            self.sys.add_v_row_fused(i - p, j0 - p, len, rows);
        } else if i < p && j0 >= p {
            // X block: implied by symmetry, never stored.
        } else {
            for &(vals, s) in rows {
                self.add_a_row(i, j0, &vals[..len], s);
            }
        }
    }
    fn reflect_upper(&mut self) {
        self.sys.reflect_v_upper();
    }
    fn scatter_visual(
        &mut self,
        rho: (usize, &[f64], &[f64]),
        first: (usize, &[f64], &[f64]),
        second: (usize, &[f64], &[f64]),
        e: [f64; 2],
        w2: f64,
    ) {
        let p = self.p;
        // The SLAM layout: rho is a landmark column, both pose runs are
        // 6-wide (= the block-sparse `W` height) and inside the pose region.
        // Anything else falls back to the generic per-column scatter.
        if rho.0 < p && first.0 >= p && first.1.len() == POSE_TANGENT_DIM && rho.1.len() == 1 {
            let (f0, f1): (&[f64; 6], &[f64; 6]) =
                (first.1.try_into().unwrap(), first.2.try_into().unwrap());
            let (s0, s1): (&[f64; 6], &[f64; 6]) =
                (second.1.try_into().unwrap(), second.2.try_into().unwrap());
            self.sys.add_visual_obs6(
                rho.0,
                first.0 - p,
                second.0 - p,
                [rho.1[0], rho.2[0]],
                [f0, f1],
                [s0, s1],
                e,
                w2,
            );
        } else {
            scatter_runs2(self, &[rho, first, second], e, w2);
        }
    }
}

/// Reused temporaries of one linearization: each keyframe's rotation
/// matrix and its transpose, and the prior's temporaries.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinScratch {
    rotations: Vec<(Mat3, Mat3)>,
    pub(crate) prior: PriorScratch,
}

/// Assembled normal equations plus bookkeeping for one linearization.
#[derive(Debug, Clone)]
pub struct NormalEquations {
    /// Gauss–Newton matrix `A = JᵀWJ` (+ prior information).
    pub a: DMat,
    /// Right-hand side `b = −JᵀWe` (+ prior contribution).
    pub b: DVec,
    /// One-half squared weighted residual norm (the MAP cost, Eq. 2).
    pub cost: f64,
    /// Number of landmark (diagonal-block) parameters.
    pub num_landmarks: usize,
    /// Visual observations actually used (in front of both cameras).
    pub used_observations: usize,
}

/// Builds the normal equations of a window at its current estimate.
///
/// `prior` carries the marginalization product from the previous window
/// (`Hp`, `rp` of Eq. 2); `gauge` adds a strong pose prior on keyframe 0 when
/// no marginalization prior exists, fixing the global gauge freedom.
pub fn build_normal_equations(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
) -> NormalEquations {
    let a_dim = window.state_dim();
    let mut a = DMat::zeros(a_dim, a_dim);
    let mut b = DVec::zeros(a_dim);
    let (cost, used) = assemble(
        window,
        weights,
        prior,
        &mut DenseSink {
            a: &mut a,
            b: &mut b,
        },
        &mut LinScratch::default(),
    );
    NormalEquations {
        a,
        b,
        cost,
        num_landmarks: window.num_landmarks(),
        used_observations: used,
    }
}

/// Assembly metadata of one block-sparse linearization (the block analogue of
/// the bookkeeping fields of [`NormalEquations`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockNormalEqInfo {
    /// One-half squared weighted residual norm (the MAP cost, Eq. 2).
    pub cost: f64,
    /// Number of landmark (diagonal-block) parameters.
    pub num_landmarks: usize,
    /// Visual observations actually used (in front of both cameras).
    pub used_observations: usize,
}

/// Builds the normal equations of a window directly in block-sparse form,
/// skipping the dense `state_dim × state_dim` assembly entirely.
///
/// `sys` is reset to the window's shape (reusing its allocations) and filled
/// through the same factor loop as [`build_normal_equations`], so its dense
/// image is bit-identical to the matrix that function produces — and
/// [`BlockSparseSystem::solve_into`] on it is bit-identical to the dense
/// Schur path. Its temporaries are thread-local, so once they have grown a
/// call allocates nothing.
pub fn build_block_normal_equations(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
    sys: &mut BlockSparseSystem<f64>,
) -> BlockNormalEqInfo {
    thread_local! {
        static SCRATCH: std::cell::RefCell<LinScratch> = Default::default();
    }
    SCRATCH
        .with(|s| build_block_normal_equations_in(window, weights, prior, sys, &mut s.borrow_mut()))
}

/// [`build_block_normal_equations`] with the linearization's temporaries in
/// `scratch` (the LM loop's allocation-free form).
pub(crate) fn build_block_normal_equations_in(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
    sys: &mut BlockSparseSystem<f64>,
    scratch: &mut LinScratch,
) -> BlockNormalEqInfo {
    let num_l = window.num_landmarks();
    sys.reset(
        num_l,
        STATE_DIM * window.num_keyframes(),
        POSE_TANGENT_DIM,
        STATE_DIM,
    );
    let sink = &mut BlockSink { sys, p: num_l };
    let (cost, used) = assemble(window, weights, prior, sink, scratch);
    BlockNormalEqInfo {
        cost,
        num_landmarks: num_l,
        used_observations: used,
    }
}

/// The shared factor loop: linearizes every factor and scatters it into
/// `sink`. Returns `(cost, used_observations)`.
fn assemble<S: NormalEqSink>(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
    sink: &mut S,
    scratch: &mut LinScratch,
) -> (f64, usize) {
    let mut cost = 0.0;
    let mut used = 0;
    keyframe_rotations(window, &mut scratch.rotations);

    // --- visual factors ---
    let wv2 = VISUAL_WEIGHT * VISUAL_WEIGHT;
    for obs in &window.observations {
        let lm = &window.landmarks[obs.landmark];
        if lm.anchor == obs.keyframe {
            continue; // the anchor observation defines the bearing exactly
        }
        let (r_a, _) = &scratch.rotations[lm.anchor];
        let (_, r_o_t) = &scratch.rotations[obs.keyframe];
        let Some(ev) = evaluate_visual_with(
            &window.keyframes[lm.anchor].pose,
            r_a,
            &window.keyframes[obs.keyframe].pose,
            r_o_t,
            &lm.bearing,
            lm.inv_depth,
            obs.uv,
        ) else {
            continue;
        };
        used += 1;

        // Robust (Huber/IRLS) re-weighting of outlier observations. With
        // `huber_delta: None` the match arm reuses `wv2` itself, so the
        // nominal path is bit-identical to the pre-robust assembler.
        let w2 = match weights.huber_delta {
            None => wv2,
            Some(_) => wv2 * weights.visual_robust_scale(ev.residual[0], ev.residual[1]),
        };

        let col_rho = obs.landmark;
        let col_anchor = window.kf_offset(lm.anchor);
        let col_obs = window.kf_offset(obs.keyframe);

        for r in 0..2 {
            let e = ev.residual[r];
            cost += 0.5 * w2 * e * e;
        }
        // The sparse rows: 1 rho column + two 6-wide pose-tangent runs,
        // ordered by column (re-anchoring can place the anchor after the
        // observer). Pose tangent occupies the first 6 slots of the
        // 15-dim state. Guard against the anchor and observer being the
        // same state (excluded above, but keep the invariant explicit).
        // Both residual rows share the column structure, so they scatter
        // in one fused pass.
        debug_assert_ne!(col_anchor, col_obs);
        let j_rho0 = [ev.j_rho[0]];
        let j_rho1 = [ev.j_rho[1]];
        let anchor_run = (col_anchor, &ev.j_anchor[0][..], &ev.j_anchor[1][..]);
        let obs_run = (col_obs, &ev.j_obs[0][..], &ev.j_obs[1][..]);
        let (first, second) = if col_anchor < col_obs {
            (anchor_run, obs_run)
        } else {
            (obs_run, anchor_run)
        };
        sink.scatter_visual(
            (col_rho, &j_rho0[..], &j_rho1[..]),
            first,
            second,
            ev.residual,
            w2,
        );
    }

    // --- IMU factors ---
    for cons in &window.imu {
        let si = &window.keyframes[cons.first];
        let sj = &window.keyframes[cons.first + 1];
        let ev = evaluate_imu(si, sj, &cons.preintegration);
        let off_i = window.kf_offset(cons.first);
        let off_j = window.kf_offset(cons.first + 1);
        let mut w2s = [0.0; STATE_DIM];
        for (r, w2) in w2s.iter_mut().enumerate() {
            let w = FactorWeights::imu_row(r);
            *w2 = w * w;
            let e = ev.residual[r];
            cost += 0.5 * *w2 * e * e;
        }
        // All 15 residual rows share the two state-wide runs, so they
        // scatter in one fused pass over the destination rows.
        scatter_imu_runs(sink, off_i, off_j, &ev, &w2s);
    }

    // Factor scatter done: materialize the (bitwise-symmetric) lower
    // triangle before the raw prior/gauge writes land on both triangles.
    sink.reflect_upper();

    // --- marginalization prior ---
    if let Some(p) = prior {
        cost += p.add_to_sink(window, sink, &mut scratch.prior);
    } else {
        // Gauge fixation: strongly pin keyframe 0's pose (and weakly its
        // velocity/biases so the very first window is well-conditioned).
        let off = window.kf_offset(0);
        for c in 0..STATE_DIM {
            let w2 = if c < 6 { 1e8 } else { 1e2 };
            sink.add_a(off + c, off + c, w2);
        }
    }

    (cost, used)
}

/// Rank-2 update of `A` and `b` from the two residual rows of one visual
/// factor, which share the same sparse column structure.
///
/// `runs` lists `(first_column, row-0 values, row-1 values)` segments — they
/// must be disjoint and in ascending column order, so that `add_a_row*`
/// primaries land in the upper triangle and `mirror_a_col*` writes below the
/// diagonal. `e` holds the two residuals and `w2` the shared squared weight.
///
/// Equivalent to the historical per-row scatter (row 0's full rank-1 update,
/// then row 1's): each unordered column pair appears exactly once per row,
/// and the fused sink writes apply row 0's guarded multiply-add before
/// row 1's at every cell — the same per-destination operation sequence, so
/// the assembled bits are unchanged. The destination rows of `A` are walked
/// once instead of twice; sources where only one row is nonzero fall back to
/// that row's single-row writes, exactly the calls the per-row scatter would
/// have made.
fn scatter_runs2<S: NormalEqSink>(
    sink: &mut S,
    runs: &[(usize, &[f64], &[f64])],
    e: [f64; 2],
    w2: f64,
) {
    for (ri, &(c0i, v0s, v1s)) in runs.iter().enumerate() {
        for ti in 0..v0s.len() {
            let (v0, v1) = (v0s[ti], v1s[ti]);
            let (nz0, nz1) = (v0 != 0.0, v1 != 0.0);
            if !nz0 && !nz1 {
                continue;
            }
            let ci = c0i + ti;
            let wv0 = w2 * v0;
            let wv1 = w2 * v1;
            if nz0 {
                sink.sub_b(ci, wv0 * e[0]);
            }
            if nz1 {
                sink.sub_b(ci, wv1 * e[1]);
            }
            let t0 = &v0s[ti..];
            let t1 = &v1s[ti..];
            if nz0 && nz1 {
                // Diagonal plus the rest of this run, then the mirror of
                // the off-diagonal part, then the cross runs — all fused.
                sink.add_a_row2(ci, ci, t0, wv0, t1, wv1);
                if t0.len() > 1 {
                    sink.mirror_a_col2(ci + 1, ci, &t0[1..], wv0, &t1[1..], wv1);
                }
                for &(c0j, vj0, vj1) in &runs[ri + 1..] {
                    sink.add_a_row2(ci, c0j, vj0, wv0, vj1, wv1);
                    sink.mirror_a_col2(c0j, ci, vj0, wv0, vj1, wv1);
                }
            } else {
                // Only one residual row is nonzero at this source column:
                // replay exactly its single-row writes.
                let (tail, wv, pick0) = if nz0 {
                    (t0, wv0, true)
                } else {
                    (t1, wv1, false)
                };
                sink.add_a_row(ci, ci, tail, wv);
                if tail.len() > 1 {
                    sink.mirror_a_col(ci + 1, ci, &tail[1..], wv);
                }
                for &(c0j, vj0, vj1) in &runs[ri + 1..] {
                    let vj = if pick0 { vj0 } else { vj1 };
                    sink.add_a_row(ci, c0j, vj, wv);
                    sink.mirror_a_col(c0j, ci, vj, wv);
                }
            }
        }
    }
}

/// Rank-15 update of `A` and `b` from all residual rows of one IMU factor,
/// whose rows all share the same two state-wide runs `(off_i, off_j)`.
///
/// Equivalent to 15 sequential single-row scatters in ascending row order:
/// for every cell of `A` (and entry of `b`) the active rows' guarded
/// multiply-adds are applied in that same order by the fused sink writes, so
/// the assembled bits are unchanged, while each destination row of `A` is
/// walked once per source column instead of once per (source column,
/// residual row) pair. `w2s` holds the per-row squared weights; rows whose
/// Jacobian is zero at a source column contribute nothing there, exactly as
/// their single-row scatter would have skipped that source.
fn scatter_imu_runs<S: NormalEqSink>(
    sink: &mut S,
    off_i: usize,
    off_j: usize,
    ev: &crate::factors::ImuEval,
    w2s: &[f64; STATE_DIM],
) {
    const EMPTY: (&[f64], f64) = (&[], 0.0);
    // Sources in run i: diagonal tail within run i, its mirror, and the
    // cross block against the full run j.
    for ti in 0..STATE_DIM {
        let ci = off_i + ti;
        let mut tails = [EMPTY; STATE_DIM];
        let mut crosses = [EMPTY; STATE_DIM];
        let mut n = 0;
        #[allow(clippy::needless_range_loop)] // r indexes w2s, j_i, and residual
        for r in 0..STATE_DIM {
            let v = ev.j_i[r][ti];
            if v == 0.0 {
                continue;
            }
            let wv = w2s[r] * v;
            sink.sub_b(ci, wv * ev.residual[r]);
            tails[n] = (&ev.j_i[r][ti..], wv);
            crosses[n] = (&ev.j_j[r][..], wv);
            n += 1;
        }
        if n == 0 {
            continue;
        }
        let tail_len = STATE_DIM - ti;
        sink.add_a_row_fused(ci, ci, tail_len, &tails[..n]);
        if tail_len > 1 {
            let mut mirrors = [EMPTY; STATE_DIM];
            for (m, t) in mirrors.iter_mut().zip(&tails[..n]) {
                *m = (&t.0[1..], t.1);
            }
            sink.mirror_a_col_fused(ci + 1, ci, tail_len - 1, &mirrors[..n]);
        }
        sink.add_a_row_fused(ci, off_j, STATE_DIM, &crosses[..n]);
        sink.mirror_a_col_fused(off_j, ci, STATE_DIM, &crosses[..n]);
    }
    // Sources in run j: only the diagonal tail within run j remains.
    for tj in 0..STATE_DIM {
        let ci = off_j + tj;
        let mut tails = [EMPTY; STATE_DIM];
        let mut n = 0;
        #[allow(clippy::needless_range_loop)] // r indexes w2s, j_j, and residual
        for r in 0..STATE_DIM {
            let v = ev.j_j[r][tj];
            if v == 0.0 {
                continue;
            }
            let wv = w2s[r] * v;
            sink.sub_b(ci, wv * ev.residual[r]);
            tails[n] = (&ev.j_j[r][tj..], wv);
            n += 1;
        }
        if n == 0 {
            continue;
        }
        let tail_len = STATE_DIM - tj;
        sink.add_a_row_fused(ci, ci, tail_len, &tails[..n]);
        if tail_len > 1 {
            let mut mirrors = [EMPTY; STATE_DIM];
            for (m, t) in mirrors.iter_mut().zip(&tails[..n]) {
                *m = (&t.0[1..], t.1);
            }
            sink.mirror_a_col_fused(ci + 1, ci, tail_len - 1, &mirrors[..n]);
        }
    }
}

/// Evaluates only the cost of the window at its current estimate (used for
/// LM step acceptance without paying for a full re-linearization).
pub fn evaluate_cost(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
) -> f64 {
    evaluate_cost_in(window, weights, prior, &mut PriorScratch::default())
}

/// [`evaluate_cost`] with the prior's temporaries in `scratch`.
pub(crate) fn evaluate_cost_in(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
    scratch: &mut PriorScratch,
) -> f64 {
    let mut cost = 0.0;
    let wv2 = VISUAL_WEIGHT * VISUAL_WEIGHT;
    for obs in &window.observations {
        let lm = &window.landmarks[obs.landmark];
        if lm.anchor == obs.keyframe {
            continue;
        }
        if let Some(e) = evaluate_visual_residual(
            &window.keyframes[lm.anchor].pose,
            &window.keyframes[obs.keyframe].pose,
            &lm.bearing,
            lm.inv_depth,
            obs.uv,
        ) {
            // Same robust gate as `assemble` so LM step acceptance compares
            // like against like (and the `None` path keeps its exact bits).
            // The residual-only evaluator skips the Jacobian chain rule but
            // is bit-identical on the residual itself.
            let w2 = match weights.huber_delta {
                None => wv2,
                Some(_) => wv2 * weights.visual_robust_scale(e[0], e[1]),
            };
            cost += 0.5 * w2 * (e[0].powi(2) + e[1].powi(2));
        }
    }
    for cons in &window.imu {
        let ev = evaluate_imu(
            &window.keyframes[cons.first],
            &window.keyframes[cons.first + 1],
            &cons.preintegration,
        );
        for (r, e) in ev.residual.iter().enumerate() {
            let w = FactorWeights::imu_row(r);
            cost += 0.5 * w * w * e * e;
        }
    }
    if let Some(p) = prior {
        cost += p.evaluate_in(window, scratch).0;
    }
    cost
}

/// Applies the solved increment `delta` to every landmark and keyframe.
pub fn apply_increment(window: &mut SlidingWindow, delta: &DVec) {
    let num_l = window.num_landmarks();
    for (i, lm) in window.landmarks.iter_mut().enumerate() {
        lm.inv_depth = (lm.inv_depth + delta[i]).max(1e-6);
    }
    for i in 0..window.num_keyframes() {
        let off = num_l + i * STATE_DIM;
        let mut tangent = [0.0; STATE_DIM];
        for (c, t) in tangent.iter_mut().enumerate() {
            *t = delta[off + c];
        }
        window.keyframes[i] = window.keyframes[i].boxplus(&tangent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Pose, Quat, Vec3};
    use crate::window::{KeyframeState, Landmark, Observation};

    /// Two keyframes observing a handful of landmarks, no IMU.
    fn toy_window(perturb: bool) -> SlidingWindow {
        let mut w = SlidingWindow::new();
        let kf0 = KeyframeState::at_pose(Pose::IDENTITY, 0.0);
        let kf1 = KeyframeState::at_pose(
            Pose::new(
                Quat::exp(&Vec3::new(0.0, 0.02, 0.0)),
                Vec3::new(0.5, 0.0, 0.0),
            ),
            0.1,
        );
        w.keyframes = vec![kf0, kf1];
        for (i, (x, y, depth)) in [
            (0.1, 0.05, 4.0),
            (-0.2, 0.1, 6.0),
            (0.3, -0.15, 5.0),
            (0.0, 0.2, 8.0),
        ]
        .iter()
        .enumerate()
        {
            let bearing = Vec3::new(*x, *y, 1.0);
            let truth_inv = 1.0 / depth;
            let p_w = kf0.pose.transform(&(bearing * *depth));
            let p_c1 = kf1.pose.inverse_transform(&p_w);
            let uv1 = [p_c1.x() / p_c1.z(), p_c1.y() / p_c1.z()];
            let inv_depth = if perturb { truth_inv * 1.2 } else { truth_inv };
            w.landmarks.push(Landmark {
                id: i as u64,
                anchor: 0,
                bearing,
                inv_depth,
            });
            w.observations.push(Observation {
                landmark: i,
                keyframe: 1,
                uv: uv1,
            });
        }
        w
    }

    #[test]
    fn cost_zero_at_ground_truth() {
        let w = toy_window(false);
        let ne = build_normal_equations(&w, &FactorWeights::default(), None);
        assert!(ne.cost < 1e-15, "cost {}", ne.cost);
        assert_eq!(ne.used_observations, 4);
        assert!(ne.b.norm() < 1e-9);
    }

    #[test]
    fn leading_block_is_diagonal() {
        let w = toy_window(true);
        let ne = build_normal_equations(&w, &FactorWeights::default(), None);
        let a = ne.num_landmarks;
        for i in 0..a {
            for j in 0..a {
                if i != j {
                    assert_eq!(ne.a.get(i, j), 0.0, "off-diagonal ({i},{j}) nonzero");
                }
            }
        }
        // The diagonal itself must be populated (each landmark is observed).
        for i in 0..a {
            assert!(ne.a.get(i, i) > 0.0);
        }
    }

    #[test]
    fn a_is_symmetric() {
        let w = toy_window(true);
        let ne = build_normal_equations(&w, &FactorWeights::default(), None);
        assert!(ne.a.is_symmetric(1e-9));
    }

    #[test]
    fn gradient_points_downhill() {
        let mut w = toy_window(true);
        let weights = FactorWeights::default();
        let ne = build_normal_equations(&w, &weights, None);
        assert!(ne.cost > 0.0);
        // Step a small distance along b (the negative gradient).
        let step = ne.b.scale(1e-12);
        apply_increment(&mut w, &step);
        let after = evaluate_cost(&w, &weights, None);
        assert!(after < ne.cost, "cost {} -> {}", ne.cost, after);
    }

    #[test]
    fn evaluate_cost_matches_build() {
        let w = toy_window(true);
        let weights = FactorWeights::default();
        let ne = build_normal_equations(&w, &weights, None);
        let c = evaluate_cost(&w, &weights, None);
        assert!((ne.cost - c).abs() < 1e-12);
    }

    #[test]
    fn huber_downweights_gross_outliers() {
        let mut w = toy_window(false);
        w.observations[0].uv[0] += 5.0; // gross outlier on one track
        let plain = FactorWeights::default();
        let robust = plain.with_huber(0.01);
        let ne_p = build_normal_equations(&w, &plain, None);
        let ne_r = build_normal_equations(&w, &robust, None);
        // The outlier dominates the quadratic cost; Huber bounds its pull.
        assert!(
            ne_r.cost < ne_p.cost * 0.01,
            "{} vs {}",
            ne_r.cost,
            ne_p.cost
        );
        assert!(ne_r.b.norm() < ne_p.b.norm());
        // Step-acceptance consistency: evaluate_cost applies the same
        // weighting as the assembler.
        assert!((evaluate_cost(&w, &robust, None) - ne_r.cost).abs() < 1e-9);
    }

    #[test]
    fn huber_inactive_below_threshold_is_bit_identical() {
        let w = toy_window(true); // inliers only
        let plain = FactorWeights::default();
        let robust = plain.with_huber(1e9); // threshold above every residual
        let ne_p = build_normal_equations(&w, &plain, None);
        let ne_r = build_normal_equations(&w, &robust, None);
        assert_eq!(ne_p.cost.to_bits(), ne_r.cost.to_bits());
        for i in 0..ne_p.b.len() {
            assert_eq!(ne_p.b[i].to_bits(), ne_r.b[i].to_bits(), "b[{i}]");
            for j in 0..ne_p.b.len() {
                assert_eq!(ne_p.a.get(i, j).to_bits(), ne_r.a.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn apply_increment_clamps_inverse_depth() {
        let mut w = toy_window(false);
        let dim = w.state_dim();
        let mut delta = DVec::zeros(dim);
        delta[0] = -10.0; // would drive inv_depth negative
        apply_increment(&mut w, &delta);
        assert!(w.landmarks[0].inv_depth > 0.0);
    }
}
