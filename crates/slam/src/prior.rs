//! Marginalization prior in square-root form.
//!
//! Marginalization (paper Sec. 3.1) produces an information matrix `Hp` and
//! vector `rp` that constrain the next window. We store the prior in
//! square-root (Jacobian/residual) form — `J = Lᵀ` with `L·Lᵀ = Hp` — so it
//! behaves exactly like any other factor: it can be re-evaluated at new
//! linearization points and contributes `JᵀJ` / `−Jᵀr` to the normal
//! equations.

use crate::solver::SolveError;
use crate::window::{KeyframeState, SlidingWindow, STATE_DIM};
use archytas_math::{Cholesky, DMat, DVec};

/// Prior over the keyframe states of a window, produced by marginalizing the
/// previous window's oldest keyframe and its landmarks.
///
/// Besides `J` it holds the information `JᵀJ`, computed once when the prior
/// is built: it never changes afterwards, and every LM assembly and the next
/// marginalization read it.
#[derive(Debug, Clone)]
pub struct Prior {
    /// Square-root information `J` (`dim × dim`, upper triangular).
    jacobian: DMat,
    /// `JᵀJ`, bit for bit `jacobian.gram()`.
    information: DMat,
    /// Residual at the linearization point (`r0`, with `Jᵀr0 = −rp`).
    residual0: DVec,
    /// Keyframe states at which the prior was linearized, oldest first.
    lin_states: Vec<KeyframeState>,
}

/// Reused temporaries of the prior's residual and gradient, held by
/// [`crate::SolverWorkspace`] so the LM loop and marginalization evaluate
/// the prior without allocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct PriorScratch {
    delta: DVec,
    residual: DVec,
    gradient: DVec,
}

/// Reused buffers of the prior's factorization: the Cholesky of the
/// regularized `Hp` and the negated `rp` of the `r0` solve.
#[derive(Debug, Clone, Default)]
pub(crate) struct PriorFactor {
    chol: Cholesky<f64>,
    neg_rp: DVec,
}

impl Prior {
    /// Builds a prior from information form `(hp, rp)` over `lin_states`.
    ///
    /// `hp` must be `15·k × 15·k` where `k = lin_states.len()`; it is
    /// regularized by `epsilon` on the diagonal before factorization so that
    /// gauge-deficient information matrices remain factorizable.
    ///
    /// # Panics
    ///
    /// Panics when the dimensions disagree or factorization fails even after
    /// regularization. Callers that must survive a corrupted information
    /// matrix (the pipeline's degradation ladder) use
    /// [`Prior::try_from_information`] instead.
    pub fn from_information(
        hp: &DMat,
        rp: &DVec,
        lin_states: Vec<KeyframeState>,
        epsilon: f64,
    ) -> Self {
        Self::try_from_information(hp, rp, lin_states, epsilon)
            .expect("prior: Hp not factorizable even after heavy regularization")
    }

    /// Fallible form of [`Prior::from_information`]: a non-finite `hp` or
    /// `rp` is [`SolveError::NonFinite`], and an `Hp` that stays non-SPD
    /// through the full regularization escalation comes back as
    /// [`SolveError::Linear`], instead of a panic.
    ///
    /// Dimension mismatches remain programmer errors and still panic.
    pub fn try_from_information(
        hp: &DMat,
        rp: &DVec,
        lin_states: Vec<KeyframeState>,
        epsilon: f64,
    ) -> Result<Self, SolveError> {
        let mut slot = None;
        Self::rebuild(
            &mut slot,
            &mut PriorFactor::default(),
            hp,
            rp,
            &lin_states,
            epsilon,
        )?;
        Ok(slot.expect("rebuild fills the slot on success"))
    }

    /// [`Prior::try_from_information`] into `slot`, reusing the buffers of
    /// the prior already there (and of `factor`): once they have grown, a
    /// rebuild allocates nothing. On error `slot` is left untouched.
    pub(crate) fn rebuild(
        slot: &mut Option<Prior>,
        factor: &mut PriorFactor,
        hp: &DMat,
        rp: &DVec,
        lin_states: &[KeyframeState],
        epsilon: f64,
    ) -> Result<(), SolveError> {
        let dim = STATE_DIM * lin_states.len();
        assert_eq!(hp.shape(), (dim, dim), "prior: Hp dimension mismatch");
        assert_eq!(rp.len(), dim, "prior: rp dimension mismatch");
        if !rp.all_finite() {
            return Err(SolveError::NonFinite);
        }
        // One pass for finiteness and `hp.max_abs()` (the same fold, so the
        // same scale); `max_abs` alone would let a NaN through.
        let mut scale = 0.0f64;
        for &v in hp.as_slice() {
            if !v.is_finite() {
                return Err(SolveError::NonFinite);
            }
            if v.abs() > scale {
                scale = v.abs();
            }
        }
        let scale = scale.max(1.0);
        // Far from convergence the Schur complement can be indefinite by
        // more than `epsilon`; escalate the regularization until the
        // factorization succeeds (each step only weakens the prior, which is
        // the conservative direction).
        let mut eps = epsilon.max(1e-12);
        while let Err(e) = factor.chol.refactor_shifted(hp, eps) {
            eps *= 100.0;
            if eps > scale * 10.0 {
                return Err(SolveError::Linear(e));
            }
        }
        // J = Lᵀ, r0 chosen so that Jᵀ·r0 = −rp  ⇒  L·r0 = −rp.
        factor.neg_rp.resize_fill(dim, 0.0);
        for (n, &r) in factor.neg_rp.as_mut_slice().iter_mut().zip(rp.iter()) {
            *n = -r;
        }
        let prior = slot.get_or_insert_with(|| Prior {
            jacobian: DMat::zeros(0, 0),
            information: DMat::zeros(0, 0),
            residual0: DVec::zeros(0),
            lin_states: Vec::new(),
        });
        prior.jacobian.clone_from(factor.chol.lt());
        archytas_math::solve_lower_into(factor.chol.l(), &factor.neg_rp, &mut prior.residual0);
        prior.jacobian.gram_into(&mut prior.information);
        prior.lin_states.clear();
        prior.lin_states.extend_from_slice(lin_states);
        Ok(())
    }

    /// Number of keyframes this prior constrains.
    pub fn num_keyframes(&self) -> usize {
        self.lin_states.len()
    }

    /// Error-state dimension of the prior.
    pub fn dim(&self) -> usize {
        self.jacobian.cols()
    }

    /// Square-root information `J` (`JᵀJ = Hp` up to the regularization).
    pub fn jacobian(&self) -> &DMat {
        &self.jacobian
    }

    /// Residual `r0` at the linearization point.
    pub fn residual0(&self) -> &DVec {
        &self.residual0
    }

    /// Information matrix `Hp = JᵀJ`, cached when the prior was built (bit
    /// for bit `self.jacobian().gram()`).
    pub fn information(&self) -> &DMat {
        &self.information
    }

    /// Writes the current prior residual `r = r0 + J·δ` into `s.residual`,
    /// with `δ` the tangent of the window's keyframes relative to the
    /// linearization point.
    ///
    /// # Panics
    ///
    /// Panics when the window holds fewer keyframes than the prior covers.
    fn residual_into(&self, window: &SlidingWindow, s: &mut PriorScratch) {
        assert!(
            window.num_keyframes() >= self.lin_states.len(),
            "prior: window has fewer keyframes than the prior covers"
        );
        s.delta.resize_fill(self.dim(), 0.0);
        for (i, lin) in self.lin_states.iter().enumerate() {
            let d = window.keyframes[i].boxminus(lin);
            s.delta.as_mut_slice()[i * STATE_DIM..(i + 1) * STATE_DIM].copy_from_slice(&d);
        }
        self.jacobian.mat_vec_into(&s.delta, &mut s.residual);
        for (r, &r0) in s
            .residual
            .as_mut_slice()
            .iter_mut()
            .zip(self.residual0.iter())
        {
            *r += r0;
        }
    }

    /// Current prior residual `r = r0 + J·δ`.
    pub fn residual(&self, window: &SlidingWindow) -> DVec {
        let mut s = PriorScratch::default();
        self.residual_into(window, &mut s);
        s.residual
    }

    /// Prior cost `½‖r‖²` at the window's current estimate.
    pub fn cost(&self, window: &SlidingWindow) -> f64 {
        self.cost_in(window, &mut PriorScratch::default())
    }

    /// [`Prior::cost`] through reused temporaries.
    pub(crate) fn cost_in(&self, window: &SlidingWindow, s: &mut PriorScratch) -> f64 {
        self.residual_into(window, s);
        0.5 * s.residual.norm_squared()
    }

    /// Gradient `Jᵀ·r` of the prior cost at the window's current estimate,
    /// over the prior's own ordering (keyframes oldest first).
    pub fn gradient(&self, window: &SlidingWindow) -> DVec {
        let mut s = PriorScratch::default();
        self.gradient_in(window, &mut s);
        s.gradient
    }

    /// [`Prior::gradient`] through reused temporaries; returns the gradient
    /// held in `s`.
    pub(crate) fn gradient_in<'s>(
        &self,
        window: &SlidingWindow,
        s: &'s mut PriorScratch,
    ) -> &'s DVec {
        self.residual_into(window, s);
        self.jacobian
            .transpose_mat_vec_into(&s.residual, &mut s.gradient);
        &s.gradient
    }

    /// Adds the prior's Gauss–Newton contribution to `(a, b)` and returns its
    /// cost. The prior occupies the keyframe block of the window ordering
    /// (columns `num_landmarks()..`).
    pub fn add_to_normal_equations(
        &self,
        window: &SlidingWindow,
        a: &mut DMat,
        b: &mut DVec,
    ) -> f64 {
        self.add_to_sink(
            window,
            &mut crate::problem::DenseSink { a, b },
            &mut PriorScratch::default(),
        )
    }

    /// Sink-generic form of [`Prior::add_to_normal_equations`]: the same
    /// writes in the same order, routed through the assembly sink so the
    /// dense and block-sparse paths stay bit-identical.
    pub(crate) fn add_to_sink<S: crate::problem::NormalEqSink>(
        &self,
        window: &SlidingWindow,
        sink: &mut S,
        s: &mut PriorScratch,
    ) -> f64 {
        let off = window.kf_offset(0);
        let grad = self.gradient_in(window, s);
        for (i, &gi) in grad.iter().enumerate() {
            sink.sub_b(off + i, gi);
            // One dense run per row (scale 1 is exact; see the run method's
            // zero-skip note for why dropping `±0.0` entries is bit-safe).
            sink.add_a_row(off + i, off, self.information.row(i), 1.0);
        }
        0.5 * s.residual.norm_squared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Pose, Quat, Vec3};

    fn states(n: usize) -> Vec<KeyframeState> {
        (0..n)
            .map(|i| {
                KeyframeState::at_pose(
                    Pose::new(Quat::IDENTITY, Vec3::new(i as f64, 0.0, 0.0)),
                    i as f64,
                )
            })
            .collect()
    }

    fn spd_info(dim: usize) -> DMat {
        let b = DMat::from_fn(dim, dim, |i, j| ((i * 5 + j * 3) % 7) as f64 * 0.1);
        b.gram().add_diagonal(1.0)
    }

    #[test]
    fn information_roundtrip() {
        let lin = states(1);
        let hp = spd_info(STATE_DIM);
        let rp = DVec::from((0..STATE_DIM).map(|i| i as f64 * 0.01).collect::<Vec<_>>());
        let prior = Prior::from_information(&hp, &rp, lin, 0.0);
        assert!((prior.information() - &hp).max_abs() < 1e-9);
    }

    #[test]
    fn cached_information_is_the_gram_of_j() {
        let lin = states(2);
        let hp = spd_info(2 * STATE_DIM);
        let rp = DVec::from(
            (0..2 * STATE_DIM)
                .map(|i| i as f64 * 0.01)
                .collect::<Vec<_>>(),
        );
        let prior = Prior::from_information(&hp, &rp, lin, 1e-9);
        let bits = |m: &DMat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(prior.information()), bits(&prior.jacobian().gram()));
        let cloned = prior.clone();
        assert_eq!(bits(cloned.information()), bits(&cloned.jacobian().gram()));
    }

    #[test]
    fn rebuild_reuses_the_slot() {
        // Rebuilding into an occupied slot gives the same prior as building
        // a fresh one, down to the bits, and shrinks to a smaller prior.
        let mut factor = PriorFactor::default();
        let mut slot = None;
        for k in [2, 2, 1] {
            let lin = states(k);
            let hp = spd_info(k * STATE_DIM);
            let rp = DVec::from(
                (0..k * STATE_DIM)
                    .map(|i| 0.5 - i as f64 * 0.02)
                    .collect::<Vec<_>>(),
            );
            Prior::rebuild(&mut slot, &mut factor, &hp, &rp, &lin, 1e-9).unwrap();
            let fresh = Prior::from_information(&hp, &rp, lin, 1e-9);
            let reused = slot.as_ref().unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(reused.dim(), fresh.dim());
            assert_eq!(
                bits(reused.jacobian().as_slice()),
                bits(fresh.jacobian().as_slice())
            );
            assert_eq!(
                bits(reused.residual0().as_slice()),
                bits(fresh.residual0().as_slice())
            );
            assert_eq!(
                bits(reused.information().as_slice()),
                bits(fresh.information().as_slice())
            );
        }
    }

    #[test]
    fn gradient_at_linearization_matches_rp() {
        let lin = states(1);
        let hp = spd_info(STATE_DIM);
        let rp = DVec::from(
            (0..STATE_DIM)
                .map(|i| (i as f64) * 0.1 - 0.5)
                .collect::<Vec<_>>(),
        );
        let prior = Prior::from_information(&hp, &rp, lin.clone(), 0.0);

        let mut w = SlidingWindow::new();
        w.keyframes = lin;
        // At the linearization point the b-contribution must be exactly +rp.
        let dim = w.state_dim();
        let mut a = DMat::zeros(dim, dim);
        let mut b = DVec::zeros(dim);
        prior.add_to_normal_equations(&w, &mut a, &mut b);
        for i in 0..STATE_DIM {
            assert!(
                (b[i] - rp[i]).abs() < 1e-9,
                "b[{i}] = {} vs rp {}",
                b[i],
                rp[i]
            );
        }
    }

    #[test]
    fn cost_grows_away_from_minimum() {
        let lin = states(2);
        let dim = STATE_DIM * 2;
        let hp = spd_info(dim);
        let rp = DVec::zeros(dim); // minimum exactly at the linearization point
        let prior = Prior::from_information(&hp, &rp, lin.clone(), 0.0);

        let mut w = SlidingWindow::new();
        w.keyframes = lin;
        let at_lin = prior.cost(&w);
        w.keyframes[1] = w.keyframes[1].boxplus(&[0.1; STATE_DIM]);
        let moved = prior.cost(&w);
        assert!(moved > at_lin);
    }

    #[test]
    fn regularization_rescues_singular_information() {
        let lin = states(1);
        let hp = DMat::zeros(STATE_DIM, STATE_DIM); // completely uninformative
        let rp = DVec::zeros(STATE_DIM);
        let prior = Prior::from_information(&hp, &rp, lin, 1e-8);
        assert_eq!(prior.dim(), STATE_DIM);
    }

    #[test]
    fn non_finite_information_is_an_error_not_a_panic() {
        let lin = states(1);
        // A NaN anywhere in `hp` (off the diagonal too, where `max_abs` would
        // skip it) is rejected up front, not after the ε-escalation.
        for (i, j) in [(0, 0), (3, 7)] {
            let mut hp = spd_info(STATE_DIM);
            hp.set(i, j, f64::NAN);
            let rp = DVec::zeros(STATE_DIM);
            assert!(matches!(
                Prior::try_from_information(&hp, &rp, lin.clone(), 1e-9),
                Err(crate::SolveError::NonFinite)
            ));
        }

        let hp = spd_info(STATE_DIM);
        let mut rp = DVec::zeros(STATE_DIM);
        rp[0] = f64::INFINITY;
        assert!(matches!(
            Prior::try_from_information(&hp, &rp, lin, 1e-9),
            Err(crate::SolveError::NonFinite)
        ));
    }
}
