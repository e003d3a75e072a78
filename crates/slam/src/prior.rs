//! Marginalization prior in information form.
//!
//! Marginalization (paper Sec. 3.1) produces an information matrix `Hp`, a
//! vector `rp` and a constant `c` that constrain the next window. The prior
//! keeps them as they are: at the tangent `δ` of the window's keyframes
//! relative to the linearization point its cost is `c − rpᵀδ + ½δᵀHpδ`
//! and its gradient `Hp·δ − rp`. An LM assembly adds `Hp` to the keyframe
//! block of `A` and subtracts the gradient from `b`: one row add per state
//! and one mat-vec, with no factorization anywhere. A non-SPD `Hp`
//! surfaces in the LM factorization, which the health ladder classifies.

use crate::solver::SolveError;
use crate::window::{KeyframeState, SlidingWindow, STATE_DIM};
use archytas_math::{BlockSparseSystem, DMat, DVec};

/// Prior over the keyframe states of a window, produced by marginalizing the
/// previous window's oldest keyframe and its landmarks.
#[derive(Debug, Clone)]
pub struct Prior {
    /// `Hp + εI` (`dim × dim`).
    information: DMat,
    /// `rp`: the cost's gradient at the linearization point is `−rp`.
    rp: DVec,
    /// `c`: the cost at the linearization point.
    cost0: f64,
    /// Keyframe states at which the prior was linearized, oldest first.
    lin_states: Vec<KeyframeState>,
}

/// Reused temporaries of the prior's cost and gradient, held by
/// [`crate::SolverWorkspace`] so the LM loop and marginalization evaluate
/// the prior without allocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct PriorScratch {
    delta: DVec,
    /// `Hp·δ`, then the gradient `Hp·δ − rp` in place.
    gradient: DVec,
}

impl Prior {
    /// Builds a prior from information form `(hp, rp)` over `lin_states`,
    /// with cost 0 at the linearization point.
    ///
    /// `hp` must be `15·k × 15·k` where `k = lin_states.len()`; `epsilon`
    /// (at least `1e-12`) is added to its diagonal so that gauge-deficient
    /// information stays positive definite in the LM system.
    ///
    /// # Errors
    ///
    /// A non-finite `hp` or `rp` is [`SolveError::NonFinite`], so the
    /// pipeline's degradation ladder survives a corrupted information
    /// matrix. Definiteness is not checked here: an indefinite `hp` fails
    /// the LM factorization of the window it constrains.
    ///
    /// # Panics
    ///
    /// Panics when the dimensions disagree (a programmer error).
    pub fn try_from_information(
        hp: &DMat,
        rp: &DVec,
        lin_states: Vec<KeyframeState>,
        epsilon: f64,
    ) -> Result<Self, SolveError> {
        let mut slot = None;
        Self::rebuild(
            &mut slot,
            &mut hp.clone(),
            &mut rp.clone(),
            0.0,
            &lin_states,
            epsilon,
        )?;
        Ok(slot.expect("rebuild fills the slot on success"))
    }

    /// Moves `(hp + εI, rp, cost0)` over `lin_states` into `slot`. The
    /// buffers of the prior already there are swapped back into `hp` and
    /// `rp`, so a rebuild of an unchanged shape allocates nothing. On error
    /// `slot`, `hp` and `rp` are left untouched.
    pub(crate) fn rebuild(
        slot: &mut Option<Prior>,
        hp: &mut DMat,
        rp: &mut DVec,
        cost0: f64,
        lin_states: &[KeyframeState],
        epsilon: f64,
    ) -> Result<(), SolveError> {
        let dim = STATE_DIM * lin_states.len();
        assert_eq!(hp.shape(), (dim, dim), "prior: Hp dimension mismatch");
        assert_eq!(rp.len(), dim, "prior: rp dimension mismatch");
        let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
        if !cost0.is_finite() || !finite(rp.as_slice()) || !finite(hp.as_slice()) {
            return Err(SolveError::NonFinite);
        }
        let prior = slot.get_or_insert_with(|| Prior {
            information: DMat::zeros(0, 0),
            rp: DVec::zeros(0),
            cost0: 0.0,
            lin_states: Vec::new(),
        });
        std::mem::swap(&mut prior.information, hp);
        std::mem::swap(&mut prior.rp, rp);
        let eps = epsilon.max(1e-12);
        for i in 0..dim {
            prior.information.add_at(i, i, eps);
        }
        prior.cost0 = cost0;
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
        self.information.cols()
    }

    /// Information matrix `Hp + εI`.
    pub fn information(&self) -> &DMat {
        &self.information
    }

    /// Cost and gradient at the window's current estimate from one
    /// mat-vec, through reused temporaries: returns the cost and the
    /// gradient held in `s`.
    ///
    /// # Panics
    ///
    /// Panics when the window holds fewer keyframes than the prior covers.
    pub(crate) fn evaluate_in<'s>(
        &self,
        window: &SlidingWindow,
        s: &'s mut PriorScratch,
    ) -> (f64, &'s DVec) {
        assert!(
            window.num_keyframes() >= self.lin_states.len(),
            "prior: window has fewer keyframes than the prior covers"
        );
        s.delta.resize_fill(self.dim(), 0.0);
        for (i, lin) in self.lin_states.iter().enumerate() {
            let d = window.keyframes[i].boxminus(lin);
            s.delta.as_mut_slice()[i * STATE_DIM..(i + 1) * STATE_DIM].copy_from_slice(&d);
        }
        self.information.mat_vec_into(&s.delta, &mut s.gradient);
        let mut cost = self.cost0;
        for ((g, &d), &r) in s
            .gradient
            .as_mut_slice()
            .iter_mut()
            .zip(s.delta.iter())
            .zip(self.rp.iter())
        {
            cost += d * (0.5 * *g - r);
            *g -= r;
        }
        (cost, &s.gradient)
    }

    /// Prior cost `c − rpᵀδ + ½δᵀHpδ` at the window's current estimate.
    pub fn cost(&self, window: &SlidingWindow) -> f64 {
        self.evaluate_in(window, &mut PriorScratch::default()).0
    }

    /// Gradient `Hp·δ − rp` of the prior cost at the window's current
    /// estimate, over the prior's own ordering (keyframes oldest first).
    pub fn gradient(&self, window: &SlidingWindow) -> DVec {
        let mut s = PriorScratch::default();
        self.evaluate_in(window, &mut s);
        s.gradient
    }

    /// Adds the prior's Gauss–Newton contribution to the keyframe block of
    /// `sys` (`Hp`'s upper triangle onto `V`'s, the gradient off `by`) and
    /// returns its cost.
    pub(crate) fn add_to_system(
        &self,
        window: &SlidingWindow,
        sys: &mut BlockSparseSystem<f64>,
        s: &mut PriorScratch,
    ) -> f64 {
        let (cost, grad) = self.evaluate_in(window, s);
        for (i, &gi) in grad.iter().enumerate() {
            sys.sub_by(i, gi);
            // One dense upper-triangle run per row (scale 1 is exact; see
            // the run method's zero-skip note for why dropping `±0.0`
            // entries is bit-safe).
            sys.add_v_row(i, i, &self.information.row(i)[i..], 1.0);
        }
        cost
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
        let prior = Prior::try_from_information(&hp, &rp, lin, 0.0).unwrap();
        assert!((prior.information() - &hp).max_abs() < 1e-9);
    }

    #[test]
    fn rebuild_reuses_the_slot() {
        // Rebuilding into an occupied slot gives the same prior as building
        // a fresh one, down to the bits, and shrinks to a smaller prior.
        let mut slot = None;
        for k in [2, 2, 1] {
            let lin = states(k);
            let hp = spd_info(k * STATE_DIM);
            let rp = DVec::from(
                (0..k * STATE_DIM)
                    .map(|i| 0.5 - i as f64 * 0.02)
                    .collect::<Vec<_>>(),
            );
            Prior::rebuild(&mut slot, &mut hp.clone(), &mut rp.clone(), 0.0, &lin, 1e-9).unwrap();
            let mut w = SlidingWindow::new();
            w.keyframes = lin.clone();
            let fresh = Prior::try_from_information(&hp, &rp, lin, 1e-9).unwrap();
            let reused = slot.as_ref().unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(reused.dim(), fresh.dim());
            assert_eq!(
                bits(reused.information().as_slice()),
                bits(fresh.information().as_slice())
            );
            assert_eq!(
                bits(reused.gradient(&w).as_slice()),
                bits(fresh.gradient(&w).as_slice())
            );
        }
    }

    #[test]
    fn cost_and_gradient_are_the_quadratic() {
        // c − rpᵀδ + ½δᵀHpδ and Hp·δ − rp, against a dense evaluation.
        let lin = states(2);
        let dim = 2 * STATE_DIM;
        let hp = spd_info(dim);
        let rp = DVec::from((0..dim).map(|i| 0.3 - i as f64 * 0.01).collect::<Vec<_>>());
        let mut slot = None;
        Prior::rebuild(&mut slot, &mut hp.clone(), &mut rp.clone(), 2.5, &lin, 1e-9).unwrap();
        let prior = slot.unwrap();

        let mut w = SlidingWindow::new();
        w.keyframes = lin;
        assert_eq!(prior.cost(&w), 2.5);
        w.keyframes[1] = w.keyframes[1].boxplus(&[0.01; STATE_DIM]);
        let mut delta = DVec::zeros(dim);
        for i in 0..2 {
            let d = w.keyframes[i].boxminus(&prior.lin_states[i]);
            for (c, &v) in d.iter().enumerate() {
                delta[i * STATE_DIM + c] = v;
            }
        }
        let h_delta = prior.information().mat_vec(&delta);
        let want = 2.5 - rp.dot(&delta) + 0.5 * delta.dot(&h_delta);
        assert!((prior.cost(&w) - want).abs() < 1e-12);
        let grad = prior.gradient(&w);
        for i in 0..dim {
            assert!((grad[i] - (h_delta[i] - rp[i])).abs() < 1e-12);
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
        let prior = Prior::try_from_information(&hp, &rp, lin.clone(), 0.0).unwrap();

        let mut w = SlidingWindow::new();
        w.keyframes = lin;
        // At the linearization point the b-contribution must be exactly +rp.
        let mut sys = BlockSparseSystem::new();
        sys.reset(0, w.state_dim());
        prior.add_to_system(&w, &mut sys, &mut PriorScratch::default());
        let (mut a, mut b) = (DMat::zeros(0, 0), DVec::zeros(0));
        sys.to_dense_into(&mut a, &mut b);
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
        let prior = Prior::try_from_information(&hp, &rp, lin.clone(), 0.0).unwrap();

        let mut w = SlidingWindow::new();
        w.keyframes = lin;
        let at_lin = prior.cost(&w);
        w.keyframes[1] = w.keyframes[1].boxplus(&[0.1; STATE_DIM]);
        let moved = prior.cost(&w);
        assert!(moved > at_lin);
    }

    #[test]
    fn regularization_lifts_singular_information() {
        let lin = states(1);
        let hp = DMat::zeros(STATE_DIM, STATE_DIM); // completely uninformative
        let rp = DVec::zeros(STATE_DIM);
        let prior = Prior::try_from_information(&hp, &rp, lin, 1e-8).unwrap();
        assert_eq!(prior.dim(), STATE_DIM);
        assert!(prior.information().cholesky().is_ok());
    }

    #[test]
    fn indefinite_information_is_kept_for_the_lm_factorization() {
        // No factorization here: an indefinite Hp is stored as given and
        // fails the factorization of the window it constrains instead.
        let lin = states(1);
        let hp = spd_info(STATE_DIM).add_diagonal(-1e3);
        let prior = Prior::try_from_information(&hp, &DVec::zeros(STATE_DIM), lin, 1e-9)
            .expect("finite information is accepted");
        assert!(prior.information().cholesky().is_err());
    }

    #[test]
    fn non_finite_information_is_an_error_not_a_panic() {
        let lin = states(1);
        // A NaN anywhere in `hp`, off the diagonal too, is rejected.
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
