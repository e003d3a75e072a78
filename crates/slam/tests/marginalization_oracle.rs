//! The arrow-inverse M-type marginalization against a dense oracle.
//!
//! [`dense_marginalize`] is the dense marginalization kept as a test oracle:
//! a dense local `H`, a full `(am+15)²` inverse through the identity columns
//! and two dense products, giving `Hp + εI`, `rp` and the prior's cost `c`.
//! The library's [`try_marginalize_oldest_in`] inverts `M` by its arrow
//! structure instead, a different order of floating-point work, so the two
//! must agree to a relative Frobenius error of [`REL_TOL`] on `Hp`, `rp` and
//! `c`, and give the same shrunk window, on generated windows that cover the
//! structural corners: no marginalized landmarks, landmarks seen only by
//! their anchor (all-zero `W` columns), with and without an incoming prior,
//! Huber on and off, a chained second marginalization, and the
//! first-marginalization arrow of over a hundred kf0 landmarks.

use std::collections::HashSet;

use archytas_math::{Cholesky, DMat, DVec};

/// Largest relative Frobenius error allowed between the library and the
/// dense oracle, on each of `Hp`, `rp` and `c`.
const REL_TOL: f64 = 1e-9;
use archytas_slam::{
    evaluate_imu, evaluate_visual, try_marginalize_oldest_in, FactorWeights, ImuConstraint,
    ImuSample, KeyframeState, Landmark, Observation, Pose, Preintegration, Prior, Quat,
    SlidingWindow, SolveError, SolverWorkspace, Vec3, STATE_DIM,
};

/// What the dense oracle produces: the new prior's `Hp + εI`, `rp` and `c`,
/// and the shrunk window.
struct Dense {
    information: DMat,
    rp: DVec,
    cost0: f64,
    window: SlidingWindow,
    am: usize,
}

/// The dense marginalization, verbatim in its arithmetic.
fn dense_marginalize(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
) -> Result<Dense, SolveError> {
    let b = window.num_keyframes();
    let marg_landmarks: Vec<usize> = (0..window.landmarks.len())
        .filter(|&l| window.landmarks[l].anchor == 0)
        .collect();
    let am = marg_landmarks.len();
    let lm_slot: std::collections::HashMap<usize, usize> = marg_landmarks
        .iter()
        .enumerate()
        .map(|(slot, &l)| (l, slot))
        .collect();
    let marg_dim = am + STATE_DIM;
    let dim = marg_dim + (b - 1) * STATE_DIM;
    let kf_off = |k: usize| -> usize {
        if k == 0 {
            am
        } else {
            marg_dim + (k - 1) * STATE_DIM
        }
    };
    let mut h = DMat::zeros(dim, dim);
    let mut g = DVec::zeros(dim);
    let mut cost = 0.0;

    for obs in &window.observations {
        let Some(&slot) = lm_slot.get(&obs.landmark) else {
            continue;
        };
        let lm = &window.landmarks[obs.landmark];
        if obs.keyframe == lm.anchor {
            continue;
        }
        let Some(ev) = evaluate_visual(
            &window.keyframes[lm.anchor].pose,
            &window.keyframes[obs.keyframe].pose,
            &lm.bearing,
            lm.inv_depth,
            obs.uv,
        ) else {
            continue;
        };
        let loss = weights.visual_loss(ev.residual[0], ev.residual[1]);
        for r in 0..2 {
            cost += 0.5 * loss.rho_w2 * ev.residual[r] * ev.residual[r];
            let mut cols = [0usize; 13];
            let mut vals = [0f64; 13];
            cols[0] = slot;
            vals[0] = ev.j_rho[r];
            for c in 0..6 {
                cols[1 + 2 * c] = kf_off(0) + c;
                vals[1 + 2 * c] = ev.j_anchor[r][c];
                cols[2 + 2 * c] = kf_off(obs.keyframe) + c;
                vals[2 + 2 * c] = ev.j_obs[r][c];
            }
            accumulate(&mut h, &mut g, &cols, &vals, ev.residual[r], loss.w2);
        }
    }
    for cons in window.imu.iter().filter(|c| c.first == 0) {
        let ev = evaluate_imu(
            &window.keyframes[0],
            &window.keyframes[1],
            &cons.preintegration,
        );
        for r in 0..15 {
            let w = FactorWeights::imu_row(r);
            cost += 0.5 * w * w * ev.residual[r] * ev.residual[r];
            let mut cols = [0usize; 30];
            let mut vals = [0f64; 30];
            for c in 0..15 {
                cols[2 * c] = kf_off(0) + c;
                vals[2 * c] = ev.j_i[r][c];
                cols[2 * c + 1] = kf_off(1) + c;
                vals[2 * c + 1] = ev.j_j[r][c];
            }
            accumulate(&mut h, &mut g, &cols, &vals, ev.residual[r], w * w);
        }
    }
    if let Some(p) = prior {
        let hp = p.information();
        let grad = p.gradient(window);
        cost += p.cost(window);
        for i in 0..p.dim() {
            g[am + i] -= grad[i];
            for j in 0..p.dim() {
                h.add_at(am + i, am + j, hp.get(i, j));
            }
        }
    } else {
        for c in 0..STATE_DIM {
            let w2 = if c < 6 { 1e8 } else { 1e2 };
            h.add_at(kf_off(0) + c, kf_off(0) + c, w2);
        }
    }

    let keep = dim - marg_dim;
    let w = h.submatrix(marg_dim, 0, keep, marg_dim);
    let v = h.submatrix(marg_dim, marg_dim, keep, keep);
    let bx: DVec = g.iter().take(marg_dim).copied().collect();
    let by: DVec = g.iter().skip(marg_dim).copied().collect();
    let m = h.submatrix(0, 0, marg_dim, marg_dim).add_diagonal(1e-9);
    // The inverse as it used to be taken: one `solve` per identity column.
    let m_chol = Cholesky::factor(&m)?;
    let mut m_inv = DMat::zeros(marg_dim, marg_dim);
    for j in 0..marg_dim {
        let mut e = DVec::zeros(marg_dim);
        e[j] = 1.0;
        let col = m_chol.solve(&e);
        for i in 0..marg_dim {
            m_inv.set(i, j, col[i]);
        }
    }
    let lm_inv = w.try_mul(&m_inv).unwrap();
    let prod = lm_inv.try_mul(&w.transpose()).unwrap();
    let hp = &v - &prod;
    let minv_bx = m_inv.mat_vec(&bx);
    let rp = &by - &w.mat_vec(&minv_bx);
    let cost0 = (cost - 0.5 * bx.dot(&minv_bx)).max(0.0);
    if !rp.all_finite() || !hp.all_finite() || !cost0.is_finite() {
        return Err(SolveError::NonFinite);
    }
    Ok(Dense {
        information: hp.add_diagonal(1e-9),
        rp,
        cost0,
        window: dense_shrink(window, &marg_landmarks),
        am,
    })
}

fn accumulate(h: &mut DMat, g: &mut DVec, cols: &[usize], vals: &[f64], e: f64, w2: f64) {
    for (k, (&ci, &vi)) in cols.iter().zip(vals).enumerate() {
        if vi == 0.0 {
            continue;
        }
        g[ci] -= w2 * vi * e;
        for (&cj, &vj) in cols[k..].iter().zip(&vals[k..]) {
            if vj == 0.0 {
                continue;
            }
            let contrib = w2 * vi * vj;
            h.add_at(ci, cj, contrib);
            if ci != cj {
                h.add_at(cj, ci, contrib);
            }
        }
    }
}

fn dense_shrink(window: &SlidingWindow, marg_landmarks: &[usize]) -> SlidingWindow {
    let is_marged: HashSet<usize> = marg_landmarks.iter().copied().collect();
    let mut new_index = vec![usize::MAX; window.landmarks.len()];
    let mut landmarks = Vec::new();
    for (l, lm) in window.landmarks.iter().enumerate() {
        if is_marged.contains(&l) {
            continue;
        }
        let mut lm = *lm;
        lm.anchor -= 1;
        new_index[l] = landmarks.len();
        landmarks.push(lm);
    }
    let observations = window
        .observations
        .iter()
        .filter(|o| !is_marged.contains(&o.landmark) && o.keyframe != 0)
        .map(|o| {
            let mut o = *o;
            o.landmark = new_index[o.landmark];
            o.keyframe -= 1;
            o
        })
        .collect();
    let imu = window
        .imu
        .iter()
        .filter(|c| c.first != 0)
        .map(|c| {
            let mut c = c.clone();
            c.first -= 1;
            c
        })
        .collect();
    SlidingWindow {
        keyframes: window.keyframes[1..].to_vec(),
        landmarks,
        observations,
        imu,
    }
}

fn bits(m: &DMat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn vbits(v: &DVec) -> Vec<u64> {
    v.iter().map(|v| v.to_bits()).collect()
}

/// Debug formatting prints every float in its shortest round-trip form
/// (signed zeros included), so equal strings mean bit-equal windows.
fn window_repr(w: &SlidingWindow) -> String {
    format!("{w:?}")
}

/// `‖a − b‖_F / ‖b‖_F` over two equally long slices (0 when both vanish).
fn rel_frobenius(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let diff: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let norm: f64 = b.iter().map(|y| y * y).sum();
    if diff == 0.0 {
        0.0
    } else {
        (diff / norm).sqrt()
    }
}

/// Marginalizes `window` both ways and asserts agreement within
/// [`REL_TOL`]; returns the library's result for chaining.
fn check(
    window: &SlidingWindow,
    weights: &FactorWeights,
    prior: Option<&Prior>,
    case: &str,
) -> Option<(SlidingWindow, Prior)> {
    let dense = dense_marginalize(window, weights, prior);
    let mut fast_window = window.clone();
    let mut fast_prior = prior.cloned();
    let fast = try_marginalize_oldest_in(
        &mut SolverWorkspace::new(),
        &mut fast_window,
        weights,
        &mut fast_prior,
    );
    let (dense, am) = match (dense, fast) {
        (Ok(d), Ok(f)) => (d, f),
        (Err(_), Err(_)) => return None,
        (d, f) => panic!(
            "{case}: dense ok={} but structured ok={}",
            d.is_ok(),
            f.is_ok()
        ),
    };
    assert_eq!(dense.am, am, "{case}: am");
    // The shrunk window's keyframes are the new prior's linearization
    // point, so there `δ = 0`: the gradient is `−rp` and the cost is `c`.
    let prior = fast_prior.expect("marginalization fills the prior on success");
    let rp = -&prior.gradient(&fast_window);
    for (what, err) in [
        (
            "Hp",
            rel_frobenius(prior.information().as_slice(), dense.information.as_slice()),
        ),
        ("rp", rel_frobenius(rp.as_slice(), dense.rp.as_slice())),
        (
            "c",
            rel_frobenius(&[prior.cost(&fast_window)], &[dense.cost0]),
        ),
    ] {
        assert!(
            err <= REL_TOL,
            "{case}: {what} relative error {err:e} over {REL_TOL:e}"
        );
    }
    assert!(
        prior.information().is_symmetric(0.0),
        "{case}: Hp not symmetric"
    );
    assert_eq!(
        window_repr(&dense.window),
        window_repr(&fast_window),
        "{case}: shrunk window differs"
    );
    assert!(fast_window.validate(), "{case}: shrunk window invalid");
    Some((fast_window, prior))
}

/// Deterministic generator (64-bit LCG, top bits as a unit float).
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// Shape of a generated window.
struct Shape {
    keyframes: usize,
    /// Landmarks anchored at keyframe 0 and observed downstream.
    kf0_landmarks: usize,
    /// Landmarks anchored at keyframe 0 and observed by nothing else.
    anchor_only: usize,
    /// Landmarks anchored at later keyframes.
    later_landmarks: usize,
}

/// A perturbed visual-inertial window of the given shape: noisy
/// projections with a few gross outliers, an IMU chain, and keyframe
/// states off their ground truth so residuals (and the prior's δ) are
/// non-zero.
fn gen_window(seed: u64, shape: &Shape) -> SlidingWindow {
    let mut rng = Lcg(seed);
    let mut w = SlidingWindow::new();
    let mut truth = Vec::new();
    for i in 0..shape.keyframes {
        let pose = Pose::new(
            Quat::exp(&Vec3::new(
                rng.range(-0.02, 0.02),
                0.03 * i as f64,
                rng.range(-0.02, 0.02),
            )),
            Vec3::new(
                0.4 * i as f64,
                rng.range(-0.05, 0.05),
                rng.range(-0.05, 0.05),
            ),
        );
        truth.push(pose);
        let mut kf = KeyframeState::at_pose(pose, 0.1 * i as f64);
        kf.velocity = Vec3::new(4.0, 0.0, 0.0);
        w.keyframes.push(kf);
    }
    let anchors = (0..shape.kf0_landmarks)
        .map(|_| (0, true))
        .chain((0..shape.anchor_only).map(|_| (0, false)))
        .chain((0..shape.later_landmarks).map(|_| (1 + rng.below(shape.keyframes - 1), true)));
    let anchors: Vec<(usize, bool)> = anchors.collect();
    for (id, &(anchor, observed)) in anchors.iter().enumerate() {
        let bearing = Vec3::new(rng.range(-0.4, 0.4), rng.range(-0.3, 0.3), 1.0);
        let depth = rng.range(3.0, 12.0);
        let p_w = truth[anchor].transform(&(bearing * depth));
        w.landmarks.push(Landmark {
            id: id as u64,
            anchor,
            bearing,
            inv_depth: 1.0 / depth * rng.range(0.9, 1.1),
        });
        for (kf, pose) in truth.iter().enumerate() {
            // The anchor's own observation is present (and skipped by the
            // factors); others are seen with probability 0.7.
            if kf != anchor && (!observed || rng.unit() > 0.7) {
                continue;
            }
            let p_c = pose.inverse_transform(&p_w);
            if p_c.z() <= 0.1 {
                continue;
            }
            let outlier = rng.unit() < 0.05;
            let noise = if outlier { 0.05 } else { 0.002 };
            w.observations.push(Observation {
                landmark: id,
                keyframe: kf,
                uv: [
                    p_c.x() / p_c.z() + rng.range(-noise, noise),
                    p_c.y() / p_c.z() + rng.range(-noise, noise),
                ],
            });
        }
    }
    for i in 0..shape.keyframes - 1 {
        let samples: Vec<ImuSample> = (0..20)
            .map(|_| ImuSample {
                gyro: Vec3::new(rng.range(-0.01, 0.01), 0.3, rng.range(-0.01, 0.01)),
                accel: Vec3::new(rng.range(-0.1, 0.1), rng.range(-0.1, 0.1), 9.81),
                dt: 0.005,
            })
            .collect();
        w.imu.push(ImuConstraint {
            first: i,
            preintegration: Preintegration::integrate(&samples, Vec3::ZERO, Vec3::ZERO),
        });
    }
    for kf in w.keyframes.iter_mut().skip(1) {
        let mut d = [0.0; STATE_DIM];
        for v in d.iter_mut() {
            *v = rng.range(-0.01, 0.01);
        }
        *kf = kf.boxplus(&d);
    }
    w
}

fn shape(keyframes: usize, kf0: usize, anchor_only: usize, later: usize) -> Shape {
    Shape {
        keyframes,
        kf0_landmarks: kf0,
        anchor_only,
        later_landmarks: later,
    }
}

fn weight_sets() -> [(&'static str, FactorWeights); 2] {
    [
        ("plain", FactorWeights::default()),
        ("huber", FactorWeights::default().with_huber(0.004)),
    ]
}

#[test]
fn structured_marginalization_matches_dense_oracle() {
    let shapes = [
        ("am=0", shape(6, 0, 0, 25)),
        ("anchor-only", shape(6, 4, 5, 20)),
        ("served", shape(10, 15, 2, 60)),
    ];
    for (wname, weights) in weight_sets() {
        for (sname, sh) in &shapes {
            for seed in 1..=3u64 {
                let case = format!("{wname}/{sname}/seed {seed}");
                let window = gen_window(seed, sh);

                // Without an incoming prior, then chained through the prior
                // it produced.
                let (w1, p1) = check(&window, &weights, None, &format!("{case}/no prior"))
                    .expect("generated window marginalizes");
                check(&w1, &weights, Some(&p1), &format!("{case}/chained"))
                    .expect("chained marginalization succeeds");

                // With an incoming prior over every keyframe, and over all
                // but the newest one (the served shape), each linearized
                // away from the window's states so δ ≠ 0.
                for (pname, prior_kfs) in
                    [("full prior", sh.keyframes), ("prior", sh.keyframes - 1)]
                {
                    let source = gen_window(seed + 100, &shape(prior_kfs + 1, 3, 0, 10));
                    let (_, p) = check(&source, &weights, None, &format!("{case}/{pname} source"))
                        .expect("source window marginalizes");
                    assert_eq!(p.num_keyframes(), prior_kfs);
                    let (w2, p2) = check(&window, &weights, Some(&p), &format!("{case}/{pname}"))
                        .expect("window with a prior marginalizes");
                    check(&w2, &weights, Some(&p2), &format!("{case}/{pname} chained"));
                }
            }
        }
    }
}

#[test]
fn first_marginalization_arrow_matches_dense_oracle() {
    // The first marginalization of a session: no incoming prior, the gauge
    // prior on kf0, and over a hundred landmarks anchored at kf0, so `M` is
    // a (100+15)² arrow.
    for (wname, weights) in weight_sets() {
        for seed in 1..=2u64 {
            let case = format!("{wname}/arrow/seed {seed}");
            let window = gen_window(seed, &shape(10, 104, 4, 40));
            let (w1, p1) = check(&window, &weights, None, &case).expect("arrow marginalizes");
            check(&w1, &weights, Some(&p1), &format!("{case}/chained"))
                .expect("chained marginalization succeeds");
        }
    }
}

#[test]
fn workspace_reuse_across_shapes_keeps_bits() {
    // One workspace marginalizing windows of changing shape (growing, then
    // shrinking) must give what a fresh workspace gives: every buffer is
    // rewritten before it is read.
    let weights = FactorWeights::default().with_huber(0.004);
    let mut ws = SolverWorkspace::new();
    for (seed, sh) in [
        (7, shape(10, 15, 2, 60)),
        (8, shape(5, 2, 1, 10)),
        (9, shape(8, 0, 0, 30)),
        (10, shape(10, 20, 3, 50)),
    ] {
        let window = gen_window(seed, &sh);
        let (mut fresh_w, mut fresh_slot) = (window.clone(), None);
        let fresh_am = try_marginalize_oldest_in(
            &mut SolverWorkspace::new(),
            &mut fresh_w,
            &weights,
            &mut fresh_slot,
        )
        .expect("marginalizes");
        let fresh = fresh_slot.expect("prior set");
        let mut w = window.clone();
        let mut slot = None;
        let am =
            try_marginalize_oldest_in(&mut ws, &mut w, &weights, &mut slot).expect("marginalizes");
        let reused = slot.expect("prior set");
        assert_eq!(am, fresh_am);
        assert_eq!(bits(reused.information()), bits(fresh.information()));
        assert_eq!(
            vbits(&reused.gradient(&w)),
            vbits(&fresh.gradient(&fresh_w))
        );
        assert_eq!(reused.cost(&w).to_bits(), fresh.cost(&fresh_w).to_bits());
        assert_eq!(window_repr(&w), window_repr(&fresh_w));
    }
}

#[test]
fn failed_marginalization_leaves_state_untouched() {
    let weights = FactorWeights::default();
    let mut window = gen_window(3, &shape(6, 4, 1, 20));
    for obs in &mut window.observations {
        obs.uv = [f64::NAN, f64::NAN];
    }
    assert!(dense_marginalize(&window, &weights, None).is_err());
    let (_, prior) = check(
        &gen_window(4, &shape(6, 2, 0, 10)),
        &weights,
        None,
        "source",
    )
    .expect("source marginalizes");
    let before = window_repr(&window);
    let mut slot = Some(prior.clone());
    let r = try_marginalize_oldest_in(
        &mut SolverWorkspace::new(),
        &mut window,
        &weights,
        &mut slot,
    );
    assert!(r.is_err(), "NaN measurements must surface as SolveError");
    assert_eq!(window_repr(&window), before, "window touched on error");
    let kept = slot.expect("prior kept on error");
    assert_eq!(bits(kept.information()), bits(prior.information()));
    assert_eq!(
        vbits(&kept.gradient(&window)),
        vbits(&prior.gradient(&window))
    );
}
