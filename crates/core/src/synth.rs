//! The hardware synthesizer (paper Sec. 5).
//!
//! Given a workload shape and design constraints, find the customization
//! parameters `(nd, nm, s)` that optimize the objective:
//!
//! * Eq. 11 — minimize power subject to latency and resource constraints;
//! * Eq. 12 — minimize latency subject to resource constraints.
//!
//! The feasible set is a 3-variable integer lattice of ≈90,000 points
//! (`nd ∈ 1..=30`, `nm ∈ 1..=24`, `s ∈ 1..=125`) on the ZC706, scaling to
//! millions of points on larger fabrics. The paper solves the relaxation
//! with YALMIP in milliseconds; an exact search is both strictly optimal
//! and — with the structure below — takes milliseconds too, against the
//! ~15 *years* an exhaustive search through FPGA synthesis would take
//! (Sec. 7.3). Synthesis runs once per deployment, offline; run-time
//! re-optimization is the gating-LUT lookup of Sec. 6, not a new search.
//!
//! # Search structure
//!
//! Two compounding layers make the search fast, while every path returns
//! the **bitwise-identical design** the exhaustive serial scan
//! ([`synthesize_exhaustive`]) returns:
//!
//! 1. **Memoized per-knob models.** Eq. 13's summands each depend on a
//!    single knob, so [`archytas_hw::LatencyTables`] evaluates every
//!    distinct sub-term once and replays the exact floating-point summation
//!    order per lattice point — bit-identical to calling
//!    [`window_cycles`] directly, at a few flops per candidate.
//! 2. **Incumbent-bound pruning.** The best primary-objective value found
//!    so far is shared across stripes through a tighten-only atomic. Whole
//!    stripes, `(nm, s)` subranges and `s`-blocks are cut when their
//!    monotonicity-safe *lower bound* (term-wise minima summed in the same
//!    expression shape — see `LatencyTables::window_cycles_lower_bound`)
//!    strictly exceeds the incumbent. Cuts are value-strict, so any
//!    candidate that could tie the optimum is never skipped, and the fold
//!    over per-stripe winners replays the strict serial [`beats`] order —
//!    the selected design is therefore identical at every pool size, even
//!    though *which* candidates get cut depends on thread timing (the
//!    [`SynthesizedDesign::candidates_examined`] /
//!    [`SynthesizedDesign::candidates_pruned`] counters are diagnostics,
//!    deterministic only on a 1-thread pool).

use archytas_hw::{
    window_cycles, AcceleratorConfig, FpgaPlatform, LatencyTables, PowerModel, ResourceModel,
    ResourceVector, S_BLOCK,
};
use archytas_mdfg::ProblemShape;
use archytas_par::Pool;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bounds of the synthesizer's search lattice on the ZC706.
/// `30 × 24 × 125 = 90,000` candidate designs — the space quoted in
/// Sec. 7.3. Other boards scale these bounds with their DSP capacity (the
/// knobs are MAC/lane counts, so fabric size is what admits more of them).
pub const ND_MAX: usize = 30;
/// Upper bound of the `nm` knob (ZC706).
pub const NM_MAX: usize = 24;
/// Upper bound of the `s` knob (ZC706).
pub const S_MAX: usize = 125;

/// Knob bounds for a platform, scaled by DSP capacity relative to the
/// ZC706 (whose bounds are the paper's 90,000-point lattice).
pub fn knob_bounds(platform: &FpgaPlatform) -> (usize, usize, usize) {
    let scale = platform.capacity.dsp / FpgaPlatform::zc706().capacity.dsp;
    let f = |base: usize| ((base as f64 * scale).round() as usize).max(4);
    (f(ND_MAX), f(NM_MAX), f(S_MAX))
}

/// What the synthesizer optimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Eq. 11: minimize power under a latency bound (ms per window).
    MinPowerUnderLatency(f64),
    /// Eq. 12: minimize latency under the resource constraint only.
    MinLatency,
}

/// A complete design request.
#[derive(Debug, Clone)]
pub struct DesignSpec {
    /// Workload the latency model is evaluated on.
    pub shape: ProblemShape,
    /// NLS iteration budget the design must sustain (`Iter` in Eq. 13).
    pub iterations: usize,
    /// Target FPGA.
    pub platform: FpgaPlatform,
    /// Optimization objective.
    pub objective: Objective,
}

impl DesignSpec {
    /// Spec for a power-optimal ZC706 design under `latency_ms`.
    pub fn zc706_power_optimal(latency_ms: f64) -> Self {
        Self {
            shape: ProblemShape::typical(),
            iterations: 6,
            platform: FpgaPlatform::zc706(),
            objective: Objective::MinPowerUnderLatency(latency_ms),
        }
    }
}

/// A synthesized design: the chosen configuration plus its modelled
/// latency, power and resources.
#[derive(Debug, Clone)]
pub struct SynthesizedDesign {
    /// Chosen customization parameters.
    pub config: AcceleratorConfig,
    /// Modelled per-window latency (ms) at the spec's iteration budget.
    pub latency_ms: f64,
    /// Modelled power (W).
    pub power_w: f64,
    /// Modelled resources.
    pub resources: ResourceVector,
    /// Lattice points the latency model was evaluated on (including
    /// incumbent-seeding probes). Run-dependent under parallel pruning —
    /// the shared bound tightens at thread-timing-dependent moments — and
    /// deterministic on a 1-thread pool.
    pub candidates_examined: usize,
    /// Resource-feasible lattice points skipped wholesale by
    /// incumbent-bound cuts (stripe, `(nm, s)`-subrange and `s`-block
    /// extents). Same determinism caveat as `candidates_examined`.
    pub candidates_pruned: usize,
}

impl SynthesizedDesign {
    /// `true` when `other` selects the same configuration with bit-equal
    /// modelled latency, power and resources — the equivalence contract of
    /// the pruned path against [`synthesize_exhaustive`]
    /// (the search counters are run-dependent and deliberately excluded).
    pub fn same_design(&self, other: &SynthesizedDesign) -> bool {
        self.config == other.config
            && self.latency_ms.to_bits() == other.latency_ms.to_bits()
            && self.power_w.to_bits() == other.power_w.to_bits()
            && self.resources.lut.to_bits() == other.resources.lut.to_bits()
            && self.resources.ff.to_bits() == other.resources.ff.to_bits()
            && self.resources.bram.to_bits() == other.resources.bram.to_bits()
            && self.resources.dsp.to_bits() == other.resources.dsp.to_bits()
    }
}

/// Why synthesis failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// No lattice point satisfies both latency and resource constraints.
    Infeasible {
        /// The best (lowest) latency achievable within resources, ms.
        best_achievable_latency_ms: f64,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Infeasible {
                best_achievable_latency_ms,
            } => write!(
                f,
                "no feasible design: best achievable latency within resources is {best_achievable_latency_ms:.2} ms"
            ),
        }
    }
}

impl Error for SynthesisError {}

/// Strict "candidate beats incumbent" predicate shared by the serial and
/// striped scans. Lexicographic on (power, latency) for Eq. 11 and
/// (latency, power) for Eq. 12; ties keep the incumbent, so the earliest
/// candidate in `(nd, nm, s)` scan order wins — exactly the serial
/// best-so-far semantics.
fn beats(objective: Objective, lat: f64, p: f64, b: &SynthesizedDesign) -> bool {
    match objective {
        Objective::MinPowerUnderLatency(_) => {
            p < b.power_w || (p == b.power_w && lat < b.latency_ms)
        }
        Objective::MinLatency => lat < b.latency_ms || (lat == b.latency_ms && p < b.power_w),
    }
}

/// Partial scan result of one `nd` stripe of the lattice.
struct StripeScan {
    examined: usize,
    pruned: usize,
    best_latency_any: f64,
    best: Option<SynthesizedDesign>,
}

impl StripeScan {
    fn empty() -> Self {
        StripeScan {
            examined: 0,
            pruned: 0,
            best_latency_any: f64::INFINITY,
            best: None,
        }
    }
}

/// Scans the full `(nm, s)` plane at a fixed `nd` by direct model
/// evaluation — the unoptimized serial inner loops kept verbatim as the
/// gold reference for the pruned search.
fn scan_stripe_exhaustive(
    spec: &DesignSpec,
    resources: &ResourceModel,
    power: &PowerModel,
    nd: usize,
    nm_max: usize,
    s_max: usize,
) -> StripeScan {
    let clock_khz = spec.platform.clock_mhz * 1e3;
    let mut scan = StripeScan::empty();
    for nm in 1..=nm_max {
        // Resource feasibility is monotone in s: find the largest
        // feasible s once and never examine beyond it.
        let mut s_limit = 0usize;
        for s in (1..=s_max).rev() {
            if resources.fits(&AcceleratorConfig::new(nd, nm, s), &spec.platform) {
                s_limit = s;
                break;
            }
        }
        if s_limit == 0 {
            continue;
        }
        for s in 1..=s_limit {
            let config = AcceleratorConfig::new(nd, nm, s);
            scan.examined += 1;
            let lat = window_cycles(&spec.shape, &config, spec.iterations) / clock_khz;
            scan.best_latency_any = scan.best_latency_any.min(lat);
            let feasible = match spec.objective {
                Objective::MinPowerUnderLatency(bound) => lat <= bound,
                Objective::MinLatency => true,
            };
            if !feasible {
                continue;
            }
            let p = power.power_w(&config);
            let better = match &scan.best {
                None => true,
                Some(b) => beats(spec.objective, lat, p, b),
            };
            if better {
                scan.best = Some(SynthesizedDesign {
                    config,
                    latency_ms: lat,
                    power_w: p,
                    resources: resources.resources(&config),
                    candidates_examined: 0,
                    candidates_pruned: 0,
                });
            }
        }
    }
    scan
}

/// The exhaustive serial scan: every resource-feasible lattice point is
/// evaluated directly against the Eq. 13–17 models in `(nd, nm, s)` order,
/// with no tables, no pruning and no parallelism.
///
/// This is the semantic oracle of the synthesizer — the pruned path
/// promises to return a design for which
/// [`SynthesizedDesign::same_design`] holds against this scan's result
/// (and, on infeasible specs, a bit-equal
/// [`SynthesisError::Infeasible`] latency). It is deliberately kept in the
/// original unoptimized form; use [`synthesize`] for anything
/// latency-sensitive.
///
/// # Errors
///
/// Returns [`SynthesisError::Infeasible`] when no configuration meets the
/// constraints on the target platform.
pub fn synthesize_exhaustive(spec: &DesignSpec) -> Result<SynthesizedDesign, SynthesisError> {
    let resources = ResourceModel::calibrated();
    let power = PowerModel::for_platform(&spec.platform);
    let (nd_max, nm_max, s_max) = knob_bounds(&spec.platform);
    let mut examined = 0usize;
    let mut best: Option<SynthesizedDesign> = None;
    let mut best_latency_any = f64::INFINITY;
    for nd in 1..=nd_max {
        let stripe = scan_stripe_exhaustive(spec, &resources, &power, nd, nm_max, s_max);
        examined += stripe.examined;
        best_latency_any = best_latency_any.min(stripe.best_latency_any);
        if let Some(cand) = stripe.best {
            let better = match &best {
                None => true,
                Some(b) => beats(spec.objective, cand.latency_ms, cand.power_w, b),
            };
            if better {
                best = Some(cand);
            }
        }
    }
    match best {
        Some(mut d) => {
            d.candidates_examined = examined;
            Ok(d)
        }
        None => Err(SynthesisError::Infeasible {
            best_achievable_latency_ms: best_latency_any,
        }),
    }
}

/// Shared state of one pruned search: the memoized models plus the
/// tighten-only incumbent bound the stripes race against.
struct Search<'a> {
    spec: &'a DesignSpec,
    resources: ResourceModel,
    power: PowerModel,
    tables: LatencyTables,
    clock_khz: f64,
    nd_max: usize,
    nm_max: usize,
    s_max: usize,
    /// Bit pattern of the best primary-objective value (latency for
    /// Eq. 12, power for Eq. 11) achieved by any feasible candidate so
    /// far. Latencies and powers are positive finite, so the IEEE-754 bit
    /// order equals the value order and an atomic min over bits is an
    /// atomic min over values. Starts at `+inf`; only ever tightens.
    incumbent_bits: AtomicU64,
}

impl<'a> Search<'a> {
    fn new(spec: &'a DesignSpec) -> Self {
        let (nd_max, nm_max, s_max) = knob_bounds(&spec.platform);
        Search {
            resources: ResourceModel::calibrated(),
            power: PowerModel::for_platform(&spec.platform),
            tables: LatencyTables::new(&spec.shape, spec.iterations, nd_max, nm_max, s_max),
            clock_khz: spec.platform.clock_mhz * 1e3,
            nd_max,
            nm_max,
            s_max,
            incumbent_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            spec,
        }
    }

    /// Current incumbent bound (primary objective value), `+inf` until the
    /// first feasible candidate is seen.
    fn bound(&self) -> f64 {
        f64::from_bits(self.incumbent_bits.load(Ordering::Relaxed))
    }

    /// Tightens the shared bound to `value` if it improves it. Lock-free
    /// CAS-min; the bound can only ever decrease, so a stale read merely
    /// prunes less.
    fn tighten(&self, value: f64) {
        let bits = value.to_bits();
        let mut cur = self.incumbent_bits.load(Ordering::Relaxed);
        while bits < cur {
            match self.incumbent_bits.compare_exchange_weak(
                cur,
                bits,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    #[inline]
    fn latency_ms(&self, nd: usize, nm: usize, s: usize) -> f64 {
        self.tables.window_cycles_at(nd, nm, s) / self.clock_khz
    }

    /// Evaluates one candidate and, when feasible, tightens the shared
    /// bound with its primary value. Returns whether it was evaluated.
    fn probe(&self, nd: usize, nm: usize, s: usize) -> bool {
        if nd == 0 || nm == 0 || s == 0 || nd > self.nd_max || nm > self.nm_max || s > self.s_max {
            return false;
        }
        if !self
            .resources
            .fits(&AcceleratorConfig::new(nd, nm, s), &self.spec.platform)
        {
            return false;
        }
        let lat = self.latency_ms(nd, nm, s);
        match self.spec.objective {
            Objective::MinLatency => self.tighten(lat),
            Objective::MinPowerUnderLatency(bound) => {
                if lat <= bound {
                    self.tighten(
                        self.power
                            .power_with_s(self.power.power_prefix_w(nd, nm), s),
                    );
                }
            }
        }
        true
    }

    /// Seeds the incumbent bound before the sweep with a deterministic
    /// coarse probe grid over the lattice corners and the Cholesky sweet
    /// spot. Returns the model evaluations spent.
    fn seed(&self) -> usize {
        let mut examined = 0usize;
        let s_star = self.tables.best_s_hint();
        let mut nd_probes = [
            self.nd_max,
            (self.nd_max * 3 / 4).max(1),
            (self.nd_max / 2).max(1),
            (self.nd_max / 4).max(1),
            1,
        ];
        nd_probes.sort_unstable();
        let mut nm_probes = [self.nm_max, (self.nm_max / 2).max(1), 1];
        nm_probes.sort_unstable();
        let mut last_nd = 0usize;
        for &nd in &nd_probes {
            if nd == last_nd {
                continue;
            }
            last_nd = nd;
            let mut last_nm = 0usize;
            for &nm in &nm_probes {
                if nm == last_nm {
                    continue;
                }
                last_nm = nm;
                let s_limit =
                    self.resources
                        .max_feasible_s(nd, nm, &self.spec.platform, self.s_max);
                if s_limit == 0 {
                    continue;
                }
                for s in [s_star.min(s_limit), s_limit] {
                    if self.probe(nd, nm, s) {
                        examined += 1;
                    }
                }
            }
        }
        examined
    }

    /// Total resource-feasible extent of one stripe — the points a bound
    /// cut of the whole stripe skips. O(`nm_max`) via the closed-form
    /// `max_feasible_s`.
    fn stripe_extent(&self, nd: usize) -> usize {
        let mut total = 0usize;
        let mut s_cap = self.s_max;
        for nm in 1..=self.nm_max {
            let s_limit = self
                .resources
                .max_feasible_s(nd, nm, &self.spec.platform, s_cap);
            if s_limit == 0 {
                break;
            }
            s_cap = s_limit;
            total += s_limit;
        }
        total
    }

    /// The pruned `(nm, s)` scan of one `nd` stripe.
    ///
    /// Every cut compares a monotonicity-safe *lower bound* of the skipped
    /// subrange **strictly** against the shared incumbent: a skipped
    /// candidate therefore has primary value strictly above some
    /// already-achieved feasible value, so it can neither beat nor tie the
    /// eventual optimum — which is why the fold over stripe winners still
    /// selects the exhaustive scan's design no matter how the bound
    /// tightens across threads.
    fn scan_stripe(&self, nd: usize) -> StripeScan {
        let mut scan = StripeScan::empty();
        let objective = self.spec.objective;
        // Stripe-level cut: O(1) bound against the whole (nm, s) plane.
        let stripe_bound = match objective {
            Objective::MinLatency => {
                self.tables
                    .window_cycles_lower_bound(nd, self.nm_max, self.s_max)
                    / self.clock_khz
            }
            Objective::MinPowerUnderLatency(_) => {
                self.power.power_with_s(self.power.power_prefix_w(nd, 1), 1)
            }
        };
        if stripe_bound > self.bound() {
            scan.pruned += self.stripe_extent(nd);
            return scan;
        }
        let mut s_cap = self.s_max;
        for nm in 1..=self.nm_max {
            // Resources are monotone in nm, so the feasible s range can
            // only shrink stripe-inward — and once it vanishes, no larger
            // nm fits either.
            let s_limit = self
                .resources
                .max_feasible_s(nd, nm, &self.spec.platform, s_cap);
            if s_limit == 0 {
                break;
            }
            s_cap = s_limit;
            // (nm, s)-subrange cut.
            let nm_bound = match objective {
                Objective::MinLatency => {
                    self.tables.window_cycles_lower_bound(nd, nm, s_limit) / self.clock_khz
                }
                Objective::MinPowerUnderLatency(_) => self
                    .power
                    .power_with_s(self.power.power_prefix_w(nd, nm), 1),
            };
            if nm_bound > self.bound() {
                scan.pruned += s_limit;
                continue;
            }
            let p_prefix = self.power.power_prefix_w(nd, nm);
            let pruning_active = self.bound().is_finite();
            let mut s = 1usize;
            's_axis: while s <= s_limit {
                // s-block cut: the Cholesky terms are not monotone in s
                // (Eq. 7's Evaluate serialization), so the s axis is tiled
                // into S_BLOCK-wide blocks with precomputed term minima.
                // Constraint-based cuts (MinPower's latency bound) are
                // gated on an incumbent existing, so an infeasible search
                // still evaluates every point and reports the exhaustive
                // scan's exact best-achievable latency.
                if pruning_active && s % S_BLOCK == 1 {
                    let block = (s - 1) / S_BLOCK;
                    let block_end = (s + S_BLOCK - 1).min(s_limit);
                    let lat_lb = self.tables.window_cycles_lower_bound_s_block(nd, nm, block)
                        / self.clock_khz;
                    let cut = match objective {
                        Objective::MinLatency => lat_lb > self.bound(),
                        Objective::MinPowerUnderLatency(bound) => lat_lb > bound,
                    };
                    if cut {
                        scan.pruned += block_end - s + 1;
                        s = block_end + 1;
                        continue 's_axis;
                    }
                }
                scan.examined += 1;
                let lat = self.latency_ms(nd, nm, s);
                scan.best_latency_any = scan.best_latency_any.min(lat);
                let feasible = match objective {
                    Objective::MinPowerUnderLatency(bound) => lat <= bound,
                    Objective::MinLatency => true,
                };
                if !feasible {
                    s += 1;
                    continue 's_axis;
                }
                let p = self.power.power_with_s(p_prefix, s);
                if let Objective::MinPowerUnderLatency(_) = objective {
                    // Power is strictly increasing in s: once this
                    // latency-feasible candidate's power exceeds the
                    // incumbent, every later s in the run costs strictly
                    // more and can neither beat nor tie it.
                    if p > self.bound() {
                        scan.pruned += s_limit - s;
                        break 's_axis;
                    }
                }
                let better = match &scan.best {
                    None => true,
                    Some(b) => beats(objective, lat, p, b),
                };
                if better {
                    let config = AcceleratorConfig::new(nd, nm, s);
                    scan.best = Some(SynthesizedDesign {
                        config,
                        latency_ms: lat,
                        power_w: p,
                        resources: self.resources.resources(&config),
                        candidates_examined: 0,
                        candidates_pruned: 0,
                    });
                    self.tighten(match objective {
                        Objective::MinLatency => lat,
                        Objective::MinPowerUnderLatency(_) => p,
                    });
                }
                s += 1;
            }
        }
        scan
    }
}

/// Runs the synthesizer on the global pool.
///
/// # Errors
///
/// Returns [`SynthesisError::Infeasible`] when no configuration meets the
/// constraints on the target platform.
pub fn synthesize(spec: &DesignSpec) -> Result<SynthesizedDesign, SynthesisError> {
    synthesize_with(spec, &Pool::global())
}

/// Runs the synthesizer on an explicit pool.
///
/// The lattice is striped over `nd`; each stripe runs the pruned `(nm, s)`
/// scan against the shared incumbent bound, and the per-stripe winners are
/// folded in ascending `nd` order with the same strict [`beats`] predicate
/// as the serial best-so-far loop. Returns a design for which
/// [`SynthesizedDesign::same_design`] holds against
/// [`synthesize_exhaustive`], for any thread count.
///
/// # Errors
///
/// Returns [`SynthesisError::Infeasible`] when no configuration meets the
/// constraints on the target platform.
pub fn synthesize_with(
    spec: &DesignSpec,
    pool: &Pool,
) -> Result<SynthesizedDesign, SynthesisError> {
    let search = Search::new(spec);
    let probe_examined = search.seed();
    let nds: Vec<usize> = (1..=search.nd_max).collect();
    let stripes = pool.par_map(&nds, |&nd| search.scan_stripe(nd));

    // Stripes come back in ascending nd, the strict serial fold order.
    let mut examined = probe_examined;
    let mut pruned = 0usize;
    let mut best: Option<SynthesizedDesign> = None;
    let mut best_latency_any = f64::INFINITY;
    for stripe in stripes {
        examined += stripe.examined;
        pruned += stripe.pruned;
        best_latency_any = best_latency_any.min(stripe.best_latency_any);
        if let Some(cand) = stripe.best {
            let better = match &best {
                None => true,
                Some(b) => beats(spec.objective, cand.latency_ms, cand.power_w, b),
            };
            if better {
                best = Some(cand);
            }
        }
    }

    match best {
        Some(mut d) => {
            d.candidates_examined = examined;
            d.candidates_pruned = pruned;
            Ok(d)
        }
        // No feasible candidate means the bound never left +inf, so no cut
        // ever fired: every resource-feasible point was evaluated and the
        // reported best-achievable latency is the exhaustive scan's, bit
        // for bit.
        None => Err(SynthesisError::Infeasible {
            best_achievable_latency_ms: best_latency_any,
        }),
    }
}

/// One point of the latency-vs-power Pareto frontier (Fig. 14).
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The design at this point.
    pub design: SynthesizedDesign,
    /// The latency constraint that produced it.
    pub latency_constraint_ms: f64,
}

/// Sweeps the latency constraint to trace the power-optimal Pareto frontier
/// (Fig. 14's square markers), on the global pool.
pub fn pareto_frontier(
    base: &DesignSpec,
    latency_range_ms: (f64, f64),
    steps: usize,
) -> Vec<ParetoPoint> {
    pareto_frontier_with(base, latency_range_ms, steps, &Pool::global())
}

/// Pareto sweep on an explicit pool.
///
/// The per-bound synthesis runs are independent and fan out over the pool
/// (each one scans its lattice serially — the nested-parallelism guard in
/// `archytas-par` sees to that); the dominance filter then folds the results
/// in ascending-bound order, which is the exact serial construction.
pub fn pareto_frontier_with(
    base: &DesignSpec,
    latency_range_ms: (f64, f64),
    steps: usize,
    pool: &Pool,
) -> Vec<ParetoPoint> {
    assert!(steps >= 2, "pareto_frontier: need at least two steps");
    let (lo, hi) = latency_range_ms;
    let bounds: Vec<f64> = (0..steps)
        .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
        .collect();
    let designs = pool.par_map(&bounds, |&bound| {
        synthesize_with(
            &DesignSpec {
                objective: Objective::MinPowerUnderLatency(bound),
                ..base.clone()
            },
            pool,
        )
        .ok()
    });
    let mut out: Vec<ParetoPoint> = Vec::new();
    for (&bound, design) in bounds.iter().zip(designs) {
        let Some(design) = design else { continue };
        // Keep only non-dominated points.
        let dominated = out.iter().any(|p| {
            p.design.latency_ms <= design.latency_ms && p.design.power_w <= design.power_w
        });
        if !dominated {
            out.retain(|p| {
                !(design.latency_ms <= p.design.latency_ms && design.power_w <= p.design.power_w)
            });
            out.push(ParetoPoint {
                design,
                latency_constraint_ms: bound,
            });
        }
    }
    out.sort_by(|a, b| {
        a.design
            .latency_ms
            .partial_cmp(&b.design.latency_ms)
            .expect("finite latencies")
    });
    out
}

/// Best-effort Pareto validation (Sec. 7.3, "Validation"): perturb each
/// frontier design's knobs and verify no perturbed neighbour dominates it.
/// Returns the perturbed (latency, power) points for plotting and the number
/// of dominating neighbours found (0 for a valid frontier).
pub fn validate_by_perturbation(
    spec: &DesignSpec,
    frontier: &[ParetoPoint],
) -> (Vec<(f64, f64)>, usize) {
    let resources = ResourceModel::calibrated();
    let power = PowerModel::for_platform(&spec.platform);
    let clock_khz = spec.platform.clock_mhz * 1e3;
    // Frontier points are validated independently; per-point results are
    // concatenated in frontier order, matching the serial construction.
    let per_point = Pool::global().par_map(frontier, |point| {
        let mut perturbed = Vec::new();
        let mut violations = 0usize;
        let c = point.design.config;
        for (dnd, dnm, ds) in [
            (1i64, 0i64, 0i64),
            (-1, 0, 0),
            (0, 1, 0),
            (0, -1, 0),
            (0, 0, 4),
            (0, 0, -4),
            (1, 1, 4),
            (-1, -1, -4),
        ] {
            let nd = c.nd as i64 + dnd;
            let nm = c.nm as i64 + dnm;
            let s = c.s as i64 + ds;
            if nd < 1 || nm < 1 || s < 1 {
                continue;
            }
            let pc = AcceleratorConfig::new(nd as usize, nm as usize, s as usize);
            if !resources.fits(&pc, &spec.platform) {
                continue;
            }
            let lat = window_cycles(&spec.shape, &pc, spec.iterations) / clock_khz;
            let pw = power.power_w(&pc);
            perturbed.push((lat, pw));
            // Does this perturbation dominate any frontier point?
            if frontier
                .iter()
                .any(|f| lat < f.design.latency_ms - 1e-9 && pw < f.design.power_w - 1e-9)
            {
                violations += 1;
            }
        }
        (perturbed, violations)
    });
    let mut perturbed = Vec::new();
    let mut violations = 0usize;
    for (mut pts, v) in per_point {
        perturbed.append(&mut pts);
        violations += v;
    }
    (perturbed, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archytas_hw::{HIGH_PERF, LOW_POWER};

    #[test]
    fn design_space_size_matches_paper() {
        assert_eq!(ND_MAX * NM_MAX * S_MAX, 90_000);
    }

    #[test]
    fn synthesizer_is_fast() {
        let spec = DesignSpec::zc706_power_optimal(20.0);
        let start = std::time::Instant::now();
        let design = synthesize(&spec).expect("feasible");
        let elapsed = start.elapsed();
        assert!(
            elapsed.as_millis() < 3_000,
            "synthesis took {elapsed:?}, paper quotes ~3 s end-to-end"
        );
        // Between evaluation and bound cuts, the search must have
        // dispatched a meaningful share of the 90k lattice — and actually
        // cut something.
        assert!(design.candidates_examined + design.candidates_pruned > 10_000);
        assert!(design.candidates_pruned > 0, "no bound cut ever fired");
    }

    #[test]
    fn constraints_are_respected() {
        for bound in [5.0, 10.0, 20.0, 33.0] {
            let spec = DesignSpec::zc706_power_optimal(bound);
            let design = synthesize(&spec).expect("feasible");
            assert!(
                design.latency_ms <= bound,
                "bound {bound}: latency {}",
                design.latency_ms
            );
            assert!(design.resources.fits(&spec.platform.capacity));
        }
    }

    #[test]
    fn tighter_latency_costs_more_power() {
        let fast = synthesize(&DesignSpec::zc706_power_optimal(2.5)).expect("feasible");
        let slow = synthesize(&DesignSpec::zc706_power_optimal(30.0)).expect("feasible");
        assert!(fast.power_w > slow.power_w);
        assert!(fast.latency_ms < slow.latency_ms);
    }

    #[test]
    fn min_latency_uses_the_fabric() {
        let spec = DesignSpec {
            objective: Objective::MinLatency,
            ..DesignSpec::zc706_power_optimal(0.0)
        };
        let design = synthesize(&spec).expect("feasible");
        // The fastest design should be near a resource wall (like High-Perf
        // is DSP-limited).
        let util = design.resources.dsp / spec.platform.capacity.dsp;
        assert!(util > 0.8, "DSP utilization {util:.2}");
    }

    #[test]
    fn impossible_latency_is_infeasible() {
        let spec = DesignSpec::zc706_power_optimal(0.001);
        match synthesize(&spec) {
            Err(SynthesisError::Infeasible {
                best_achievable_latency_ms,
            }) => assert!(best_achievable_latency_ms > 0.001),
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn named_designs_are_near_synthesized_ones() {
        // Synthesizing under the paper's two constraints should produce
        // designs in the same region of the space as Tbl. 2's.
        let hp = synthesize(&DesignSpec::zc706_power_optimal(2.5)).expect("feasible");
        assert!(
            hp.config.nd >= HIGH_PERF.nd / 2,
            "fast design has many D-Schur MACs: {:?}",
            hp.config
        );
        let lp = synthesize(&DesignSpec::zc706_power_optimal(3.5)).expect("feasible");
        assert!(lp.config.nd <= hp.config.nd);
        let _ = LOW_POWER;
    }

    #[test]
    fn frontier_is_monotone() {
        let base = DesignSpec::zc706_power_optimal(20.0);
        let frontier = pareto_frontier(&base, (2.2, 8.0), 10);
        assert!(
            frontier.len() >= 3,
            "frontier has {} points",
            frontier.len()
        );
        for w in frontier.windows(2) {
            assert!(w[0].design.latency_ms <= w[1].design.latency_ms);
            assert!(
                w[0].design.power_w >= w[1].design.power_w,
                "power must fall as latency relaxes"
            );
        }
    }

    #[test]
    fn pruned_scan_matches_exhaustive_for_any_thread_count() {
        for objective in [Objective::MinPowerUnderLatency(4.0), Objective::MinLatency] {
            let spec = DesignSpec {
                objective,
                ..DesignSpec::zc706_power_optimal(4.0)
            };
            let oracle = synthesize_exhaustive(&spec).expect("feasible");
            for threads in [1, 2, 8] {
                let pruned =
                    synthesize_with(&spec, &Pool::with_threads(threads)).expect("feasible");
                assert!(
                    pruned.same_design(&oracle),
                    "{objective:?} @ {threads} threads: {:?} vs {:?}",
                    pruned.config,
                    oracle.config
                );
            }
        }
    }

    #[test]
    fn infeasible_spec_reports_exhaustive_error_bits() {
        let spec = DesignSpec::zc706_power_optimal(0.001);
        let oracle = synthesize_exhaustive(&spec).expect_err("infeasible");
        for threads in [1, 8] {
            let pruned =
                synthesize_with(&spec, &Pool::with_threads(threads)).expect_err("infeasible");
            let (
                SynthesisError::Infeasible {
                    best_achievable_latency_ms: a,
                },
                SynthesisError::Infeasible {
                    best_achievable_latency_ms: b,
                },
            ) = (&pruned, &oracle);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn parallel_frontier_matches_serial() {
        let base = DesignSpec::zc706_power_optimal(20.0);
        let serial = pareto_frontier_with(&base, (2.2, 8.0), 10, &Pool::with_threads(1));
        let par = pareto_frontier_with(&base, (2.2, 8.0), 10, &Pool::with_threads(8));
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.design.config, b.design.config);
            assert_eq!(a.design.latency_ms.to_bits(), b.design.latency_ms.to_bits());
            assert_eq!(a.design.power_w.to_bits(), b.design.power_w.to_bits());
            assert_eq!(
                a.latency_constraint_ms.to_bits(),
                b.latency_constraint_ms.to_bits()
            );
        }
    }

    #[test]
    fn perturbation_validates_frontier() {
        let base = DesignSpec::zc706_power_optimal(20.0);
        let frontier = pareto_frontier(&base, (2.2, 8.0), 8);
        let (points, violations) = validate_by_perturbation(&base, &frontier);
        assert!(!points.is_empty());
        assert_eq!(
            violations, 0,
            "no perturbed design may dominate the frontier"
        );
    }
}
