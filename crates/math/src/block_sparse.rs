//! Block-sparse normal equations for the sliding-window solver.
//!
//! The window's normal equations are never dense (paper Fig. 3b): `U` is
//! diagonal (one inverse depth per landmark), and each landmark's `W` column
//! intersects only the few keyframes that observe it, in 6-high blocks (the
//! pose-tangent slots of each 15-dim keyframe state). A dense D-type
//! Schur solve pays three O(n²)–O(n³) round-trips per solve that this
//! structure avoids: partitioning copies every block, `W·U⁻¹·Wᵀ` runs through
//! a dense product against a materialized transpose, and each retry of the LM
//! damping loop re-clones the whole matrix.
//!
//! [`BlockSparseSystem`] stores exactly that structure — `U` as a diagonal
//! vector, `W` as per-landmark block lists (block-CSR with blocks
//! [`W_BLOCK_ROWS`] high starting on multiples of [`W_BLOCK_PITCH`]), `V`
//! dense — and solves by Schur elimination directly on it, skipping the
//! dense assembly entirely. The
//! upper-right block `X = Wᵀ` is implied by symmetry and never stored, the
//! storage saving the paper notes for the diagonal-`U` blocking.
//!
//! # Bit-identity contract
//!
//! [`BlockSparseSystem::solve_into`] returns the *bit-identical* increment to
//! the dense D-type Schur solve of the system's dense image
//! ([`BlockSparseSystem::to_dense_into`]) written with [`Matrix`] operations:
//! partition `[U Wᵀ; W V]`, invert `U`'s diagonal entrywise, form
//! `(W·U⁻¹)·Wᵀ` with [`Matrix::try_mul`], factor `V − W·U⁻¹·Wᵀ` with
//! [`Cholesky`], solve against `by − W·(U⁻¹·bx)` ([`Matrix::mat_vec`]) and
//! back-substitute `U⁻¹·(bx − Wᵀ·δpy)` ([`Matrix::transpose_mat_vec`]). The
//! `kernel_equivalence` test suite keeps that dense solve as its oracle.
//! This holds because every floating-point operation of the dense path is
//! replayed with the same operands in the same order, except for additions
//! of structural zeros — and those are exact no-ops: assembled entries are
//! accumulated sums of nonzero terms, which under round-to-nearest can
//! produce `+0.0` but never `-0.0`, so an accumulator never sits at `-0.0`
//! where adding `+0.0` would flip its sign. The per-entry accumulation order
//! matches because the block lists are kept sorted by row and iterated in
//! ascending landmark order, exactly the `i-k-j` order of the dense
//! `try_mul` kernel.
//!
//! # Upper triangle only
//!
//! The Cholesky reads `V − W·U⁻¹·Wᵀ` at column ≥ row only
//! ([`Cholesky::refactor_diff`]), so `V` is written, zeroed and cast, and
//! `W·U⁻¹·Wᵀ` formed, at column ≥ row only (the product also in the lower
//! halves of its 6 × 6 diagonal blocks). `V`'s strict lower triangle holds
//! stale values; [`BlockSparseSystem::to_dense_into`] mirrors the upper one.
//!
//! [`BlockSparseSystem::load_dense`] is the inverse of `to_dense_into`: it
//! lays a dense `(A, b)` of the window's shape out in this same layout,
//! storing a block wherever the dense `W` has a nonzero entry, so a solver
//! handed a dense matrix runs the same fixed-width kernels. The only blocks
//! it does not rebuild are all-`+0.0` ones, and dropping those is a no-op by
//! the structural-zero argument above: their rows scale to zero and are
//! skipped, and their `±0` products land on accumulators that start at
//! `+0.0`.
//!
//! # Damping without clones
//!
//! [`BlockSparseSystem::damp`] applies the Marquardt diagonal scaling
//! `A + λ·diag(A)` in place: the first call after an assembly snapshots the
//! undamped diagonal, and every call (including re-damps at a higher λ after
//! a rejected step) rewrites the diagonal from that snapshot. No full-matrix
//! copy is ever taken.

use crate::cholesky::Cholesky;
use crate::error::{MathError, Result};
use crate::fixed;
use crate::kernels;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::vector::Vector;
use archytas_par::counters::{self, Phase};

/// Height of every `W` block: the pose-tangent slots (rotation and
/// translation) of a keyframe state, the only pose rows a visual factor's
/// landmark column touches.
pub const W_BLOCK_ROWS: usize = 6;

/// Row pitch of the `W` blocks: the 15-dim keyframe state, so keyframe `k`'s
/// block starts at pose row `15·k`.
pub const W_BLOCK_PITCH: usize = 15;

/// Normal equations `[U Wᵀ; W V]·δp = [bx; by]` in block-sparse form.
///
/// Dimensions: `U` is `p × p` diagonal, `V` is `q × q` dense, `W` is `q × p`
/// with each landmark column holding a sorted list of [`W_BLOCK_ROWS`]-high
/// blocks whose start rows are multiples of [`W_BLOCK_PITCH`].
///
/// Build one with [`BlockSparseSystem::reset`] followed by the `add_*`
/// scatter methods, then [`BlockSparseSystem::damp`] and
/// [`BlockSparseSystem::solve_into`]. The struct is designed to be allocated
/// once and reused across LM iterations and windows: `reset` and the solve
/// scratch keep every buffer's allocation alive.
#[derive(Debug, Clone)]
pub struct BlockSparseSystem<T: Scalar> {
    p: usize,
    q: usize,
    /// Diagonal of `U` (one entry per landmark).
    u: Vec<T>,
    /// Per-landmark sorted block start rows (within the `q`-dim pose region).
    w_rows: Vec<Vec<u32>>,
    /// Per-landmark block values, 6 contiguous entries per block, in the
    /// same order as `w_rows`.
    w_vals: Vec<Vec<T>>,
    /// Dense keyframe block `V`; only column ≥ row is kept.
    v: Matrix<T>,
    bx: Vec<T>,
    by: Vec<T>,
    /// Undamped diagonals of `U` and `V`, captured by the first [`damp`]
    /// after an assembly; see the module docs.
    ///
    /// [`damp`]: BlockSparseSystem::damp
    saved_u: Vec<T>,
    saved_v: Vec<T>,
    damp_saved: bool,
}

impl<T: Scalar> Default for BlockSparseSystem<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> BlockSparseSystem<T> {
    /// Creates an empty system; call [`BlockSparseSystem::reset`] before use.
    pub fn new() -> Self {
        Self {
            p: 0,
            q: 0,
            u: Vec::new(),
            w_rows: Vec::new(),
            w_vals: Vec::new(),
            v: Matrix::zeros(0, 0),
            bx: Vec::new(),
            by: Vec::new(),
            saved_u: Vec::new(),
            saved_v: Vec::new(),
            damp_saved: false,
        }
    }

    /// Clears the system to an all-zero `p`/`q` shape, reusing allocations.
    ///
    /// # Panics
    ///
    /// Panics when `q` is not a multiple of [`W_BLOCK_PITCH`].
    pub fn reset(&mut self, p: usize, q: usize) {
        assert!(
            q.is_multiple_of(W_BLOCK_PITCH),
            "pose dimension {q} is not a multiple of the keyframe pitch {W_BLOCK_PITCH}"
        );
        self.p = p;
        self.q = q;
        self.u.clear();
        self.u.resize(p, T::ZERO);
        if self.w_rows.len() < p {
            self.w_rows.resize_with(p, Vec::new);
            self.w_vals.resize_with(p, Vec::new);
        }
        for lm in 0..p {
            self.w_rows[lm].clear();
            self.w_vals[lm].clear();
        }
        self.v.reshape(q, q);
        for r in 0..q {
            self.v.row_mut(r)[r..].fill(T::ZERO);
        }
        self.bx.clear();
        self.bx.resize(p, T::ZERO);
        self.by.clear();
        self.by.resize(q, T::ZERO);
        self.damp_saved = false;
    }

    /// Size of the diagonal (eliminated) block.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Size of the reduced (keyframe) block.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Full system dimension `p + q`.
    pub fn dim(&self) -> usize {
        self.p + self.q
    }

    /// Adds `val` to the diagonal `U` entry of landmark `j`.
    pub fn add_u(&mut self, j: usize, val: T) {
        self.u[j] += val;
    }

    /// Adds `val` to `V[r][c]` (pose-relative; only `c ≥ r` is ever read).
    pub fn add_v(&mut self, r: usize, c: usize, val: T) {
        self.v.add_at(r, c, val);
    }

    /// Adds `scale·vals[t]` to `V[r][c0 + t]` for each nonzero `vals[t]` (`c0 ≥ r`).
    ///
    /// Run form of [`BlockSparseSystem::add_v`]: one contiguous row write per
    /// call instead of a bounds-checked scatter per element. Skipping the
    /// zero entries matches the assembler's zero-Jacobian guard and cannot
    /// change stored bits besides: accumulated entries are sums of nonzero
    /// terms, hence never `-0.0`, and adding `±0.0` to anything that is not
    /// `-0.0` leaves its bit pattern alone.
    pub fn add_v_row(&mut self, r: usize, c0: usize, vals: &[T], scale: T) {
        debug_assert!(c0 >= r, "V run ({r}, {c0}) starts below the diagonal");
        kernels::add_scaled_skip(&mut self.v.row_mut(r)[c0..c0 + vals.len()], vals, scale);
    }

    /// Fused many-row form of [`BlockSparseSystem::add_v_row`]: applies every
    /// `(vals, scale)` source, in slice order, at the same `(r, c0)` run in
    /// one traversal — bit-identical to the equivalent sequence of
    /// `add_v_row` calls (see [`kernels::add_scaled_skip_rows`]).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the sources do not all share `len`.
    pub fn add_v_row_fused(&mut self, r: usize, c0: usize, len: usize, rows: &[(&[T], T)]) {
        debug_assert!(c0 >= r, "V run ({r}, {c0}) starts below the diagonal");
        debug_assert!(rows.iter().all(|(v, _)| v.len() >= len));
        kernels::add_scaled_skip_rows(&mut self.v.row_mut(r)[c0..c0 + len], rows);
    }

    /// Adds `val` to `W[r][lm]` (`r` relative to the pose region), creating
    /// the enclosing block on first touch.
    ///
    /// # Panics
    ///
    /// Panics when `r` falls outside the leading [`W_BLOCK_ROWS`] rows of its
    /// keyframe slot.
    pub fn add_w(&mut self, lm: usize, r: usize, val: T) {
        let local = r % W_BLOCK_PITCH;
        assert!(
            local < W_BLOCK_ROWS,
            "w row {r} falls outside the {W_BLOCK_ROWS}-high block of its slot"
        );
        let pos = self.w_block_pos(lm, r - local);
        self.w_vals[lm][pos * W_BLOCK_ROWS + local] += val;
    }

    /// Fused whole-observation scatter of one visual factor in the SLAM
    /// layout: landmark `lm`'s rank-2 contribution through its two residual
    /// rows, touching the `U` diagonal, `bx`, two 6-high `W` runs (pose rows
    /// `rf` and `rs`, `rf < rs`), `by`, and the upper-triangle `V` blocks.
    ///
    /// `jr` holds the two rows' inverse-depth Jacobians, `f`/`s` their
    /// 6-wide pose-tangent runs, `e` the residuals and `w2` the shared
    /// squared weight. Bit-identical to the per-source-column scatter
    /// through the single-entry writers ([`BlockSparseSystem::add_u`],
    /// [`BlockSparseSystem::add_w`], [`BlockSparseSystem::add_v_row`]):
    /// every destination cell receives the same guarded multiply-adds in the
    /// same row-0-then-row-1 order, including the single-row fallbacks where
    /// one residual row's Jacobian is zero at a source column. What changes
    /// is only the plumbing — each `W` block and `V` row is resolved once
    /// instead of once per write, and every run goes straight to the
    /// unrolled kernels.
    #[allow(clippy::too_many_arguments)]
    pub fn add_visual_obs6(
        &mut self,
        lm: usize,
        rf: usize,
        rs: usize,
        jr: [T; 2],
        f: [&[T; 6]; 2],
        s: [&[T; 6]; 2],
        e: [T; 2],
        w2: T,
    ) {
        debug_assert!(rf < rs, "pose runs must arrive in ascending order");
        // Source column 1: the inverse depth. Primaries land on U and bx;
        // the mirrors of the pose cross terms are the W runs' only storage.
        let (v0, v1) = (jr[0], jr[1]);
        if v0 != T::ZERO || v1 != T::ZERO {
            let wv0 = w2 * v0;
            let wv1 = w2 * v1;
            if v0 != T::ZERO {
                self.bx[lm] -= wv0 * e[0];
            }
            if v1 != T::ZERO {
                self.bx[lm] -= wv1 * e[1];
            }
            // Pose runs start at keyframe offsets, i.e. block starts — no
            // round-down needed. `rs > rf` keeps the first position valid
            // across a second-block insert.
            debug_assert_eq!(rf % W_BLOCK_PITCH, 0);
            debug_assert_eq!(rs % W_BLOCK_PITCH, 0);
            let pf = 6 * self.w_block_pos(lm, rf);
            let ps = 6 * self.w_block_pos(lm, rs);
            let wv = &mut self.w_vals[lm];
            if v0 != T::ZERO && v1 != T::ZERO {
                self.u[lm] += wv0 * v0;
                self.u[lm] += wv1 * v1;
                fixed::Vec::<T, 6>::from_mut_slice(&mut wv[pf..]).axpy_skip2(
                    fixed::Vec::from_slice(f[0]),
                    wv0,
                    fixed::Vec::from_slice(f[1]),
                    wv1,
                );
                fixed::Vec::<T, 6>::from_mut_slice(&mut wv[ps..]).axpy_skip2(
                    fixed::Vec::from_slice(s[0]),
                    wv0,
                    fixed::Vec::from_slice(s[1]),
                    wv1,
                );
            } else if v0 != T::ZERO {
                self.u[lm] += wv0 * v0;
                fixed::Vec::<T, 6>::from_mut_slice(&mut wv[pf..])
                    .axpy_skip(fixed::Vec::from_slice(f[0]), wv0);
                fixed::Vec::<T, 6>::from_mut_slice(&mut wv[ps..])
                    .axpy_skip(fixed::Vec::from_slice(s[0]), wv0);
            } else {
                self.u[lm] += wv1 * v1;
                fixed::Vec::<T, 6>::from_mut_slice(&mut wv[pf..])
                    .axpy_skip(fixed::Vec::from_slice(f[1]), wv1);
                fixed::Vec::<T, 6>::from_mut_slice(&mut wv[ps..])
                    .axpy_skip(fixed::Vec::from_slice(s[1]), wv1);
            }
        }
        // Source columns in the pose runs. Each column's diagonal-block tail
        // has a compile-time length (`6 - TI`), so the per-column bodies are
        // expanded by macro with every kernel call fully unrolled — the
        // guarded multiply-add sequence per cell is exactly the generic
        // loop's (the unrolled and the runtime-length forms are bitwise
        // interchangeable, see the `kernel_equivalence` suite).
        let q = self.q;
        let by = &mut self.by[..q];
        let vdat = self.v.as_mut_slice();
        // First run: upper diagonal-block tail plus the full 6-wide cross
        // block against the second run. `$cross: true` emits the cross part.
        macro_rules! pose_col {
            ($j0:expr, $j1:expr, $r0:expr, $cross:expr, $ti:literal) => {{
                const TI: usize = $ti;
                let (v0, v1) = ($j0[TI], $j1[TI]);
                if v0 != T::ZERO || v1 != T::ZERO {
                    let ri = $r0 + TI;
                    let wv0 = w2 * v0;
                    let wv1 = w2 * v1;
                    if v0 != T::ZERO {
                        by[ri] -= wv0 * e[0];
                    }
                    if v1 != T::ZERO {
                        by[ri] -= wv1 * e[1];
                    }
                    let row = &mut vdat[ri * q..(ri + 1) * q];
                    let tail0: &[T; 6 - TI] = (&$j0[TI..]).try_into().unwrap();
                    let tail1: &[T; 6 - TI] = (&$j1[TI..]).try_into().unwrap();
                    let dtail = fixed::Vec::<T, { 6 - TI }>::from_mut_slice(&mut row[ri..]);
                    if v0 != T::ZERO && v1 != T::ZERO {
                        dtail.axpy_skip2(
                            fixed::Vec::from_slice(tail0),
                            wv0,
                            fixed::Vec::from_slice(tail1),
                            wv1,
                        );
                        if $cross {
                            fixed::Vec::<T, 6>::from_mut_slice(&mut row[rs..]).axpy_skip2(
                                fixed::Vec::from_slice(s[0]),
                                wv0,
                                fixed::Vec::from_slice(s[1]),
                                wv1,
                            );
                        }
                    } else if v0 != T::ZERO {
                        dtail.axpy_skip(fixed::Vec::from_slice(tail0), wv0);
                        if $cross {
                            fixed::Vec::<T, 6>::from_mut_slice(&mut row[rs..])
                                .axpy_skip(fixed::Vec::from_slice(s[0]), wv0);
                        }
                    } else {
                        dtail.axpy_skip(fixed::Vec::from_slice(tail1), wv1);
                        if $cross {
                            fixed::Vec::<T, 6>::from_mut_slice(&mut row[rs..])
                                .axpy_skip(fixed::Vec::from_slice(s[1]), wv1);
                        }
                    }
                }
            }};
            ($j0:expr, $j1:expr, $r0:expr, $cross:expr) => {
                pose_col!($j0, $j1, $r0, $cross, 0);
                pose_col!($j0, $j1, $r0, $cross, 1);
                pose_col!($j0, $j1, $r0, $cross, 2);
                pose_col!($j0, $j1, $r0, $cross, 3);
                pose_col!($j0, $j1, $r0, $cross, 4);
                pose_col!($j0, $j1, $r0, $cross, 5);
            };
        }
        pose_col!(f[0], f[1], rf, true);
        // Second run: only its diagonal-block tail remains.
        pose_col!(s[0], s[1], rs, false);
    }

    /// Subtracts `val` from the landmark right-hand side `bx[j]` (the scatter
    /// convention of Gauss–Newton assembly: `b -= Jᵀ·W·e`).
    pub fn sub_bx(&mut self, j: usize, val: T) {
        self.bx[j] -= val;
    }

    /// Subtracts `val` from the pose right-hand side `by[r]`.
    pub fn sub_by(&mut self, r: usize, val: T) {
        self.by[r] -= val;
    }

    /// Index of the block starting at pose row `b0` in landmark `lm`'s block
    /// list, inserting a zeroed block on first touch.
    fn w_block_pos(&mut self, lm: usize, b0: usize) -> usize {
        let rows = &mut self.w_rows[lm];
        match rows.binary_search(&(b0 as u32)) {
            Ok(pos) => pos,
            Err(pos) => {
                rows.insert(pos, b0 as u32);
                let at = pos * W_BLOCK_ROWS;
                self.w_vals[lm].splice(at..at, [T::ZERO; W_BLOCK_ROWS]);
                pos
            }
        }
    }

    /// Applies Marquardt damping `A + λ·diag(A)` (with `floor` as the minimum
    /// diagonal magnitude) in place.
    ///
    /// The first call after [`BlockSparseSystem::reset`] snapshots the
    /// undamped diagonal; every call rewrites the diagonal from that
    /// snapshot, so re-damping at a different λ needs no undo in between.
    /// Matches the dense reference `a[i][i] + λ·max(a[i][i], floor)`
    /// bit-for-bit.
    pub fn damp(&mut self, lambda: T, floor: T) {
        if !self.damp_saved {
            self.saved_u.clone_from(&self.u);
            self.saved_v.clear();
            self.saved_v.extend((0..self.q).map(|i| self.v.get(i, i)));
            self.damp_saved = true;
        }
        for (u, &s) in self.u.iter_mut().zip(&self.saved_u) {
            let d = if s > floor { s } else { floor };
            *u = s + lambda * d;
        }
        for (i, &s) in self.saved_v.iter().enumerate() {
            let d = if s > floor { s } else { floor };
            self.v.set(i, i, s + lambda * d);
        }
    }

    /// Solves the system by D-type Schur elimination into `out`
    /// (`δp = [δpx; δpy]`), using `scratch` for every intermediate buffer.
    ///
    /// Bit-identical to the dense D-type Schur solve of this system's dense
    /// image (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::SingularDiagonal`] when a `U` entry is zero or
    /// not finite, and [`MathError::NotPositiveDefinite`] when the reduced
    /// system fails to factor (the LM loop responds by raising λ).
    pub fn solve_into(&self, scratch: &mut SchurScratch<T>, out: &mut Vector<T>) -> Result<()> {
        let (p, q) = (self.p, self.q);
        counters::time(Phase::SchurProduct, || self.schur_reduce(scratch))?;
        // The reduced system S = V − prod is factored straight from its two
        // operands — never materialized — with the identical per-element
        // subtraction the explicit Schur matrix would have stored.
        counters::time(Phase::Factorization, || {
            scratch.chol.refactor_diff(&self.v, &scratch.prod)
        })?;
        counters::time(Phase::BackSubstitution, || {
            let SchurScratch {
                chol,
                rhs,
                ytmp,
                dy,
                uinv,
                ..
            } = scratch;
            chol.solve_into(rhs, ytmp, dy);
            let dy = &*dy;
            // Back-substitute: U·δpx = bx − Wᵀ·δpy, then concatenate.
            out.resize_fill(p + q, T::ZERO);
            let o = out.as_mut_slice();
            let dy_s = dy.as_slice();
            for lm in 0..p {
                let mut acc = T::ZERO;
                let vals = &self.w_vals[lm];
                for (bi, &r0) in self.w_rows[lm].iter().enumerate() {
                    // Unrolled branchless fold: transpose_mat_vec's serial
                    // accumulation order and zero-row skip.
                    acc = fixed::Vec::<T, W_BLOCK_ROWS>::from_slice(&vals[bi * W_BLOCK_ROWS..])
                        .dot_skip_fold(fixed::Vec::from_slice(&dy_s[r0 as usize..]), acc);
                }
                o[lm] = uinv[lm] * (self.bx[lm] - acc);
            }
            o[p..].copy_from_slice(dy.as_slice());
        });
        Ok(())
    }

    /// The Schur-reduction half of [`BlockSparseSystem::solve_into`]: fills
    /// `scratch` with `U⁻¹`, the upper triangle of the elimination product
    /// `W·U⁻¹·Wᵀ` and the reduced right-hand side. The reduced system
    /// `S = V − W·U⁻¹·Wᵀ` itself is never materialized — the factorization
    /// seeds its work buffer with the difference directly
    /// ([`Cholesky::refactor_diff`]).
    ///
    /// The elimination sweeps landmark-major: for each landmark, one rank-1
    /// update of the block pattern through the unrolled 6-high SYRK kernel
    /// ([`fixed::syrk_scatter`]). Per output cell, contributions arrive in
    /// ascending landmark order — the dense kernel's `i-k-j` order
    /// restricted to the nonzero pattern — one multiply-add per landmark,
    /// with identical operands (the `(w·u⁻¹)`-first row scale, zero rows
    /// skipped like `try_mul`'s zero-multiplicand test), so the result
    /// matches the dense path bit for bit.
    ///
    /// Only cells with column ≥ row are computed, because `refactor_diff`
    /// reads nothing else; the strict lower triangle of the product stays
    /// zero, unread. Blocks start on multiples of 15 and are 6 high, so a
    /// block pair with `c0 > r0` lies wholly above the diagonal; the kernel
    /// gets the pairs `bj ≥ bi` (`rows` is sorted), and of the diagonal pair
    /// it also writes the strict lower part, which nothing reads.
    fn schur_reduce(&self, scratch: &mut SchurScratch<T>) -> Result<()> {
        let (p, q) = (self.p, self.q);
        // U⁻¹: a zero or non-finite entry is singular.
        scratch.uinv.clear();
        for (i, &d) in self.u[..p].iter().enumerate() {
            if d == T::ZERO || !d.is_finite() {
                return Err(MathError::SingularDiagonal { index: i });
            }
            scratch.uinv.push(T::ONE / d);
        }
        // Reduced RHS scaling: s2 = U⁻¹·bx.
        scratch.s2.clear();
        scratch
            .s2
            .extend(scratch.uinv.iter().zip(&self.bx).map(|(&ui, &b)| ui * b));

        scratch.prod.reset_zeros(q, q);
        scratch.rhs.resize_fill(q, T::ZERO);
        // Landmark-major blocked SYRK: the row scales are computed once per
        // block row, and the kernel takes the block pairs `bj ≥ bi`.
        let prod_s = scratch.prod.as_mut_slice();
        for lm in 0..p {
            let rows = &self.w_rows[lm];
            let vals = &self.w_vals[lm];
            let ui = scratch.uinv[lm];
            for (bi, &r0) in rows.iter().enumerate() {
                let r0 = r0 as usize;
                let s: [T; W_BLOCK_ROWS] =
                    core::array::from_fn(|t| vals[bi * W_BLOCK_ROWS + t] * ui);
                fixed::syrk_scatter::<T, W_BLOCK_ROWS>(
                    &mut prod_s[r0 * q..(r0 + W_BLOCK_ROWS) * q],
                    q,
                    &s,
                    &rows[bi..],
                    &vals[bi * W_BLOCK_ROWS..],
                );
            }
        }
        // Reduced RHS by the same landmark-major sweep: racc[r] gathers its
        // terms in ascending-lm order — the order a row-major `W·s2` adds
        // them into its scalar accumulator — and the single closing
        // subtraction lands on by.
        scratch.racc.clear();
        scratch.racc.resize(q, T::ZERO);
        for lm in 0..p {
            let s2 = scratch.s2[lm];
            let vals = &self.w_vals[lm];
            for (bi, &r0) in self.w_rows[lm].iter().enumerate() {
                // Unrolled, with the sweep's src-first operand order.
                fixed::Vec::<T, W_BLOCK_ROWS>::from_mut_slice(&mut scratch.racc[r0 as usize..])
                    .axpy_src_s(fixed::Vec::from_slice(&vals[bi * W_BLOCK_ROWS..]), s2);
            }
        }
        let rhs = scratch.rhs.as_mut_slice();
        for ((rh, &b), &acc) in rhs.iter_mut().zip(&self.by).zip(&scratch.racc) {
            *rh = b - acc;
        }
        Ok(())
    }

    /// Casts the system elementwise into `out` at another scalar width (the
    /// f64 → f32 hand-off to the accelerator datapath), reusing `out`'s
    /// buffers: allocation-free once `out` has held a system this large.
    ///
    /// The current diagonal is copied as is, damping included; `out` starts
    /// undamped, and only `V`'s upper triangle is cast. Casting is elementwise,
    /// so the dense image of `out` is the cast of this system's dense image
    /// and [`BlockSparseSystem::solve_into`] on `out` replays the dense solve
    /// of that cast bit for bit.
    pub fn cast_into<U: Scalar>(&self, out: &mut BlockSparseSystem<U>) {
        let cast = |v: &T| U::from_f64(v.to_f64());
        let p = self.p;
        out.p = p;
        out.q = self.q;
        out.u.clear();
        out.u.extend(self.u[..p].iter().map(cast));
        if out.w_rows.len() < p {
            out.w_rows.resize_with(p, Vec::new);
            out.w_vals.resize_with(p, Vec::new);
        }
        for lm in 0..p {
            out.w_rows[lm].clone_from(&self.w_rows[lm]);
            out.w_vals[lm].clear();
            out.w_vals[lm].extend(self.w_vals[lm].iter().map(cast));
        }
        out.v.reshape(self.q, self.q);
        for r in 0..self.q {
            for (o, v) in out.v.row_mut(r)[r..].iter_mut().zip(&self.v.row(r)[r..]) {
                *o = cast(v);
            }
        }
        out.bx.clear();
        out.bx.extend(self.bx.iter().map(cast));
        out.by.clear();
        out.by.extend(self.by.iter().map(cast));
        out.damp_saved = false;
    }

    /// Writes the dense `(A, b)` this system represents (symmetric, with
    /// `X = Wᵀ` filled in and `V`'s upper triangle mirrored) into `a` and
    /// `b`, reshaping them and reusing their allocations. The LM loop's dense
    /// callback path and the equivalence tests read it;
    /// [`BlockSparseSystem::load_dense`] reads it back.
    pub fn to_dense_into(&self, a: &mut Matrix<T>, b: &mut Vector<T>) {
        let (p, n) = (self.p, self.p + self.q);
        a.reset_zeros(n, n);
        b.resize_fill(n, T::ZERO);
        for j in 0..p {
            a.set(j, j, self.u[j]);
            b[j] = self.bx[j];
        }
        for lm in 0..p {
            for (bi, &r0) in self.w_rows[lm].iter().enumerate() {
                for t in 0..W_BLOCK_ROWS {
                    let val = self.w_vals[lm][bi * W_BLOCK_ROWS + t];
                    let r = p + r0 as usize + t;
                    a.set(r, lm, val);
                    a.set(lm, r, val);
                }
            }
        }
        for r in 0..self.q {
            let vr = &self.v.row(r)[r..];
            a.row_mut(p + r)[p + r..].copy_from_slice(vr);
            for (c, &val) in vr.iter().enumerate().skip(1) {
                a.set(p + r + c, p + r, val);
            }
            b[p + r] = self.by[r];
        }
    }

    /// Loads a dense `(a, b)` with a `p × p` diagonal leading block, casting
    /// each entry to `T`: the inverse of [`BlockSparseSystem::to_dense_into`].
    ///
    /// The `q = n − p` pose rows are read as keyframe slots of
    /// [`W_BLOCK_PITCH`] rows. For each landmark and slot, a `W` block is
    /// stored when any of the slot's first [`W_BLOCK_ROWS`] rows is nonzero.
    /// Every entry is assigned rather than accumulated, so each stored value
    /// is exactly the cast of its dense entry, signed zeros included. Only
    /// the diagonal of the leading block and the lower-left `W` are read; the
    /// upper-right block is taken to be `Wᵀ`. [`BlockSparseSystem::solve_into`]
    /// then replays the dense D-type Schur solve of the cast `(a, b)` bit for
    /// bit. Every buffer's allocation is reused, as by
    /// [`BlockSparseSystem::reset`].
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] (`a`'s shape against
    /// `(b.len(), p)`) when `a` is not square, when `b.len()` differs from its
    /// dimension `n`, when `p > n`, or when the image does not fit the
    /// layout: `q` is not a multiple of [`W_BLOCK_PITCH`], or a `W` entry in
    /// rows 6..15 of a slot is nonzero. After that last error the system
    /// holds a partial load.
    pub fn load_dense<U: Scalar>(&mut self, a: &Matrix<U>, b: &Vector<U>, p: usize) -> Result<()> {
        let n = a.rows();
        let mismatch = MathError::DimensionMismatch {
            op: "load_dense",
            lhs: a.shape(),
            rhs: (b.len(), p),
        };
        if !a.is_square() || b.len() != n || p > n || !(n - p).is_multiple_of(W_BLOCK_PITCH) {
            return Err(mismatch);
        }
        let q = n - p;
        self.reset(p, q);
        let cast = |v: U| T::from_f64(v.to_f64());
        for j in 0..p {
            self.u[j] = cast(a.get(j, j));
            self.bx[j] = cast(b[j]);
            for r0 in (p..n).step_by(W_BLOCK_PITCH) {
                let slot = |t: usize| a.get(r0 + t, j);
                if (W_BLOCK_ROWS..W_BLOCK_PITCH).any(|t| slot(t) != U::ZERO) {
                    return Err(mismatch);
                }
                if (0..W_BLOCK_ROWS).any(|t| slot(t) != U::ZERO) {
                    self.w_rows[j].push((r0 - p) as u32);
                    self.w_vals[j].extend((0..W_BLOCK_ROWS).map(|t| cast(slot(t))));
                }
            }
        }
        for r in 0..q {
            for (dst, &v) in self.v.row_mut(r).iter_mut().zip(&a.row(p + r)[p..]) {
                *dst = cast(v);
            }
            self.by[r] = cast(b[p + r]);
        }
        Ok(())
    }
}

/// Reusable intermediate buffers for [`BlockSparseSystem::solve_into`].
///
/// Allocate once (`SchurScratch::default()`), reuse for every solve — across
/// damping retries, LM iterations and windows. All buffers grow to the
/// largest window seen and stay allocated.
#[derive(Debug, Clone)]
pub struct SchurScratch<T: Scalar> {
    uinv: Vec<T>,
    s2: Vec<T>,
    /// RHS gather buffer of the landmark-major elimination.
    racc: Vec<T>,
    /// `W·U⁻¹·Wᵀ`, upper triangle only (plus the lower halves of the
    /// diagonal blocks): the factorization reads nothing else.
    prod: Matrix<T>,
    rhs: Vector<T>,
    chol: Cholesky<T>,
    /// Forward-substitution intermediate and pose solution of the reduced
    /// system — reused so the triangular solves never allocate.
    ytmp: Vector<T>,
    dy: Vector<T>,
}

impl<T: Scalar> Default for SchurScratch<T> {
    fn default() -> Self {
        Self {
            uinv: Vec::new(),
            s2: Vec::new(),
            racc: Vec::new(),
            prod: Matrix::zeros(0, 0),
            rhs: Vector::zeros(0),
            chol: Cholesky::default(),
            ytmp: Vector::zeros(0),
            dy: Vector::zeros(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Sys = BlockSparseSystem<f64>;

    fn dense<T: Scalar>(s: &BlockSparseSystem<T>) -> (Matrix<T>, Vector<T>) {
        let (mut a, mut b) = (Matrix::zeros(0, 0), Vector::zeros(0));
        s.to_dense_into(&mut a, &mut b);
        (a, b)
    }

    /// A well-conditioned system: 3 landmarks, 2 keyframe slots.
    fn build() -> Sys {
        let (p, q) = (3, 2 * W_BLOCK_PITCH);
        let mut s = Sys::new();
        s.reset(p, q);
        for j in 0..p {
            s.add_u(j, 5.0 + j as f64);
            s.sub_bx(j, -(0.3 + 0.1 * j as f64));
        }
        for r in 0..q {
            s.add_v(r, r, 10.0 + r as f64 * 0.5);
            s.sub_by(r, -(r as f64 * 0.7 - 2.0));
            for c in (r + 1)..q {
                s.add_v(r, c, 0.3 / (1.0 + (r as f64 - c as f64).abs()));
            }
        }
        // Landmark 0 seen by both keyframe blocks, 1 only by the first,
        // 2 only by the second; insert out of order to exercise sorting.
        for t in 0..W_BLOCK_ROWS {
            s.add_w(0, 15 + t, 0.2 * t as f64 - 0.3);
            s.add_w(0, t, 0.1 * t as f64 + 0.05);
            s.add_w(1, t, -0.15 + 0.07 * t as f64);
            s.add_w(2, 15 + t, 0.12 - 0.04 * t as f64);
        }
        s
    }

    #[test]
    fn damp_matches_dense_damping() {
        let mut s = build();
        let (a0, _) = dense(&s);
        s.damp(1e-3, 1e-9);
        s.damp(10.0, 1e-9); // re-damp at a higher λ, no undo in between
        let (ad, _) = dense(&s);
        for i in 0..s.dim() {
            let d = a0.get(i, i);
            assert_eq!(ad.get(i, i), d + 10.0 * d.max(1e-9), "diag {i}");
        }
        // Off-diagonals untouched.
        for i in 0..s.dim() {
            for j in 0..s.dim() {
                if i != j {
                    assert_eq!(ad.get(i, j), a0.get(i, j));
                }
            }
        }
    }

    #[test]
    fn empty_landmark_block_degenerates_to_dense_cholesky() {
        let mut s = Sys::new();
        s.reset(0, W_BLOCK_PITCH);
        for r in 0..W_BLOCK_PITCH {
            s.add_v(r, r, 6.0 + r as f64);
            s.sub_by(r, -(1.0 + r as f64));
        }
        s.add_v(0, 1, 0.5);
        let (a, b) = dense(&s);
        let reference = Cholesky::factor(&a).unwrap().solve(&b);
        let mut scratch = SchurScratch::default();
        let mut out = Vector::zeros(0);
        s.solve_into(&mut scratch, &mut out).unwrap();
        assert_eq!(out.as_slice(), reference.as_slice());
    }

    #[test]
    fn singular_u_is_reported_with_index() {
        let mut s = build();
        s.reset(2, W_BLOCK_PITCH);
        s.add_u(0, 3.0); // landmark 1 left at zero
        assert!(matches!(
            s.solve_into(&mut SchurScratch::default(), &mut Vector::zeros(0)),
            Err(MathError::SingularDiagonal { index: 1 })
        ));
    }

    #[test]
    #[should_panic(expected = "falls outside")]
    fn out_of_block_row_is_rejected() {
        let mut s = Sys::new();
        s.reset(1, 2 * W_BLOCK_PITCH);
        s.add_w(0, 15 + 9, 1.0); // rows 6..15 of a slot hold no W block
    }
}
