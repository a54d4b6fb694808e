//! Least-squares abundance estimation (linear spectral unmixing).
//!
//! Given an endmember matrix `U` (`t × N`, one spectral signature per row)
//! and a pixel `x` (length `N`), linear unmixing estimates abundances `a`
//! (length `t`) with `x ≈ Uᵀ a`. Two estimators are provided, the
//! constrained end of the ladder used in the hyperspectral literature
//! (Heinz & Chang 2001) and by the paper's UFCLS algorithm:
//!
//! * [`nnls`] — non-negativity constrained (Lawson–Hanson active set),
//! * [`fcls`] — fully constrained (both), via the Heinz–Chang augmented
//!   system solved with NNLS.
//!
//! All solvers work on the *Gram side*: `UUᵀ` (`t × t`) and `U x`
//! (`t`-vector) are formed once, so per-pixel cost after the `O(tN)`
//! products is independent of `N` — crucial when unmixing a million pixels.
//!
//! Both estimators share **one** active-set body, which works entirely inside a caller-owned [`FclsWorkspace`]:
//! a per-pixel loop that keeps one workspace ([`FclsProblem::solve_in`])
//! allocates nothing. The one-shot functions build a workspace per call.
//!
//! That body is **resumable from its own history**. It records a *trail*
//! — the state at the top of every entering scan and the candidate that
//! won it — and, handed the trail the same pixel left against a shorter
//! problem over the same leading endmembers ([`NnlsTrails`], kept by the
//! caller per image line), asks only whether an endmember added since
//! would have won a scan: if none would, the path and the score are the
//! recorded ones; else it picks the iteration up at the first scan one
//! wins. A solve with no trail is the replay of an empty one. The
//! iteration is a deterministic function of the Gram matrix and the
//! correlation vector, whose leading entries do not change as the set
//! grows, so either way the result is the from-empty solve's to the bit.
//!
//! The two 224-band reductions around the iteration — the endmember dots
//! before it and `‖x − Uᵀa‖²` after it — are single accumulator chains,
//! so a caller with a whole image line ([`FclsProblem::solve_f32_line`])
//! gets them formed several pixels abreast
//! ([`crate::matrix::dots_abreast`]): same sums, same bits, not waited
//! for one at a time.

use crate::cholesky;
use crate::error::shape_mismatch;
use crate::lu::LuDecomposition;
use crate::matrix::{axpy, dot, dots_abreast};
use crate::{LinAlgError, Matrix, Result};

/// Weight of the sum-to-one row in the Heinz–Chang FCLS augmentation.
/// Larger values enforce the constraint more strictly at some cost in
/// conditioning; `1e3` relative to unit-scaled reflectances is the
/// customary compromise.
pub const FCLS_DELTA: f64 = 1.0e3;

/// Budget of passive-set solves for one NNLS call (far above what `t ≤ 32`
/// endmembers can need — a dozen is typical; a backstop, not a control).
const NNLS_MAX_ITER: usize = 512;

/// A gradient component counts as a violated constraint only when it
/// exceeds this multiple of the magnitude of the terms it was summed from
/// (the rounding bound of a 16-term sum) …
const KKT_ROUNDING: f64 = 8.0 * f64::EPSILON;
/// … and this absolute floor.
const KKT_FLOOR: f64 = 1e-12;

/// Result of an unmixing call: abundances plus the squared residual
/// `‖x − Uᵀa‖²`, which is the per-pixel "error image" score UFCLS ranks by.
#[derive(Debug, Clone, PartialEq)]
pub struct Unmixing {
    /// Estimated abundance of each endmember (row of `U`).
    pub abundances: Vec<f64>,
    /// Squared reconstruction error `‖x − Uᵀa‖²`.
    pub residual_sq: f64,
}

fn check_dims(u: &Matrix, x: &[f64]) -> Result<()> {
    u.require_non_empty()?;
    if x.len() != u.cols() {
        return Err(shape_mismatch(
            format!("pixel of length {}", u.cols()),
            format!("length {}", x.len()),
        ));
    }
    Ok(())
}

/// How many pixels of a line the reductions around NNLS run abreast.
const ABREAST: usize = 4;

/// `‖xₖ − Uᵀaₖ‖²` for `L` pixels (`f32` or `f64`), with `resid` as the
/// buffer for the residual vectors: each is accumulated endmember by
/// endmember without building `Uᵀ` ([`subtract_mixture`]), then the `L`
/// squared norms are summed abreast.
fn residuals_sq<T: Copy + Into<f64>, const L: usize>(
    u: &Matrix,
    xs: [&[T]; L],
    a: [&[f64]; L],
    resid: &mut Vec<f64>,
) -> [f64; L] {
    let n = u.cols();
    resid.clear();
    resid.resize(L * n, 0.0);
    for ((r, x), a) in resid.chunks_exact_mut(n).zip(xs).zip(a) {
        for (ri, &xi) in r.iter_mut().zip(x) {
            *ri = xi.into();
        }
        subtract_mixture(u, a, r);
    }
    let r: [&[f64]; L] = std::array::from_fn(|k| &resid[k * n..(k + 1) * n]);
    dots_abreast(r, r)
}

/// `r −= Uᵀa`: to every element of `r` the terms `−aᵢ·uᵢ` of the non-zero
/// abundances are added in endmember order — one [`axpy`] per endmember,
/// element for element — but four endmembers to a pass over `r`.
fn subtract_mixture(u: &Matrix, a: &[f64], r: &mut [f64]) {
    let mut terms = a
        .iter()
        .enumerate()
        .filter(|&(_, &ai)| ai != 0.0)
        .map(|(i, &ai)| (-ai, u.row(i)))
        .fuse();
    loop {
        match [terms.next(), terms.next(), terms.next(), terms.next()] {
            [Some((c0, u0)), Some((c1, u1)), Some((c2, u2)), Some((c3, u3))] => {
                for ((((ri, p0), p1), p2), p3) in r.iter_mut().zip(u0).zip(u1).zip(u2).zip(u3) {
                    *ri = (((*ri + c0 * p0) + c1 * p1) + c2 * p2) + c3 * p3;
                }
            }
            [Some((c0, u0)), Some((c1, u1)), Some((c2, u2)), None] => {
                for (((ri, p0), p1), p2) in r.iter_mut().zip(u0).zip(u1).zip(u2) {
                    *ri = ((*ri + c0 * p0) + c1 * p1) + c2 * p2;
                }
            }
            [Some((c0, u0)), Some((c1, u1)), None, _] => {
                for ((ri, p0), p1) in r.iter_mut().zip(u0).zip(u1) {
                    *ri = (*ri + c0 * p0) + c1 * p1;
                }
            }
            [Some((c0, u0)), None, ..] => axpy(c0, u0, r),
            [None, ..] => return,
        }
    }
}

/// `w = c_j − Σₚ g_jp·a_p` over `held`, the passive set ascending with its
/// abundances: the gradient of ½‖x − Uᵀa‖² along candidate `j` (`row` is
/// its Gram row), if the constraint is violated — violated beyond what
/// rounding alone can produce: with the sum-to-one row the terms are
/// ~δ² = 10⁶ and cancel to an ulp of that (~10⁻¹⁰) on a pixel that is a
/// vertex of the endmember simplex. The one expression every entering
/// decision is made with, scanned or replayed.
#[inline]
fn violation(row: &[f64], c_j: f64, held: impl Iterator<Item = (usize, f64)>) -> Option<f64> {
    let (mut ga, mut magnitude) = (0.0, c_j.abs());
    for (p, a_p) in held {
        let term = row[p] * a_p;
        ga += term;
        magnitude += term.abs();
    }
    let w = c_j - ga;
    (w > (KKT_ROUNDING * magnitude).max(KKT_FLOOR)).then_some(w)
}

/// The set bits of `mask`, ascending.
fn set_bits(mask: u32) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(mask), |m| Some(m & m.wrapping_sub(1)))
        .take_while(|&m| m != 0)
        .map(|m| m.trailing_zeros() as usize)
}

/// Widest problem whose passive and turned-down sets fit, as masks, in one
/// word beside the count of solves and the winner's index.
const SET_BITS: usize = 24;
/// Bits of that word the count of solves takes; the winner has the rest.
const SOLVES_BITS: usize = 10;
const WINNER_SHIFT: usize = 2 * SET_BITS + SOLVES_BITS;
const _: () = assert!(NNLS_MAX_ITER < 1 << SOLVES_BITS && SET_BITS < 1 << (64 - WINNER_SHIFT));

/// One step of a trail: the iteration's state at the top of an entering
/// scan, and the candidate that won it. Stored as one word — `passive |
/// rejected << 24 | solves << 48 | (winner + 1) << 58`, the sets as masks —
/// then `held`, the abundances on the passive set, ascending. The winner's
/// gradient is not kept: the state gives it back, to the bit, when asked.
#[derive(Clone, Copy)]
struct Step<'a> {
    passive: u32,
    rejected: u32,
    /// Passive-set solves spent before this scan.
    solves: usize,
    /// `None` when no candidate was violated: the KKT exit, a trail's last
    /// step.
    winner: Option<usize>,
    held: &'a [u64],
}

impl<'a> Step<'a> {
    /// The step's word before its scan is decided (no winner yet).
    fn state(passive: &[usize], rejected: &[usize], solves: usize) -> u64 {
        let mask = |set: &[usize]| set.iter().fold(0, |mask, &j| mask | 1u64 << j);
        mask(passive) | mask(rejected) << SET_BITS | (solves as u64) << (2 * SET_BITS)
    }

    /// What to `|=` into that word once `entering` has won the scan.
    fn won_by(entering: usize) -> u64 {
        (entering as u64 + 1) << WINNER_SHIFT
    }

    fn read(words: &'a [u64]) -> Self {
        let field = |at: usize, bits: usize| (words[0] >> at) as usize & ((1 << bits) - 1);
        let passive = field(0, SET_BITS) as u32;
        Step {
            passive,
            rejected: field(SET_BITS, SET_BITS) as u32,
            solves: field(2 * SET_BITS, SOLVES_BITS),
            winner: (words[0] >> WINNER_SHIFT)
                .checked_sub(1)
                .map(|j| j as usize),
            held: &words[1..][..passive.count_ones() as usize],
        }
    }

    fn words(&self) -> usize {
        1 + self.held.len()
    }

    fn held(&self) -> impl Iterator<Item = (usize, f64)> + 'a {
        set_bits(self.passive).zip(self.held.iter().map(|&a| f64::from_bits(a)))
    }
}

/// Caller-owned scratch for the FCLS/NNLS solve: the widened pixel, the
/// endmember dots and the correlation vector formed from them, the
/// abundances (the latest solve's, and one row per pixel whose residual
/// is pending), the passive set, its in-place Cholesky factor, the solve
/// and residual buffers, and the trail being recorded.
///
/// A workspace carries **no state between solves**: what a solve resumes
/// from is its caller's ([`NnlsTrails`], one pixel's own history), never
/// the workspace's, and a resumed solve returns the from-empty solve's
/// bits — so a result is a pure function of the problem and the pixel
/// whichever workspace computed it. Buffers are sized on use: one
/// workspace serves problems of any `t` and `N`.
#[derive(Debug, Clone, Default)]
pub struct FclsWorkspace {
    wide: Vec<f64>,
    dots: Vec<f64>,
    corr: Vec<f64>,
    abundances: Vec<f64>,
    /// Abundances of the pixels whose residuals wait to run abreast, one
    /// row each.
    lanes: Vec<f64>,
    /// Passive (unconstrained) endmember indices, ascending.
    passive: Vec<usize>,
    /// Entering candidates turned down since the abundances last moved.
    rejected: Vec<usize>,
    /// Lower Cholesky factor of the passive sub-Gram, row stride `t`.
    chol: Vec<f64>,
    z: Vec<f64>,
    resid: Vec<f64>,
    /// The steps of the solve in flight.
    trail: Vec<u64>,
    /// The records of the line in flight ([`NnlsTrails`]).
    line_trails: Vec<u64>,
    passive_solves: u64,
}

impl FclsWorkspace {
    /// An empty workspace; its buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Abundances found by the most recent successful solve.
    pub fn abundances(&self) -> &[f64] {
        &self.abundances
    }

    /// Passive-set systems solved in this workspace since it was made:
    /// the unit of work of the active-set iteration, which a replayed
    /// trail spends none of.
    pub fn passive_solves(&self) -> u64 {
        self.passive_solves
    }

    /// Non-negative least squares by the Lawson–Hanson active-set method,
    /// on the Gram matrix `g = UUᵀ` and the correlation vector `U x`
    /// already in `self.corr`; leaves the solution in `self.abundances`
    /// and the steps taken in `self.trail`.
    ///
    /// `prior` is the trail a solve of this pixel left against the first
    /// `depth` endmembers of `g` (empty: none). It is replayed first: at
    /// each recorded scan only the candidates `depth..` are evaluated —
    /// they carry the highest indices, so the ascending scan reaches them
    /// last and its strict `>` gives a tie to the recorded winner. `true`
    /// when none of them wins any scan, the exit included: the whole path
    /// is the recorded one, nothing is solved, and the trail to keep is
    /// `prior` itself. Else the state at the first scan one wins is
    /// restored and the iteration goes on from there; every quantity up to
    /// that point depends on the leading endmembers alone, and a factor
    /// row on the rows above it, so this is the from-empty solve resumed.
    fn nnls(&mut self, g: &Matrix, prior: &[u64], depth: usize) -> Result<bool> {
        let Self {
            corr: c,
            abundances: a,
            passive,
            rejected,
            chol,
            z,
            trail,
            passive_solves,
            ..
        } = self;
        let t = c.len();
        // A problem too wide for the set masks keeps no trail, and every
        // solve starts from the empty passive set.
        let compact = t <= SET_BITS;
        let prior = if compact { prior } else { &[] };

        // The step the replay stops at: the first a newcomer wins, else
        // the last.
        let mut stop = None;
        let mut at = 0;
        while at < prior.len() {
            let step = Step::read(&prior[at..]);
            stop = Some(step);
            // The recorded winner's gradient is formed only for a newcomer
            // that is itself violated — few are.
            let gradient = |j: usize| violation(g.row(j), c[j], step.held());
            let wins = |j| {
                gradient(j)
                    .is_some_and(|w| step.winner.and_then(gradient).is_none_or(|best| w > best))
            };
            if (depth..t).any(wins) {
                break;
            }
            at += step.words();
        }
        a.clear();
        a.resize(t, 0.0);
        passive.clear();
        rejected.clear();
        let mut solves = 0;
        if let Some(step) = stop {
            passive.extend(set_bits(step.passive));
            rejected.extend(set_bits(step.rejected));
            for (p, a_p) in step.held() {
                a[p] = a_p;
            }
            solves = step.solves;
            if at == prior.len() {
                return Ok(true);
            }
        }
        trail.clear();
        trail.extend_from_slice(&prior[..at]);
        z.resize(t, 0.0);
        chol.resize(t * t, 0.0);
        // Leading rows of `chol` that match the current passive set. The
        // set stays sorted, so a change at position `p` invalidates only
        // the rows from `p` on.
        let mut factored = 0;

        loop {
            let step_at = trail.len();
            if compact {
                trail.push(Step::state(passive, rejected, solves));
                trail.extend(passive.iter().map(|&p| a[p].to_bits()));
            }
            // Pick the most violated active constraint; `a` is zero off
            // the passive set, so only those columns are summed.
            let mut best: Option<(usize, f64)> = None;
            for (j, &c_j) in c.iter().enumerate() {
                if rejected.contains(&j) || passive.contains(&j) {
                    continue;
                }
                let held = passive.iter().map(|&p| (p, a[p]));
                if let Some(w) = violation(g.row(j), c_j, held) {
                    if best.is_none_or(|(_, val)| w > val) {
                        best = Some((j, w));
                    }
                }
            }
            let Some((entering, _)) = best else {
                // KKT satisfied: done.
                return Ok(false);
            };
            if compact {
                trail[step_at] |= Step::won_by(entering);
            }
            let pos = passive.partition_point(|&p| p < entering);
            passive.insert(pos, entering);
            factored = factored.min(pos);
            let mut entered_at = Some(pos);

            // Inner loop: solve the unconstrained problem on the passive set;
            // if any passive coefficient goes non-positive, step back to the
            // boundary and shrink the passive set.
            loop {
                if solves == NNLS_MAX_ITER {
                    return Err(LinAlgError::NoConvergence {
                        iterations: NNLS_MAX_ITER,
                    });
                }
                solves += 1;
                *passive_solves += 1;
                let k = passive.len();
                let z = &mut z[..k];
                for (zr, &p) in z.iter_mut().zip(passive.iter()) {
                    *zr = c[p];
                }
                match cholesky::factor_rows(chol, t, factored..k, |r, s| {
                    g[(passive[r], passive[s])]
                }) {
                    Ok(()) => {
                        factored = k;
                        cholesky::solve_in_place(chol, t, z);
                    }
                    // Rank-deficient sub-Gram (duplicated endmembers): fall
                    // back to LU, the one path that allocates; if that is
                    // singular too, propagate the error.
                    Err(row) => {
                        factored = row;
                        let mut sub = Matrix::zeros(k, k);
                        for (r, &pr) in passive.iter().enumerate() {
                            for (s, &ps) in passive.iter().enumerate() {
                                sub[(r, s)] = g[(pr, ps)];
                            }
                        }
                        z.copy_from_slice(&LuDecomposition::new(&sub)?.solve(z)?);
                    }
                }
                // Lawson–Hanson's guard: `w[entering] > 0` promises a positive
                // coefficient, but on a nearly dependent passive set the
                // solve may not deliver one; admitting it would step by
                // α = 0, drop it again and pick it again, forever. Turn it
                // down until the abundances next move.
                if let Some(pos) = entered_at.take() {
                    if z[pos] <= 0.0 {
                        passive.remove(pos);
                        factored = factored.min(pos);
                        rejected.push(entering);
                        break;
                    }
                }
                if z.iter().all(|&v| v > 0.0) {
                    for (&p, &zr) in passive.iter().zip(z.iter()) {
                        a[p] = zr;
                    }
                    rejected.clear();
                    break;
                }
                // Line search toward z, stopping at the first zero crossing.
                let mut alpha = f64::INFINITY;
                for (&p, &zr) in passive.iter().zip(z.iter()) {
                    if zr <= 0.0 {
                        let denom = a[p] - zr;
                        if denom > 0.0 {
                            alpha = alpha.min(a[p] / denom);
                        }
                    }
                }
                if !alpha.is_finite() {
                    alpha = 0.0;
                }
                for (&p, &zr) in passive.iter().zip(z.iter()) {
                    a[p] += alpha * (zr - a[p]);
                }
                if let Some(first) = passive.iter().position(|&p| a[p] <= 1e-14) {
                    factored = factored.min(first);
                }
                passive.retain(|&p| {
                    let keep = a[p] > 1e-14;
                    if !keep {
                        a[p] = 0.0;
                    }
                    keep
                });
            }
        }
    }
}

/// Non-negativity constrained least squares (`aᵢ ≥ 0`).
pub fn nnls(u: &Matrix, x: &[f64]) -> Result<Unmixing> {
    FclsProblem::with_delta(u.clone(), 0.0)?.solve(x)
}

/// Fully constrained least squares (`aᵢ ≥ 0`, `Σ aᵢ = 1`) via the
/// Heinz–Chang augmentation: append a row of `δ`s to the design matrix and
/// a `δ` to the pixel, then solve with NNLS. The residual reported is with
/// respect to the **original** (unaugmented) system, as UFCLS requires.
///
/// ```
/// use hsi_linalg::{Matrix, lstsq::fcls};
/// let u = Matrix::from_rows(&[&[1.0, 0.0, 0.2], &[0.0, 1.0, 0.2]]);
/// // A 30/70 mixture of the two endmembers.
/// let x = [0.3, 0.7, 0.2];
/// let r = fcls(&u, &x).unwrap();
/// assert!((r.abundances[0] - 0.3).abs() < 1e-3);
/// assert!((r.abundances.iter().sum::<f64>() - 1.0).abs() < 1e-3);
/// ```
pub fn fcls(u: &Matrix, x: &[f64]) -> Result<Unmixing> {
    FclsProblem::with_delta(u.clone(), FCLS_DELTA)?.solve(x)
}

/// What [`FclsProblem::solve_f32_line`] keeps of one image line between
/// the rounds of a run: each pixel's trail — the steps of its latest
/// active-set iteration ([`FclsWorkspace`]) — and the score that
/// iteration ended in. One growable arena per line, a pixel's record
/// after its neighbour's; a pixel whose solve failed, or whose problem is
/// wider than the 24 endmembers the set masks hold, keeps an empty trail
/// and solves from the empty passive set next time. `Default` is "nothing
/// kept".
#[derive(Debug, Clone, Default)]
pub struct NnlsTrails {
    /// Leading endmembers the trails were recorded against.
    depth: usize,
    /// Per pixel `[n, score, n words of steps]`.
    records: Vec<u64>,
}

/// A prepared FCLS problem for unmixing **many** pixels against the same
/// endmember set: the augmented Gram matrix is computed once, so the
/// per-pixel cost drops to the correlation vector plus the NNLS solve.
/// This is how UFCLS processes a million-pixel image.
///
/// UFCLS grows the set one endmember per round: [`FclsProblem::push`]
/// adds the one new Gram row and column, and
/// [`FclsProblem::solve_carried`] / [`FclsProblem::solve_f32_line`] the
/// one new correlation entry of a pixel whose earlier entries the caller
/// kept; the line form also continues each pixel's active-set iteration
/// from the trail it kept ([`NnlsTrails`]).
#[derive(Debug, Clone)]
pub struct FclsProblem {
    u: Matrix,
    gram_aug: Matrix,
    delta: f64,
}

impl FclsProblem {
    /// Prepares the problem for endmember matrix `u` (rows = signatures)
    /// with the default constraint weight.
    pub fn new(u: Matrix) -> Result<Self> {
        Self::with_delta(u, FCLS_DELTA)
    }

    /// Prepares the problem with an explicit constraint weight `δ`.
    pub fn with_delta(u: Matrix, delta: f64) -> Result<Self> {
        u.require_non_empty()?;
        let t = u.rows();
        let mut problem = FclsProblem {
            u,
            gram_aug: Matrix::zeros(t, t),
            delta,
        };
        for i in 0..t {
            problem.fill_gram_row(i);
        }
        Ok(problem)
    }

    /// Appends one endmember: the Gram matrix gains the one new row and
    /// column, every entry formed exactly as [`FclsProblem::with_delta`]
    /// forms it, so a pushed problem is the built one to the bit.
    pub fn push(&mut self, signature: &[f64]) -> Result<()> {
        if signature.len() != self.u.cols() {
            return Err(shape_mismatch(
                format!("signature of length {}", self.u.cols()),
                format!("length {}", signature.len()),
            ));
        }
        let t = self.u.rows();
        self.u.push_row(signature);
        let mut grown = Matrix::zeros(t + 1, t + 1);
        for i in 0..t {
            grown.row_mut(i)[..t].copy_from_slice(self.gram_aug.row(i));
        }
        self.gram_aug = grown;
        self.fill_gram_row(t);
        Ok(())
    }

    /// Row `i` of the augmented Gram matrix up to the diagonal, mirrored
    /// into column `i`: `uᵢᵀuⱼ` summed in band order, plus `δ²`.
    fn fill_gram_row(&mut self, i: usize) {
        let offset = self.delta * self.delta;
        for j in 0..=i {
            let g = dot(self.u.row(i), self.u.row(j)) + offset;
            self.gram_aug[(i, j)] = g;
            self.gram_aug[(j, i)] = g;
        }
    }

    /// Number of endmembers.
    pub fn num_endmembers(&self) -> usize {
        self.u.rows()
    }

    /// Number of spectral bands.
    pub fn bands(&self) -> usize {
        self.u.cols()
    }

    /// Borrow of endmember `i`'s signature.
    pub fn endmember(&self, i: usize) -> &[f64] {
        self.u.row(i)
    }

    /// Unmixes one pixel, returning abundances and the unaugmented
    /// squared residual.
    pub fn solve(&self, x: &[f64]) -> Result<Unmixing> {
        let mut ws = FclsWorkspace::new();
        let residual_sq = self.solve_in(x, &mut ws)?;
        Ok(Unmixing {
            abundances: ws.abundances,
            residual_sq,
        })
    }

    /// Unmixes an `f32` pixel (the native cube type), widening to `f64`.
    pub fn solve_f32(&self, x: &[f32]) -> Result<Unmixing> {
        let wide: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        self.solve(&wide)
    }

    /// [`FclsProblem::solve`] inside a caller-owned workspace — the form
    /// for per-pixel loops. Returns the unaugmented squared residual; the
    /// abundances are [`FclsWorkspace::abundances`]. Same bits as `solve`.
    pub fn solve_in(&self, x: &[f64], ws: &mut FclsWorkspace) -> Result<f64> {
        let mut dots = std::mem::take(&mut ws.dots);
        dots.clear();
        let result = self.solve_carried(x, &mut dots, ws);
        ws.dots = dots;
        result
    }

    /// [`FclsProblem::solve_in`] for a pixel the caller has unmixed
    /// before against a shorter problem over the same leading endmembers:
    /// on entry `dots` holds `uᵢᵀx` for the first `dots.len()` endmembers,
    /// on return for all of them — only the missing dots are computed.
    /// Each dot is the one `solve_in` would form, so the result has
    /// `solve_in`'s bits; `solve_in` is this with `dots` empty.
    pub fn solve_carried(
        &self,
        x: &[f64],
        dots: &mut Vec<f64>,
        ws: &mut FclsWorkspace,
    ) -> Result<f64> {
        check_dims(&self.u, x)?;
        let t = self.u.rows();
        dots.truncate(t);
        let known = dots.len();
        dots.extend((known..t).map(|i| dot(self.u.row(i), x)));
        self.correlate(|i| dots[i], ws);
        ws.nnls(&self.gram_aug, &[], 0)?;
        let [residual_sq] = residuals_sq(&self.u, [x], [ws.abundances.as_slice()], &mut ws.resid);
        Ok(residual_sq)
    }

    /// The correlation vector of the augmented system from a pixel's
    /// endmember dots, into `ws.corr`.
    fn correlate(&self, dot_of: impl Fn(usize) -> f64, ws: &mut FclsWorkspace) {
        let offset = self.delta * self.delta;
        ws.corr.clear();
        ws.corr
            .extend((0..self.u.rows()).map(|i| dot_of(i) + offset));
    }

    /// [`FclsProblem::solve_carried`] for a whole image line of `f32`
    /// pixels (`line` holds them back to back), the dots and residuals
    /// formed several pixels abreast. `dots` is endmember-major — entry
    /// `i · pixels + p` is `uᵢᵀx_p` — with the first `known` endmembers'
    /// rows given and the rest filled here, each pixel's before its solve
    /// and whether or not that succeeds. `trails` is what the previous
    /// call on this line left, against those `known` endmembers (or
    /// `Default`): a pixel whose active-set path the endmembers added
    /// since do not change gets the score recorded there, with no solve
    /// and no residual; any other resumes its iteration where they first
    /// change it; on return `trails` holds the line's trails against this
    /// problem. `emit(p, r)` receives pixel `p`'s squared residual, once
    /// per pixel in no particular order, with [`FclsProblem::solve_f32`]'s
    /// bits either way; a pixel whose active-set iteration fails gets its
    /// own error, leaves the others alone and keeps no trail.
    /// `Err` — before anything is emitted — when the buffers do not fit
    /// the problem.
    pub fn solve_f32_line(
        &self,
        line: &[f32],
        known: usize,
        dots: &mut [f64],
        trails: &mut NnlsTrails,
        ws: &mut FclsWorkspace,
        mut emit: impl FnMut(usize, Result<f64>),
    ) -> Result<()> {
        let (t, n) = (self.u.rows(), self.u.cols());
        let pixels = line.len() / n;
        if line.len() != pixels * n || dots.len() != t * pixels || known > t {
            return Err(shape_mismatch(
                format!("whole pixels of length {n}, {t} dots each, at most {t} known"),
                format!("{} values, {} dots, {known} known", line.len(), dots.len()),
            ));
        }
        if trails.depth != known {
            trails.records.clear();
        }
        let mut priors = trails.records.as_slice();
        let mut records = std::mem::take(&mut ws.line_trails);
        records.clear();
        ws.lanes.resize(ABREAST * t, 0.0);
        // Solved pixels whose residuals wait for a full group: the pixel
        // and where its record keeps the score.
        let mut pending = [(0, 0); ABREAST];
        let mut waiting = 0;

        for first in (0..pixels).step_by(ABREAST) {
            if first + ABREAST <= pixels {
                self.form_dots::<ABREAST>(line, first, known, dots);
            } else {
                (first..pixels).for_each(|p| self.form_dots::<1>(line, p, known, dots));
            }
            for p in first..pixels.min(first + ABREAST) {
                let (score, prior) = match priors.split_first() {
                    Some((&steps, rest)) => {
                        let (record, rest) = rest.split_at(1 + steps as usize);
                        priors = rest;
                        (record[0], &record[1..])
                    }
                    None => (0, priors),
                };
                self.correlate(|i| dots[i * pixels + p], ws);
                match ws.nnls(&self.gram_aug, prior, known) {
                    Ok(true) => {
                        records.extend([prior.len() as u64, score]);
                        records.extend_from_slice(prior);
                        emit(p, Ok(f64::from_bits(score)));
                    }
                    Ok(false) => {
                        pending[waiting] = (p, records.len() + 1);
                        records.extend([ws.trail.len() as u64, 0]);
                        records.extend_from_slice(&ws.trail);
                        ws.lanes[waiting * t..][..t].copy_from_slice(&ws.abundances);
                        waiting += 1;
                        if waiting == ABREAST {
                            self.score::<ABREAST>(line, &pending, 0, ws, &mut records, &mut emit);
                            waiting = 0;
                        }
                    }
                    Err(failed) => {
                        records.extend([0, 0]);
                        emit(p, Err(failed));
                    }
                }
            }
        }
        for k in 0..waiting {
            self.score::<1>(line, &pending, k, ws, &mut records, &mut emit);
        }
        // The line keeps exactly what its records need; the workspace
        // keeps the buffer they were built in for the next line.
        trails.records.clear();
        trails.records.reserve_exact(records.len());
        trails.records.extend_from_slice(&records);
        trails.depth = t;
        ws.line_trails = records;
        Ok(())
    }

    /// The dots of the `L` pixels of `line` from `first` on with the
    /// endmembers `known..`, abreast and sharing each endmember's loads.
    fn form_dots<const L: usize>(
        &self,
        line: &[f32],
        first: usize,
        known: usize,
        dots: &mut [f64],
    ) {
        let n = self.u.cols();
        let pixels = line.len() / n;
        let xs: [&[f32]; L] = std::array::from_fn(|k| &line[(first + k) * n..][..n]);
        for i in known..self.u.rows() {
            let formed = dots_abreast([self.u.row(i); L], xs);
            dots[i * pixels + first..][..L].copy_from_slice(&formed);
        }
    }

    /// The residuals of the `L` `pending` pixels of `line` from `from` on,
    /// whose abundances are the rows of `ws.lanes` from there on, abreast:
    /// each is emitted and written into its record.
    fn score<const L: usize>(
        &self,
        line: &[f32],
        pending: &[(usize, usize)],
        from: usize,
        ws: &mut FclsWorkspace,
        records: &mut [u64],
        emit: &mut impl FnMut(usize, Result<f64>),
    ) {
        let (t, n) = (self.u.rows(), self.u.cols());
        let pending = &pending[from..][..L];
        let xs: [&[f32]; L] = std::array::from_fn(|k| &line[pending[k].0 * n..][..n]);
        let a: [&[f64]; L] = std::array::from_fn(|k| &ws.lanes[(from + k) * t..][..t]);
        let residuals = residuals_sq(&self.u, xs, a, &mut ws.resid);
        for (&(p, score_at), residual_sq) in pending.iter().zip(residuals) {
            records[score_at] = residual_sq.to_bits();
            emit(p, Ok(residual_sq));
        }
    }

    /// [`FclsProblem::solve_f32`] inside a caller-owned workspace.
    pub fn solve_f32_in(&self, x: &[f32], ws: &mut FclsWorkspace) -> Result<f64> {
        widened(x, ws, |wide, ws| self.solve_in(wide, ws))
    }
}

/// Runs `solve` on `x` widened to `f64` in the workspace's own buffer.
fn widened<R>(
    x: &[f32],
    ws: &mut FclsWorkspace,
    solve: impl FnOnce(&[f64], &mut FclsWorkspace) -> R,
) -> R {
    let mut wide = std::mem::take(&mut ws.wide);
    wide.clear();
    wide.extend(x.iter().map(|&v| v as f64));
    let result = solve(&wide, ws);
    ws.wide = wide;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::CholeskyDecomposition;

    /// Unconstrained least squares, `a = (UUᵀ)⁻¹ U x`: the reference the
    /// constrained solvers are checked against.
    fn ls(u: &Matrix, x: &[f64]) -> Result<Unmixing> {
        check_dims(u, x)?;
        let gram = u.matmul(&u.transpose())?;
        let rhs = u.matvec(x)?;
        let a = match CholeskyDecomposition::new(&gram) {
            Ok(ch) => ch.solve(&rhs)?,
            // Rank-deficient Gram: fall back to LU (caller may have duplicated
            // endmembers); if that is singular too, propagate the error.
            Err(_) => LuDecomposition::new(&gram)?.solve(&rhs)?,
        };
        let [r] = residuals_sq(u, [x], [&a[..]], &mut Vec::new());
        Ok(Unmixing {
            abundances: a,
            residual_sq: r,
        })
    }

    /// Two well-separated endmembers over 5 bands.
    fn endmembers() -> Matrix {
        Matrix::from_rows(&[&[1.0, 0.8, 0.6, 0.4, 0.2], &[0.1, 0.3, 0.5, 0.7, 0.9]])
    }

    fn mix(u: &Matrix, a: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; u.cols()];
        for (i, &ai) in a.iter().enumerate() {
            crate::matrix::axpy(ai, u.row(i), &mut x);
        }
        x
    }

    #[test]
    fn ls_recovers_exact_mixture() {
        let u = endmembers();
        let x = mix(&u, &[0.3, 0.7]);
        let r = ls(&u, &x).unwrap();
        assert!((r.abundances[0] - 0.3).abs() < 1e-10);
        assert!((r.abundances[1] - 0.7).abs() < 1e-10);
        assert!(r.residual_sq < 1e-18);
    }

    #[test]
    fn nnls_clamps_negative_components() {
        let u = endmembers();
        // Pixel close to endmember 0 minus some of endmember 1: the
        // unconstrained solution has a negative abundance.
        let x: Vec<f64> = u
            .row(0)
            .iter()
            .zip(u.row(1))
            .map(|(a, b)| a - 0.2 * b)
            .collect();
        let unc = ls(&u, &x).unwrap();
        assert!(unc.abundances[1] < 0.0);
        let r = nnls(&u, &x).unwrap();
        assert!(r.abundances.iter().all(|&v| v >= 0.0));
        // NNLS residual can't beat the unconstrained one.
        assert!(r.residual_sq >= unc.residual_sq - 1e-12);
    }

    #[test]
    fn nnls_matches_ls_when_interior() {
        let u = endmembers();
        let x = mix(&u, &[0.4, 0.5]);
        let r_ls = ls(&u, &x).unwrap();
        let r_nn = nnls(&u, &x).unwrap();
        for (p, q) in r_ls.abundances.iter().zip(&r_nn.abundances) {
            assert!((p - q).abs() < 1e-8);
        }
    }

    #[test]
    fn fcls_satisfies_both_constraints() {
        let u = endmembers();
        let x = mix(&u, &[0.25, 0.75]);
        let r = fcls(&u, &x).unwrap();
        let sum: f64 = r.abundances.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum = {sum}");
        assert!(r.abundances.iter().all(|&v| v >= 0.0));
        assert!((r.abundances[0] - 0.25).abs() < 1e-3);
        assert!((r.abundances[1] - 0.75).abs() < 1e-3);
    }

    #[test]
    fn fcls_residual_grows_with_unmodelled_signal() {
        let u = endmembers();
        let pure = mix(&u, &[0.5, 0.5]);
        let r_pure = fcls(&u, &pure).unwrap();
        // Add a signature orthogonal-ish to both endmembers.
        let anomalous: Vec<f64> = pure
            .iter()
            .enumerate()
            .map(|(i, v)| v + if i == 2 { 1.5 } else { 0.0 })
            .collect();
        let r_anom = fcls(&u, &anomalous).unwrap();
        assert!(
            r_anom.residual_sq > r_pure.residual_sq + 0.1,
            "anomalous pixel must score higher: {} vs {}",
            r_anom.residual_sq,
            r_pure.residual_sq
        );
    }

    #[test]
    fn single_endmember_fcls() {
        let u = Matrix::from_rows(&[&[0.5, 0.5, 0.5]]);
        let x = [0.5, 0.5, 0.5];
        let r = fcls(&u, &x).unwrap();
        assert!((r.abundances[0] - 1.0).abs() < 1e-6);
        assert!(r.residual_sq < 1e-10);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let u = endmembers();
        assert!(ls(&u, &[1.0, 2.0]).is_err());
        assert!(fcls(&u, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn fcls_problem_matches_one_shot_fcls() {
        let u = endmembers();
        let prob = FclsProblem::new(u.clone()).unwrap();
        for a in [[0.2, 0.8], [0.9, 0.1], [0.5, 0.5]] {
            let x = mix(&u, &a);
            let one = fcls(&u, &x).unwrap();
            let batch = prob.solve(&x).unwrap();
            for (p, q) in one.abundances.iter().zip(&batch.abundances) {
                assert!((p - q).abs() < 1e-10);
            }
            assert!((one.residual_sq - batch.residual_sq).abs() < 1e-12);
        }
    }

    #[test]
    fn fcls_problem_f32_entry_point() {
        let u = endmembers();
        let prob = FclsProblem::new(u.clone()).unwrap();
        let x64 = mix(&u, &[0.3, 0.7]);
        let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
        let r = prob.solve_f32(&x32).unwrap();
        assert!((r.abundances[0] - 0.3).abs() < 1e-3);
    }

    /// Six mildly correlated signatures over nine bands, with zeros and a
    /// repeated value so the Gram sums see the awkward cases.
    fn grown_endmembers() -> Vec<Vec<f64>> {
        (0..6)
            .map(|i| {
                (0..9)
                    .map(|k| match (i + 2 * k) % 7 {
                        0 => 0.0,
                        r => 0.05 + 0.13 * r as f64 + 0.01 * (i * k) as f64,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pushed_problem_equals_built_problem_to_the_bit() {
        let rows = grown_endmembers();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let pixels: Vec<Vec<f64>> = (0..5)
            .map(|p| {
                (0..9)
                    .map(|k| 0.1 + 0.07 * ((p + 3 * k) % 11) as f64)
                    .collect()
            })
            .collect();
        let mut grown = FclsProblem::new(Matrix::from_rows(&refs[..1])).unwrap();
        // Each pixel's dots, kept from one size to the next.
        let mut kept: Vec<Vec<f64>> = vec![Vec::new(); pixels.len()];
        let mut ws = FclsWorkspace::new();
        for t in 1..=rows.len() {
            if t > 1 {
                grown.push(&rows[t - 1]).unwrap();
            }
            let u = Matrix::from_rows(&refs[..t]);
            let built = FclsProblem::new(u.clone()).unwrap();
            assert_eq!(grown.num_endmembers(), t);
            assert_eq!(grown.u, built.u);
            // ... and both are the textbook product, entry for entry.
            let product = u.matmul(&u.transpose()).unwrap();
            for i in 0..t {
                for j in 0..t {
                    let want = product[(i, j)] + FCLS_DELTA * FCLS_DELTA;
                    assert_eq!(built.gram_aug[(i, j)].to_bits(), want.to_bits());
                    assert_eq!(grown.gram_aug[(i, j)].to_bits(), want.to_bits());
                }
            }
            for (x, dots) in pixels.iter().zip(kept.iter_mut()) {
                let scratch = built.solve(x).unwrap();
                assert_eq!(dots.len(), t - 1);
                let carried = grown.solve_carried(x, dots, &mut ws).unwrap();
                assert_eq!(carried.to_bits(), scratch.residual_sq.to_bits(), "t = {t}");
                assert_eq!(ws.abundances(), &scratch.abundances[..]);
                assert_eq!(dots.len(), t);
            }
        }
        assert!(grown.push(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn workspace_reuse_across_problem_sizes_keeps_bits() {
        let big = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 0.2],
            &[0.0, 1.0, 0.0, 0.2],
            &[0.0, 0.0, 1.0, 0.2],
        ]);
        let x = [0.2, 0.5, 0.3, 0.2];
        let mut ws = FclsWorkspace::new();
        let p3 = FclsProblem::new(big).unwrap();
        let r3 = p3.solve_in(&x, &mut ws).unwrap();
        assert_eq!(r3.to_bits(), p3.solve(&x).unwrap().residual_sq.to_bits());
        // A smaller problem over more bands, in the same workspace.
        let u = endmembers();
        let p2 = FclsProblem::new(u.clone()).unwrap();
        let y = mix(&u, &[0.3, 0.7]);
        let r2 = p2.solve_in(&y, &mut ws).unwrap();
        let scratch = p2.solve(&y).unwrap();
        assert_eq!(r2.to_bits(), scratch.residual_sq.to_bits());
        assert_eq!(ws.abundances(), &scratch.abundances[..]);
    }

    /// Endmember sets with near-copies of each other make the passive
    /// sub-Gram nearly singular: a variable whose gradient is honestly
    /// positive can still come out of the solve non-positive. Without
    /// Lawson–Hanson's guard each of these sets has mixtures that cycle
    /// to the budget.
    #[test]
    fn fcls_converges_on_nearly_dependent_endmembers() {
        fn lcg(state: &mut u64) -> f64 {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((*state >> 33) as f64) / (u32::MAX as f64 / 2.0)
        }
        for case in [12u64, 40, 45, 48, 60, 76, 97, 101] {
            let mut state = case * 7919 + 13;
            let n = 6 + (case % 5) as usize * 2;
            let t = 3 + (case % 7) as usize;
            let eps = [1e-3, 1e-4, 1e-5, 1e-6][(case % 4) as usize];
            let base: Vec<Vec<f64>> = (0..3)
                .map(|_| (0..n).map(|_| 0.1 + lcg(&mut state)).collect())
                .collect();
            // Row i is base[i % 3] nudged by ~eps · (i / 3).
            let rows: Vec<Vec<f64>> = (0..t)
                .map(|i| {
                    base[i % 3]
                        .iter()
                        .map(|v| v + eps * (i / 3) as f64 * lcg(&mut state))
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let problem = FclsProblem::new(Matrix::from_rows(&refs)).unwrap();
            let mut ws = FclsWorkspace::new();
            for q in 0..t {
                for r in 0..t {
                    let x: Vec<f64> = rows[q]
                        .iter()
                        .zip(&rows[r])
                        .map(|(a, b)| 0.5 * (a + b))
                        .collect();
                    let residual = problem
                        .solve_in(&x, &mut ws)
                        .unwrap_or_else(|e| panic!("case {case}, rows {q}+{r}: {e}"));
                    // In the simplex, so zero in exact arithmetic; the
                    // gradient resolves only to ~ε·δ² along the near-null
                    // directions of such a set.
                    assert!(residual < 1e-8, "case {case}, rows {q}+{r}: {residual:e}");
                    assert!(ws.abundances().iter().all(|&a| a >= 0.0));
                    assert!((ws.abundances().iter().sum::<f64>() - 1.0).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn three_endmember_fcls_on_vertex() {
        let u = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 0.2],
            &[0.0, 1.0, 0.0, 0.2],
            &[0.0, 0.0, 1.0, 0.2],
        ]);
        // Pixel exactly equal to endmember 2.
        let x = [0.0, 0.0, 1.0, 0.2];
        let r = fcls(&u, &x).unwrap();
        assert!(r.abundances[2] > 0.99);
        assert!(r.abundances[0] < 0.01 && r.abundances[1] < 0.01);
    }
}
