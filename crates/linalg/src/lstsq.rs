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
//! A line's records also say **which pixels cannot win**. The endmember
//! sets of a run are nested, so the optimum of the augmented objective
//! `F(a) = ‖x − Uᵀa‖² + δ²(1 − Σa)²` over `a ≥ 0` cannot rise as the set
//! grows, and a pixel's recorded solve — score `r̂`, abundances `â` —
//! bounds every later score by `r̂ + δ²(1 − Σâ)²` plus a rounding margin
//! derived from the KKT tolerances and the residual's rounding
//! ([`FclsProblem::solve_f32_line`]; the proof is in docs/PERF.md). A
//! caller after the line's maximum hands a floor, and a pixel bounded
//! below it is not replayed, solved or given a residual, and forms none
//! of its missing endmember dots: each pixel's record says how far its
//! dots are formed.
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
use crate::matrix::{axpy, dot, dots_abreast, missing_dots};
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
    /// The records of the line in flight ([`NnlsTrails`]), in the order
    /// its pixels are visited, and where each pixel's record lies there.
    line_trails: Vec<u64>,
    spans: Vec<(usize, usize)>,
    /// The line's pixels in the order they are visited.
    visits: Vec<Visit>,
    passive_solves: u64,
    dots_formed: u64,
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

    /// Endmember dots `uᵢᵀx` formed in this workspace since it was made:
    /// a pixel the line form prunes forms none.
    pub fn dots_formed(&self) -> u64 {
        self.dots_formed
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
/// active-set iteration ([`FclsWorkspace`]) — the score that iteration
/// ended in, the terms its objective bound is made of, and how many
/// leading endmembers it was solved against. One growable arena per
/// line, a pixel's record after its neighbour's; a pixel whose solve
/// failed, or whose problem is wider than the 24 endmembers the set masks
/// hold, keeps an empty trail and solves from the empty passive set next
/// time. `Default` is "nothing kept"; its arena grows on first use.
///
/// A record is `[words | exit << 16 | depth << 32, score, objective, sum,
/// words of steps]`, `exit` where the trail's last step starts, `sum` the
/// abundances' sum `Σâ` at that step and `objective` the augmented
/// objective `F(â) = r̂ + δ²(1 − Σâ)²` ([`FclsProblem::objective_bounds`]).
/// The depth is also how far the pixel's endmember dots are formed: a
/// pixel the line's floor pruned keeps its record unchanged and forms no
/// dot, against fewer endmembers than its line's other pixels, and
/// catches up on its dots and replays its trail against every endmember
/// added since when it is next evaluated
/// ([`FclsProblem::solve_f32_line`]).
///
/// The arena is one buffer for a line's whole run: every call empties it
/// and refills it, so it reallocates only when a line's records outgrow
/// what it already holds — never, when its owner reserved enough
/// ([`NnlsTrails::with_capacity`]).
#[derive(Debug, Clone, Default)]
pub struct NnlsTrails {
    /// Leading endmembers the line was last solved against.
    depth: usize,
    /// Per pixel `[n | exit << 16 | depth << 32, score, objective, sum, n
    /// words of steps]`.
    records: Vec<u64>,
}

/// Words of a record ahead of its steps.
pub const RECORD_HEAD: usize = 4;

/// A record's first word: `steps` words of trail whose last step — the
/// KKT exit — starts at `exit`, solved against `depth` endmembers.
fn record_word(steps: usize, exit: usize, depth: usize) -> u64 {
    steps as u64 | (exit as u64) << 16 | (depth as u64) << 32
}

/// `(steps, exit, depth)` of a record's first word ([`record_word`]).
fn record_fields(word: u64) -> (usize, usize, usize) {
    let field = |at: u32| (word >> at) as u16 as usize;
    (field(0), field(16), (word >> 32) as usize)
}

// A trail has at most one step per passive-set solve and the exit, each
// at most `1 + SET_BITS` words: 16 bits hold its length.
const _: () = assert!((NNLS_MAX_ITER + 1) * (1 + SET_BITS) < 1 << 16);

/// Where each record laid end to end in `records` starts and ends.
fn record_spans(records: &[u64]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        let &word = records.get(at)?;
        let span = (at, at + RECORD_HEAD + record_fields(word).0);
        at = span.1;
        Some(span)
    })
}

/// `Σâ` of a trail whose exit step starts at `exit`: its held abundances
/// summed in passive-set order (`0` for an empty trail).
fn exit_sum(steps: &[u64], exit: usize) -> f64 {
    if steps.is_empty() {
        return 0.0;
    }
    Step::read(&steps[exit..]).held().map(|(_, a)| a).sum()
}

/// One pixel of a line, in the order [`FclsProblem::solve_f32_line`]
/// visits them: the bound on its score, where its record lies in the
/// line's arena (an empty range: it has none), and how many endmembers
/// its dots are formed against.
#[derive(Debug, Clone, Copy)]
struct Visit {
    bound: f64,
    pixel: usize,
    record: (usize, usize),
    depth: usize,
}

/// What the rounding margin of a round's objective bounds takes from its
/// endmember set rather than from a pixel (docs/PERF.md, "UFCLS solves
/// only the pixels that can still win"): `δ`, the largest `‖uᵢ‖²` rounded
/// up and its root, and the rates `t` and `n` set.
#[derive(Clone, Copy)]
struct Margin {
    delta: f64,
    energy: f64,
    root_energy: f64,
    /// `KKT_ROUNDING + 2(t + 1)ε`: the exit gradient's rate.
    gradient_rate: f64,
    /// `2(n + t + 2)ε`: the two residuals' rate.
    rounding_rate: f64,
}

impl Margin {
    /// `(objective, margin)` for the record `[word, score, objective,
    /// sum, steps]`: `None` — no bound — for no record or an empty trail.
    fn bound(&self, record: &[u64]) -> Option<(f64, f64)> {
        let [_, score, objective, sum, steps @ ..] = record else {
            return None;
        };
        if steps.is_empty() {
            return None;
        }
        let [score, objective, sum] = [*score, *objective, *sum].map(f64::from_bits);
        let eps = f64::EPSILON;
        let (delta, delta2) = (self.delta, self.delta * self.delta);
        // ‖x‖ ≤ ‖x − Uᵀâ‖ + ‖Uᵀâ‖ ≤ √r̂ + Σâ·max‖uᵢ‖.
        let signal = score.sqrt() + sum * self.root_energy;
        // Any iterate of the descent has F(a) ≤ F(0) = ‖x‖² + δ², so
        // δ²(1 − Σa)² ≤ ‖x‖² + δ²: a bound on Σa, the optimum's included.
        let abundance = 2.0 + signal / delta;
        // Every gradient sum `c_j − Σ g_jp a_p` is made of terms no larger
        // than this in magnitude.
        let magnitude = (self.root_energy * signal + delta2) + (self.energy + delta2) * abundance;
        // The exit's gradient: KKT-tolerated off the passive set, the
        // factor's backward error on it.
        let gradient = KKT_FLOOR + self.gradient_rate * magnitude;
        // The two residuals' rounding, and this sum's own.
        let reach = signal + abundance * self.root_energy;
        let rounding = self.rounding_rate * reach * reach + 4.0 * eps * objective;
        Some((objective, 6.0 * abundance * gradient + rounding))
    }
}

impl NnlsTrails {
    /// Nothing kept, in an arena with room for `words` words of records.
    pub fn with_capacity(words: usize) -> Self {
        NnlsTrails {
            depth: 0,
            records: Vec::with_capacity(words),
        }
    }

    /// Forgets every trail, keeping the arena.
    pub fn clear(&mut self) {
        self.depth = 0;
        self.records.clear();
    }

    /// Words the arena holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.records.capacity()
    }

    /// Endmember dots the line's pixels hold, summed over its records:
    /// each pixel's depth. A host-work tally for tests.
    #[doc(hidden)]
    pub fn dots_held(&self) -> usize {
        let depth = |(at, _)| record_fields(self.records[at]).2;
        record_spans(&self.records).map(depth).sum()
    }
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

    /// Appends one endmember ([`FclsProblem::with_endmember`] in place).
    pub fn push(&mut self, signature: &[f64]) -> Result<()> {
        *self = self.with_endmember(signature)?;
        Ok(())
    }

    /// This problem with one endmember appended: the Gram matrix gains the
    /// one new row and column, every entry formed exactly as
    /// [`FclsProblem::with_delta`] forms it, so a grown problem is the
    /// built one to the bit. Each buffer is one allocation of exactly its
    /// size; nothing of `self` is cloned that the new problem does not
    /// keep.
    pub fn with_endmember(&self, signature: &[f64]) -> Result<Self> {
        if signature.len() != self.u.cols() {
            return Err(shape_mismatch(
                format!("signature of length {}", self.u.cols()),
                format!("length {}", signature.len()),
            ));
        }
        let t = self.u.rows();
        let mut grown = FclsProblem {
            u: self.u.with_row(signature),
            gram_aug: Matrix::zeros(t + 1, t + 1),
            delta: self.delta,
        };
        for i in 0..t {
            grown.gram_aug.row_mut(i)[..t].copy_from_slice(self.gram_aug.row(i));
        }
        grown.fill_gram_row(t);
        Ok(grown)
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
        ws.dots_formed += (t - known) as u64;
        self.correlate(|i| dots[i], ws);
        ws.nnls(&self.gram_aug, &[], 0)?;
        let [residual_sq] = residuals_sq(&self.u, [x], [ws.abundances.as_slice()], &mut ws.resid);
        Ok(residual_sq)
    }

    /// The round's margin constants of the objective bound, `None` — no
    /// bound — without the sum-to-one row (`δ = 0`), which alone bounds
    /// the abundances' sum. The largest `‖uᵢ‖²` is read off the Gram
    /// diagonal, where each is summed beside `δ²`, and rounded up.
    fn margin(&self) -> Option<Margin> {
        let delta2 = self.delta * self.delta;
        if delta2 == 0.0 {
            return None;
        }
        let diagonal = (0..self.u.rows()).map(|i| self.gram_aug[(i, i)]);
        let energy = diagonal.fold(0.0, |most: f64, g| {
            most.max(g - delta2 + 2.0 * f64::EPSILON * g)
        });
        let eps = f64::EPSILON;
        let (t, n) = (self.u.rows() as f64, self.u.cols() as f64);
        Some(Margin {
            delta: self.delta,
            energy,
            root_energy: energy.sqrt(),
            gradient_rate: KKT_ROUNDING + 2.0 * (t + 1.0) * eps,
            rounding_rate: 2.0 * (n + t + 2.0) * eps,
        })
    }

    /// What bounds the score of each pixel whose record `trails` holds — a
    /// solve against this problem's leading endmembers — against this
    /// problem or any larger one over the same leading endmembers:
    /// `(objective, margin)`, the augmented objective `F(â) = r̂ + δ²(1 −
    /// Σâ)²` of that solve and the rounding allowance of docs/PERF.md
    /// ("UFCLS solves only the pixels that can still win"). `None` for a
    /// pixel with no record or an empty trail, and for every pixel
    /// without the sum-to-one row. For tests that check the bound.
    #[doc(hidden)]
    pub fn objective_bounds(&self, trails: &NnlsTrails) -> Vec<Option<(f64, f64)>> {
        let margin = self.margin();
        let records = &trails.records;
        let bound = |(from, to)| margin.and_then(|m| m.bound(&records[from..to]));
        record_spans(records).map(bound).collect()
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
    /// `i · pixels + p` is `uᵢᵀx_p` — and holds each pixel's dots with the
    /// endmembers its record in `trails` was solved against (the first
    /// `known`, for a pixel with no record); a pixel's missing dots are
    /// formed here when it is evaluated, and never when it is pruned.
    /// `trails` is what the previous call on this line left, against
    /// those `known` endmembers (or `Default`): a pixel whose active-set
    /// path the endmembers added since its record was made do not change
    /// gets the score recorded there, with no solve and no residual; any
    /// other resumes its iteration where they first change it; on return
    /// `trails` holds the line's records against this problem.
    ///
    /// **Only a pixel that can still win is unmixed.** A pixel's recorded
    /// solve bounds every score it can reach against a larger set
    /// ([`FclsProblem::objective_bounds`]): one whose bound is below
    /// `floor` — raised, as the call goes, by every score the line emits —
    /// is neither replayed nor solved, forms no dot, keeps its record as it
    /// was and is emitted as `−∞`. So a caller after the line's maximum
    /// passes the best score it has seen elsewhere (or `−∞`), and a pixel
    /// it is given `−∞` for is one with a strictly higher score beside it.
    /// The pixels are visited highest bound first, which raises the floor
    /// soonest, four at a time — their missing dots formed four chains
    /// abreast ([`crate::matrix::missing_dots`]) — so the first visit whose
    /// bound is below the floor prunes it and every pixel after it. A
    /// pixel with no trail (first call, failed solve, restarted line) has
    /// no bound and is always unmixed.
    ///
    /// `emit(p, r)` receives pixel `p`'s squared residual — `−∞` if
    /// pruned — once per pixel in no particular order, with
    /// [`FclsProblem::solve_f32`]'s bits otherwise; a pixel whose
    /// active-set iteration fails gets its own error, leaves the others
    /// alone and keeps no trail. Returns how many pixels were not pruned.
    /// `Err` — before anything is emitted — when the buffers do not fit
    /// the problem.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_f32_line(
        &self,
        line: &[f32],
        known: usize,
        dots: &mut [f64],
        trails: &mut NnlsTrails,
        floor: f64,
        ws: &mut FclsWorkspace,
        mut emit: impl FnMut(usize, Result<f64>),
    ) -> Result<usize> {
        self.solve_line(line, known, dots, trails, floor, ws, &mut emit)
    }

    /// [`FclsProblem::solve_f32_line`]'s body, not generic: it is compiled
    /// once, here, with this crate's optimisation, whoever calls it.
    #[allow(clippy::too_many_arguments)]
    fn solve_line(
        &self,
        line: &[f32],
        known: usize,
        dots: &mut [f64],
        trails: &mut NnlsTrails,
        floor: f64,
        ws: &mut FclsWorkspace,
        emit: &mut dyn FnMut(usize, Result<f64>),
    ) -> Result<usize> {
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
        self.plan_visits(pixels, known, &trails.records, ws);

        let priors = trails.records.as_slice();
        let mut records = std::mem::take(&mut ws.line_trails);
        records.clear();
        ws.spans.clear();
        ws.spans.resize(pixels, (0, 0));
        ws.lanes.resize(ABREAST * t, 0.0);
        // A NaN ranks below every score, so it prunes nothing.
        let mut floor = if floor.is_nan() {
            f64::NEG_INFINITY
        } else {
            floor
        };
        // Solved pixels whose residuals wait for a full group: the pixel
        // and where its record keeps the score.
        let mut pending = [(0, 0); ABREAST];
        let mut waiting = 0;
        let mut visited = 0;

        while visited < pixels {
            // The pixels with no bound are unmixed whatever the floor, so
            // they are taken together; the others four at a time.
            let rest = &ws.visits[visited..];
            let unbounded = rest.iter().take_while(|v| v.bound == f64::INFINITY);
            let batch = match unbounded.count() {
                0 => rest
                    .iter()
                    .take(ABREAST)
                    .take_while(|v| !prunes(floor, v.bound))
                    .count(),
                all => all,
            };
            if batch == 0 {
                break;
            }
            let batch = visited..visited + batch;
            visited = batch.end;
            for first in batch.clone().step_by(ABREAST) {
                let group = first..(first + ABREAST).min(batch.end);
                let lanes = group.len();
                let visit = |k: usize| ws.visits[first + k.min(lanes - 1)];
                let xs: [&[f32]; ABREAST] =
                    std::array::from_fn(|k| &line[visit(k).pixel * n..][..n]);
                let from: [usize; ABREAST] = std::array::from_fn(|k| visit(k).depth);
                let mut formed = 0;
                let vector = |i| self.u.row(i);
                missing_dots(&xs[..lanes], &from[..lanes], t, vector, |k, i, c| {
                    dots[i * pixels + visit(k).pixel] = c;
                    formed += 1;
                });
                ws.dots_formed += formed;
            }

            for v in batch {
                let Visit {
                    pixel: p, record, ..
                } = ws.visits[v];
                let record = &priors[record.0..record.1];
                let at = records.len();
                let (exit, depth, terms, prior) = match record {
                    [word, score, objective, sum, prior @ ..] => {
                        let (_, exit, depth) = record_fields(*word);
                        (exit, depth, [*score, *objective, *sum], prior)
                    }
                    _ => (0, known, [0; 3], record),
                };
                self.correlate(|i| dots[i * pixels + p], ws);
                match ws.nnls(&self.gram_aug, prior, depth) {
                    Ok(true) => {
                        records.push(record_word(prior.len(), exit, t));
                        records.extend(terms);
                        records.extend_from_slice(prior);
                        let score = f64::from_bits(terms[0]);
                        floor = raised(floor, score);
                        emit(p, Ok(score));
                    }
                    Ok(false) => {
                        pending[waiting] = (p, at + 1);
                        // The exit step holds the final passive set.
                        let exit = ws.trail.len().saturating_sub(1 + ws.passive.len());
                        let sum = exit_sum(&ws.trail, exit);
                        let word = record_word(ws.trail.len(), exit, t);
                        records.extend([word, 0, 0, sum.to_bits()]);
                        records.extend_from_slice(&ws.trail);
                        ws.lanes[waiting * t..][..t].copy_from_slice(&ws.abundances);
                        waiting += 1;
                        // With nothing to prune against yet, the first solve
                        // is scored at once: its residual is the floor.
                        if waiting == ABREAST || floor == f64::NEG_INFINITY {
                            floor = self.score_pending(
                                line,
                                &pending[..waiting],
                                ws,
                                &mut records,
                                floor,
                                emit,
                            );
                            waiting = 0;
                        }
                    }
                    Err(failed) => {
                        // No trail, but its dots are formed to `t`.
                        records.extend([record_word(0, 0, t), 0, 0, 0]);
                        emit(p, Err(failed));
                    }
                }
                ws.spans[p] = (at, records.len());
            }
        }
        self.score_pending(line, &pending[..waiting], ws, &mut records, floor, emit);
        for v in visited..pixels {
            let Visit {
                pixel: p, record, ..
            } = ws.visits[v];
            let at = records.len();
            records.extend_from_slice(&priors[record.0..record.1]);
            ws.spans[p] = (at, records.len());
            emit(p, Ok(f64::NEG_INFINITY));
        }
        // The line's records go into its own arena in pixel order, which
        // keeps its capacity from call to call; the workspace keeps the
        // buffer they were built in for the next line.
        trails.records.clear();
        for &(from, to) in &ws.spans {
            trails.records.extend_from_slice(&records[from..to]);
        }
        trails.depth = t;
        ws.line_trails = records;
        Ok(visited)
    }

    /// Fills `ws.visits` with the `pixels` of a line whose records are
    /// `records` (empty: none), highest bound first; equal bounds, and the
    /// pixels with none, keep their order. Each bound is its record's own
    /// terms and the round's margin constants, formed once for the line; a
    /// pixel's depth is its record's, `known` without one.
    fn plan_visits(&self, pixels: usize, known: usize, records: &[u64], ws: &mut FclsWorkspace) {
        let margin = self.margin();
        let mut spans = record_spans(records);
        ws.visits.clear();
        for pixel in 0..pixels {
            let record = spans.next().unwrap_or((records.len(), records.len()));
            let held = &records[record.0..record.1];
            let bound = margin
                .and_then(|m| m.bound(held))
                .map_or(f64::INFINITY, |(objective, margin)| objective + margin);
            let depth = held.first().map_or(known, |&word| record_fields(word).2);
            ws.visits.push(Visit {
                bound,
                pixel,
                record,
                depth,
            });
        }
        // A NaN bound (a NaN score) is never below a floor: it goes first.
        let key = |v: &Visit| {
            if v.bound.is_nan() {
                f64::INFINITY
            } else {
                v.bound
            }
        };
        ws.visits.sort_by(|a, b| key(b).total_cmp(&key(a)));
    }

    /// Scores the `pending` pixels, whose abundances are the leading rows
    /// of `ws.lanes`: all abreast when they fill a group, else one by one.
    /// Returns `floor` raised by their scores.
    fn score_pending(
        &self,
        line: &[f32],
        pending: &[(usize, usize)],
        ws: &mut FclsWorkspace,
        records: &mut [u64],
        mut floor: f64,
        emit: &mut dyn FnMut(usize, Result<f64>),
    ) -> f64 {
        let mut raise = |p, score| {
            floor = raised(floor, score);
            emit(p, Ok(score));
        };
        if pending.len() == ABREAST {
            self.score::<ABREAST>(line, pending, 0, ws, records, &mut raise);
        } else {
            for k in 0..pending.len() {
                self.score::<1>(line, pending, k, ws, records, &mut raise);
            }
        }
        floor
    }

    /// The residuals of the `L` `pending` pixels of `line` from `from` on,
    /// whose abundances are the rows of `ws.lanes` from there on, abreast:
    /// each is written into its record with the objective `F(â) = r̂ +
    /// δ²(1 − Σâ)²` of the `Σâ` the record holds, and handed to `scored`.
    fn score<const L: usize>(
        &self,
        line: &[f32],
        pending: &[(usize, usize)],
        from: usize,
        ws: &mut FclsWorkspace,
        records: &mut [u64],
        scored: &mut dyn FnMut(usize, f64),
    ) {
        let (t, n) = (self.u.rows(), self.u.cols());
        let delta2 = self.delta * self.delta;
        let pending = &pending[from..][..L];
        let xs: [&[f32]; L] = std::array::from_fn(|k| &line[pending[k].0 * n..][..n]);
        let a: [&[f64]; L] = std::array::from_fn(|k| &ws.lanes[(from + k) * t..][..t]);
        let residuals = residuals_sq(&self.u, xs, a, &mut ws.resid);
        for (&(p, score_at), residual_sq) in pending.iter().zip(residuals) {
            let sum = f64::from_bits(records[score_at + 2]);
            let objective = residual_sq + delta2 * (1.0 - sum) * (1.0 - sum);
            records[score_at] = residual_sq.to_bits();
            records[score_at + 1] = objective.to_bits();
            scored(p, residual_sq);
        }
    }

    /// [`FclsProblem::solve_f32`] inside a caller-owned workspace.
    pub fn solve_f32_in(&self, x: &[f32], ws: &mut FclsWorkspace) -> Result<f64> {
        widened(x, ws, |wide, ws| self.solve_in(wide, ws))
    }
}

/// Whether `floor` prunes a pixel whose score is at most `bound`: the
/// bound is strictly below it (a NaN bound never is).
fn prunes(floor: f64, bound: f64) -> bool {
    bound < floor
}

/// `floor` raised to `score`, if higher; a NaN score raises nothing.
fn raised(floor: f64, score: f64) -> f64 {
    if score > floor {
        score
    } else {
        floor
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

    /// A grown problem holds exactly its endmembers and its Gram matrix:
    /// no spare rows of `U`, no second Gram matrix beside it.
    #[test]
    fn a_grown_problem_is_allocated_at_its_final_size() {
        let rows = grown_endmembers();
        let mut problem = FclsProblem::new(Matrix::row_vector(&rows[0])).unwrap();
        for (t, row) in rows.iter().enumerate().skip(1) {
            problem = problem.with_endmember(row).unwrap();
            assert_eq!(problem.u.capacity(), (t + 1) * row.len());
            assert_eq!(problem.gram_aug.capacity(), (t + 1) * (t + 1));
        }
    }

    /// A line's trail arena is refilled in place: reserved once, it keeps
    /// its buffer while the problem grows, and a cleared one as well.
    #[test]
    fn a_reserved_trail_arena_keeps_its_buffer() {
        let rows = grown_endmembers();
        let line: Vec<f32> = (0..4 * 9)
            .map(|k| (0.1 + 0.07 * ((k * 5) % 11) as f64) as f32)
            .collect();
        let mut trails = NnlsTrails::with_capacity(4 * 64);
        let arena = trails.records.as_ptr();
        let mut problem = FclsProblem::new(Matrix::row_vector(&rows[0])).unwrap();
        let mut dots = Vec::new();
        let mut ws = FclsWorkspace::new();
        for t in 1..=rows.len() {
            if t > 1 {
                problem.push(&rows[t - 1]).unwrap();
            }
            dots.resize(t * 4, 0.0);
            problem
                .solve_f32_line(
                    &line,
                    t - 1,
                    &mut dots,
                    &mut trails,
                    f64::NEG_INFINITY,
                    &mut ws,
                    |_, r| assert!(r.is_ok()),
                )
                .unwrap();
            assert!(!trails.records.is_empty());
            assert_eq!(
                (trails.records.as_ptr(), trails.capacity()),
                (arena, 4 * 64)
            );
        }
        trails.clear();
        assert!(trails.records.is_empty() && trails.depth == 0);
        assert_eq!(
            (trails.records.as_ptr(), trails.capacity()),
            (arena, 4 * 64)
        );
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
