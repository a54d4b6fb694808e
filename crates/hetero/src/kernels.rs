//! Worker-side computational kernels.
//!
//! Every kernel returns its result **plus its analytic cost in
//! megaflops** (from [`crate::flops`]), so the caller — a `simnet` rank
//! or a sequential baseline — charges the identical virtual time for the
//! identical computation. The parallel algorithms are exactly these
//! kernels applied to partitions, which is why they reproduce the
//! sequential analysis results bit-for-bit (asserted by the integration
//! tests).
//!
//! All argmax scans break ties toward the lowest `(line, sample)` in
//! row-major order, keeping results independent of partitioning.
//!
//! The scan kernels (argmax family, covariance, labelling) are
//! **data-parallel over a fixed line-chunk grid** ([`PAR_CHUNK_LINES`])
//! with order-preserving reduction, so their outputs are bit-identical
//! for any thread count; the thread budget is whatever `rayon` pool the
//! caller installed (one per simulated rank under `simnet::engine`).
//! Wall-clock speed changes, **virtual time does not**: the returned
//! megaflop counts are analytic in the scan size either way.
//!
//! ATDCA and UFCLS call their argmax kernel once per round against a
//! system that grew by one vector, so the two kernels can **carry** each
//! pixel's running sums from round to round ([`ProjectionCarry`],
//! [`FclsCarry`]) and apply only the vectors a line has not seen; UFCLS
//! carries each pixel's NNLS active-set trail as well, and solves only
//! from the step the new endmembers first change. That too is host
//! wall-clock only: the megaflops returned are the paper's full
//! per-round re-projection and unmixing whatever the carry saved.
//!
//! Within a line the per-pixel 224-band sums — norms, projection and
//! endmember dots, FCLS residuals, SAD dots — run four pixels (or
//! candidates) at a time, one accumulator each: every sum keeps its own
//! operands and order, hence its bits, and stops waiting out the add
//! latency alone. Host wall-clock only, again.

use crate::flops;
use crate::msg::Candidate;
use hsi_cube::metrics::{brightness, sad, SadCandidates};
use hsi_cube::HyperCube;
use hsi_linalg::covariance::CovarianceAccumulator;
use hsi_linalg::lstsq::{FclsProblem, FclsWorkspace, NnlsTrails};
use hsi_linalg::matrix::dots_abreast;
use hsi_linalg::ortho::OrthoBasis;
use hsi_linalg::Matrix;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Fixed line-chunk granularity of the data-parallel kernels.
///
/// The chunk grid depends only on the requested line range — never on
/// the worker count — and chunk results are folded in chunk order, so
/// every kernel returns bit-identical results for **any** thread count
/// (including 1). See `docs/PERF.md` for the determinism argument.
pub const PAR_CHUNK_LINES: usize = 8;

/// How many pixels of a line the scans run abreast (a scalar tail takes
/// the rest of the line).
const ABREAST: usize = 4;

/// Splits `[lo, hi)` into the fixed chunk grid: chunk `c` covers
/// `[lo + c·PAR_CHUNK_LINES, min(lo + (c+1)·PAR_CHUNK_LINES, hi))`.
#[inline]
fn chunk_bounds(range: (usize, usize), c: usize) -> (usize, usize) {
    let clo = range.0 + c * PAR_CHUNK_LINES;
    ((clo), (clo + PAR_CHUNK_LINES).min(range.1))
}

/// Number of chunks covering `[lo, hi)` (0 for empty ranges).
#[inline]
fn chunk_count(range: (usize, usize)) -> usize {
    range.1.saturating_sub(range.0).div_ceil(PAR_CHUNK_LINES)
}

/// Number of pixels in lines `[lo, hi)` (0 for empty and inverted ranges).
#[inline]
fn range_pixels(cube: &HyperCube, range: (usize, usize)) -> usize {
    range.1.saturating_sub(range.0) * cube.samples()
}

/// A scored pixel in **local** block coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredPixel {
    /// Local line within the block.
    pub line: usize,
    /// Sample (column).
    pub sample: usize,
    /// Kernel-specific score.
    pub score: f64,
}

impl ScoredPixel {
    /// Converts to a wire [`Candidate`] with global coordinates
    /// (`global_line = local_line - pre + first_line`).
    pub fn to_candidate(&self, cube: &HyperCube, first_line: usize, pre: usize) -> Candidate {
        Candidate {
            line: (self.line + first_line - pre) as u32,
            sample: self.sample as u32,
            score: self.score,
            spectrum: cube.pixel(self.line, self.sample).to_vec(),
        }
    }
}

/// One image line of a carry: `depth` vectors of the system are already
/// folded into `sums` (empty until the line is first scanned) and into
/// whatever else the kernel keeps of the line, `more`.
#[derive(Debug, Clone, Default)]
struct LineCarry<M> {
    depth: usize,
    sums: Vec<f64>,
    more: M,
}

/// What an argmax kernel keeps between the rounds of one run over one
/// cube: per image line, the running sums of its pixels and how many
/// vectors of the growing system they cover; and the vectors themselves,
/// to tell whether the system it is handed next still starts with them.
/// Name it through [`ProjectionCarry`] or [`FclsCarry`].
///
/// **A carry belongs to the image lines, not to whoever scores them.** It
/// is a `Sync` store with one lock per line, taken by `&`: whoever scores
/// a line next — the same rank, another worker of a self-scheduled run,
/// the survivor a crashed worker's chunk was re-planned onto — continues
/// it from the depth it was left at. Its *owner* decides who shares it:
/// `seq` holds one, `par` one per rank (static partitions never trade
/// lines, so no two ranks ever meet on a lock), `sched` one per run, in
/// the chunked algorithm every worker already borrows. A carry only ever
/// reproduces the bits of a scan from nothing, so sharing changes host
/// time and nothing else.
///
/// Lines are indexed as the cube of the first scan indexes them and
/// allocate their sums on first touch, so a carry costs memory only for
/// the lines that were scanned. Locks: a scan reconciles the system under
/// `seen`, releases it, then holds one line lock at a time; only a
/// diverged system takes line locks while holding `seen` (`seen` → lines,
/// never the reverse).
#[derive(Debug, Default)]
pub struct Carry<M = ()> {
    /// The leading vectors every line's sums were formed from: a line at
    /// depth `d` holds sums over `seen[..d]`.
    seen: Mutex<Vec<Vec<f64>>>,
    /// Counts the systems that diverged from `seen`; bumped under `seen`
    /// before any line is reset. A scan that reconciled under an earlier
    /// epoch no longer knows what the lines hold and leaves them alone.
    epoch: AtomicU64,
    lines: OnceLock<Box<[Mutex<LineCarry<M>>]>>,
    /// Host-work tallies: vectors folded into a line, lines started from
    /// nothing.
    applied: AtomicUsize,
    started: AtomicUsize,
}

/// Takes `lock` over from a holder that panicked: whatever it was writing
/// is dropped for `T::default()`, and the poison is cleared so the next
/// taker pays nothing. Returns the guard and whether that happened.
fn take_over<T: Default>(lock: &Mutex<T>) -> (MutexGuard<'_, T>, bool) {
    match lock.lock() {
        Ok(guard) => (guard, false),
        Err(poisoned) => {
            lock.clear_poison();
            let mut guard = poisoned.into_inner();
            *guard = T::default();
            (guard, true)
        }
    }
}

impl<M: Default> Carry<M> {
    /// Reconciles the carry with the system `vector(0..k)` a scan of
    /// `cube` is about to score against, and returns the epoch the scan
    /// may use line states under ([`Carry::with_line`]).
    ///
    /// The sums of a line at depth `d` are only meaningful for a system
    /// whose first `d` vectors are, bit for bit, the ones they were
    /// formed from. A system that is a prefix of the recorded one, or
    /// extends it, leaves every line alone (a line deeper than `k`
    /// restarts when it is next scored). One that differs inside the
    /// recorded run cuts the record there and restarts every line that
    /// went deeper — correct against any system, merely slower.
    fn reconcile<'v>(
        &self,
        cube: &HyperCube,
        k: usize,
        vector: impl Fn(usize) -> &'v [f64],
    ) -> u64 {
        let same_bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let lines = self.lines.get_or_init(|| {
            (0..cube.lines())
                .map(|_| Mutex::new(LineCarry::default()))
                .collect()
        });
        let (mut seen, lost) = take_over(&self.seen);
        let common = k.min(seen.len());
        let shared = (0..common)
            .take_while(|&i| same_bits(&seen[i], vector(i)))
            .count();
        if lost || shared < common {
            seen.truncate(shared);
            self.epoch.fetch_add(1, Ordering::SeqCst);
            for line in lines.iter() {
                let (mut state, _) = take_over(line);
                if state.depth > shared {
                    *state = LineCarry::default();
                }
            }
        }
        let known = seen.len();
        seen.extend((known..k).map(|i| vector(i).to_vec()));
        self.epoch.load(Ordering::SeqCst)
    }

    /// Runs `score` on `line`'s state for a scan against `k` vectors that
    /// reconciled under `epoch`. The state is the line's own, continued
    /// by whoever scores it next, unless it cannot be trusted or kept —
    /// a holder panicked over it, it is deeper than `k` (it belongs to a
    /// later round, or to an earlier run of a reused carry), another
    /// system has diverged since `epoch`, or the carry was sized for a
    /// shorter cube. Then `score` starts from the empty state, which is
    /// a scan from nothing.
    fn with_line<R>(
        &self,
        line: usize,
        k: usize,
        epoch: u64,
        score: impl FnOnce(&mut LineCarry<M>) -> R,
    ) -> R {
        let Some(lock) = self.lines.get().and_then(|lines| lines.get(line)) else {
            return score(&mut LineCarry::default());
        };
        let (mut state, _) = take_over(lock);
        if self.epoch.load(Ordering::SeqCst) != epoch {
            return score(&mut LineCarry::default());
        }
        if state.depth > k {
            *state = LineCarry::default();
        }
        score(&mut state)
    }

    /// Tallies one line brought from `depth` to `k` vectors, from nothing
    /// when `fresh`.
    fn count(&self, fresh: bool, depth: usize, k: usize) {
        self.applied.fetch_add(k - depth, Ordering::Relaxed);
        self.started
            .fetch_add(usize::from(fresh), Ordering::Relaxed);
    }

    /// Host work done through this carry so far: `(system vectors folded
    /// into a line's sums, lines started from nothing)`, summed over
    /// every scan. A scan that finds a line at the depth the last round
    /// left it folds one vector in; one that finds it empty folds them
    /// all. Not a cost the virtual clock reads.
    #[doc(hidden)]
    pub fn applied(&self) -> (usize, usize) {
        (
            self.applied.load(Ordering::Relaxed),
            self.started.load(Ordering::Relaxed),
        )
    }
}

/// A deep copy: the clone's lines are its own, continued separately.
impl<M: Clone + Default> Clone for Carry<M> {
    fn clone(&self) -> Self {
        let copy_of = |line: &Mutex<LineCarry<M>>| Mutex::new(take_over(line).0.clone());
        let lines: Option<Box<[_]>> = self
            .lines
            .get()
            .map(|held| held.iter().map(copy_of).collect());
        let (applied, started) = self.applied();
        Carry {
            seen: Mutex::new(take_over(&self.seen).0.clone()),
            epoch: AtomicU64::new(self.epoch.load(Ordering::SeqCst)),
            lines: lines.map(OnceLock::from).unwrap_or_default(),
            applied: AtomicUsize::new(applied),
            started: AtomicUsize::new(started),
        }
    }
}

/// Chunk-parallel argmax over the pixels of a line range.
///
/// `make_scorer` builds one (possibly stateful) line-scoring closure per
/// chunk, so scorers may own scratch buffers without synchronisation. A
/// scorer is handed a line and a buffer to fill with the line's scores,
/// one per sample.
/// Each chunk is scanned sequentially in row-major order keeping its
/// first strict maximum; chunk winners are then folded **in chunk
/// order**, replacing only on a strictly greater score. Both levels use
/// the same strict `>`, so the overall winner is exactly the first
/// row-major maximum — identical to a sequential scan for any worker
/// count, including on duplicate scores.
fn argmax_pixels<S>(
    cube: &HyperCube,
    range: (usize, usize),
    make_scorer: impl Fn() -> S + Sync,
) -> Option<ScoredPixel>
where
    S: FnMut(usize, &mut [f64]),
{
    let bests: Vec<Option<ScoredPixel>> = (0..chunk_count(range))
        .into_par_iter()
        .map(|c| {
            let (clo, chi) = chunk_bounds(range, c);
            let mut score_line = make_scorer();
            let mut scores = vec![0.0f64; cube.samples()];
            let mut best: Option<ScoredPixel> = None;
            for line in clo..chi {
                score_line(line, &mut scores);
                for (sample, &s) in scores.iter().enumerate() {
                    let better = match &best {
                        None => true,
                        Some(b) => s > b.score,
                    };
                    if better {
                        best = Some(ScoredPixel {
                            line,
                            sample,
                            score: s,
                        });
                    }
                }
            }
            best
        })
        .collect();
    let mut overall: Option<ScoredPixel> = None;
    for b in bests.into_iter().flatten() {
        let better = match &overall {
            None => true,
            Some(o) => b.score > o.score,
        };
        if better {
            overall = Some(b);
        }
    }
    overall
}

/// ATDCA step 2: the brightest pixel (`argmax xᵀx`) within lines
/// `[range.0, range.1)` of the block. Returns `None` on empty ranges.
pub fn brightest(cube: &HyperCube, range: (usize, usize)) -> (Option<ScoredPixel>, f64) {
    let n = cube.bands();
    let pixels = range_pixels(cube, range);
    let result = argmax_pixels(cube, range, || {
        |line: usize, scores: &mut [f64]| {
            for (sample, score) in scores.iter_mut().enumerate() {
                *score = brightness(cube.pixel(line, sample));
            }
        }
    });
    (result, flops::mflop(flops::brightness(n) * pixels as f64))
}

/// Each pixel's running ATDCA residual `‖x‖² − Σᵢ (qᵢᵀx)²` (8 bytes a
/// pixel), kept by [`max_projection_carried`] between the rounds of one
/// run over one cube. `Default` is the empty carry.
pub type ProjectionCarry = Carry;

/// ATDCA step 4: the pixel maximising the orthogonal-projection score
/// `(P_U^⊥ x)ᵀ(P_U^⊥ x)` against the current basis.
pub fn max_projection(
    cube: &HyperCube,
    basis: &OrthoBasis,
    range: (usize, usize),
) -> (Option<ScoredPixel>, f64) {
    max_projection_carried(cube, basis, range, &ProjectionCarry::default())
}

/// [`max_projection`] for a caller that scans the same cube round after
/// round against a basis that only grows: each line continues its
/// pixels' residuals from the depth `carry` recorded — whoever left it
/// there — so a round that pushed one vector costs one dot per pixel
/// instead of `basis.len()`.
/// Scores are [`OrthoBasis::complement_score`]'s to the bit — the
/// subtraction is the same left-to-right sum, resumed; the clamp is
/// applied to the score, never to the carried sum. A carry that last saw
/// a different basis restarts the lines it must.
/// The megaflops returned are those of the full re-projection.
pub fn max_projection_carried(
    cube: &HyperCube,
    basis: &OrthoBasis,
    range: (usize, usize),
    carry: &ProjectionCarry,
) -> (Option<ScoredPixel>, f64) {
    let n = cube.bands();
    let k = basis.len();
    let pixels = range_pixels(cube, range);
    let epoch = carry.reconcile(cube, k, |i| basis.vector(i));
    let result = argmax_pixels(cube, range, || {
        |line: usize, scores: &mut [f64]| {
            carry.with_line(line, k, epoch, |state| {
                let (fresh, depth) = projection_line_scores(cube, basis, line, state, scores);
                carry.count(fresh, depth, k);
            })
        }
    });
    (
        result,
        flops::mflop(flops::projection_score(n, k) * pixels as f64),
    )
}

/// One line of the projection scan: brings `state` — the line's residuals
/// against the first `state.depth` basis vectors — up to the whole basis
/// and fills `scores`. Returns whether the line was started from nothing,
/// and the depth it was continued from.
fn projection_line_scores(
    cube: &HyperCube,
    basis: &OrthoBasis,
    line: usize,
    state: &mut LineCarry<()>,
    scores: &mut [f64],
) -> (bool, usize) {
    let k = basis.len();
    let fresh = state.sums.len() != scores.len();
    if fresh {
        state.sums.clear();
        state.sums.resize(scores.len(), 0.0);
        state.depth = 0;
    }
    let depth = state.depth;
    if fresh || depth < k {
        // The line's samples, sliced out of the cube's window once: the
        // pixel groups below index a plain slice.
        let n = cube.bands();
        let stride = scores.len() * n;
        let row = &cube.as_slice()[line * stride..(line + 1) * stride];
        let mut groups = state.sums.chunks_exact_mut(ABREAST);
        let mut first = 0;
        for group in &mut groups {
            let xs = &row[first * n..(first + ABREAST) * n];
            continue_residuals::<ABREAST>(xs, basis, fresh, depth, group);
            first += ABREAST;
        }
        for (i, sum) in groups.into_remainder().chunks_exact_mut(1).enumerate() {
            let x = &row[(first + i) * n..(first + i + 1) * n];
            continue_residuals::<1>(x, basis, fresh, depth, sum);
        }
        state.depth = k;
    }
    for (score, &sum) in scores.iter_mut().zip(&state.sums) {
        *score = sum.max(0.0);
    }
    (fresh, depth)
}

/// Brings the carried residuals of the `L` neighbouring pixels whose
/// spectra are `pixels`, end to end, up to the whole basis: started from
/// `‖x‖²` when `fresh`, else continued from `sums` at `depth`.
///
/// Kept a function of its own: inlined into the line scan, the four
/// accumulator chains share that function's registers with everything
/// else it holds and spill (measured: a one-vector round 400 → 540 µs on
/// the 256 × 16 scene).
#[inline(never)]
fn continue_residuals<const L: usize>(
    pixels: &[f32],
    basis: &OrthoBasis,
    fresh: bool,
    depth: usize,
    sums: &mut [f64],
) {
    let n = pixels.len() / L;
    let xs: [&[f32]; L] = std::array::from_fn(|i| &pixels[i * n..(i + 1) * n]);
    let from = if fresh {
        dots_abreast(xs, xs)
    } else {
        std::array::from_fn(|i| sums[i])
    };
    sums.copy_from_slice(&basis.residual_from(xs, depth, from));
}

/// Each pixel's dots with the endmembers, `uᵢᵀx` (8 bytes a pixel and
/// endmember), and the trail and score of its latest NNLS iteration
/// ([`NnlsTrails`]: ≈ 0.3 KiB a pixel at `t = 18`), kept by
/// [`max_fcls_error_carried`] between the rounds of one run over one
/// cube. `Default` is the empty carry.
pub type FclsCarry = Carry<NnlsTrails>;

/// UFCLS steps 2–3: the pixel with the largest fully-constrained
/// least-squares reconstruction error against the endmember set.
///
/// Each chunk's scorer owns one [`FclsWorkspace`], so the pixel loop
/// allocates nothing; a workspace carries nothing from pixel to pixel,
/// and what a carry keeps of a pixel only ever reproduces the from-empty
/// solve's bits, so a score is a pure function of `(problem, pixel)`. A
/// pixel whose solve fails can only come from a singular endmember set;
/// it ranks below every solved one.
pub fn max_fcls_error(
    cube: &HyperCube,
    problem: &FclsProblem,
    range: (usize, usize),
) -> (Option<ScoredPixel>, f64) {
    // Nothing outlives the call, so nothing is kept per line: each chunk
    // restarts one line state, which is an empty carry's at every line.
    let result = argmax_pixels(cube, range, || {
        let (mut ws, mut state) = (FclsWorkspace::new(), LineCarry::default());
        move |line: usize, scores: &mut [f64]| {
            state.depth = 0;
            fcls_line_scores(cube, problem, line, &mut state, &mut ws, scores);
        }
    });
    (result, fcls_mflops(cube, problem, range))
}

/// [`max_fcls_error`] for a caller that scans the same cube round after
/// round against an endmember set that only grows: each line keeps its
/// pixels' endmember dots (laid out endmember-major, so a round appends)
/// and active-set trails — for whoever scores it next — so a round that
/// pushed one endmember forms one new dot per pixel instead of all of
/// them, skips the solve and the residual of every pixel whose
/// active-set path the newcomer does not change, and resumes the others'
/// where it first does ([`FclsProblem::solve_f32_line`]). Scores are
/// [`FclsProblem::solve_f32_in`]'s to the bit. A carry that last saw a
/// different set restarts the lines it must, dots and trails.
/// The megaflops returned are those of the full unmixing.
pub fn max_fcls_error_carried(
    cube: &HyperCube,
    problem: &FclsProblem,
    range: (usize, usize),
    carry: &FclsCarry,
) -> (Option<ScoredPixel>, f64) {
    let t = problem.num_endmembers();
    let epoch = carry.reconcile(cube, t, |i| problem.endmember(i));
    let result = argmax_pixels(cube, range, || {
        let mut ws = FclsWorkspace::new();
        move |line: usize, scores: &mut [f64]| {
            carry.with_line(line, t, epoch, |state| {
                let depth = fcls_line_scores(cube, problem, line, state, &mut ws, scores);
                carry.count(depth == 0, depth, t);
            })
        }
    });
    (result, fcls_mflops(cube, problem, range))
}

/// The paper's full unmixing of the pixels of `range`, in megaflops.
fn fcls_mflops(cube: &HyperCube, problem: &FclsProblem, range: (usize, usize)) -> f64 {
    let per_pixel = flops::fcls(cube.bands(), problem.num_endmembers());
    flops::mflop(per_pixel * range_pixels(cube, range) as f64)
}

/// One line of the FCLS scan: brings `state` — the line's dots and trails
/// against the first `state.depth` endmembers — up to the whole problem
/// and fills `scores`, `−∞` for a pixel whose solve fails. Returns the
/// depth the line was continued from.
fn fcls_line_scores(
    cube: &HyperCube,
    problem: &FclsProblem,
    line: usize,
    state: &mut LineCarry<NnlsTrails>,
    ws: &mut FclsWorkspace,
    scores: &mut [f64],
) -> usize {
    let t = problem.num_endmembers();
    let samples = scores.len();
    let stride = samples * cube.bands();
    if state.sums.len() != state.depth * samples {
        state.depth = 0;
    }
    let depth = state.depth;
    state.sums.resize(t * samples, 0.0);
    scores.fill(f64::NEG_INFINITY);
    // A pixel's new dots are formed before its solve, so they are
    // kept even when that fails.
    let shaped = problem.solve_f32_line(
        &cube.as_slice()[line * stride..(line + 1) * stride],
        depth,
        &mut state.sums,
        &mut state.more,
        ws,
        |sample, solved| {
            debug_assert!(solved.is_ok(), "max_fcls_error: {solved:?}");
            if let Ok(residual_sq) = solved {
                scores[sample] = residual_sq;
            }
        },
    );
    debug_assert!(shaped.is_ok(), "max_fcls_error: {shaped:?}");
    if shaped.is_ok() {
        state.depth = t;
    }
    depth
}

/// PCT step 2: greedily builds a set of spectrally distinct pixels — a
/// pixel joins when its SAD to every current member exceeds
/// `threshold`; the set is capped at `cap` members. Returns local
/// scored pixels (score = min SAD to the set at admission time).
pub fn unique_set(
    cube: &HyperCube,
    range: (usize, usize),
    threshold: f64,
    cap: usize,
) -> (Vec<ScoredPixel>, f64) {
    let n = cube.bands();
    let (lo, hi) = range;
    let mut members: Vec<(ScoredPixel, Vec<f32>)> = Vec::new();
    // Charged as a full scan of the current set for every pixel ("SAD
    // for all vector pairs", paper step 2); the real loop exits early on
    // a near-duplicate or a full set, which does not change the result.
    let mut sad_evals = 0usize;
    for line in lo..hi {
        for sample in 0..cube.samples() {
            sad_evals += members.len();
            if members.len() >= cap {
                continue;
            }
            let px = cube.pixel(line, sample);
            let mut min_sad = f64::INFINITY;
            for (_, m) in &members {
                let d = sad(px, m);
                if d < min_sad {
                    min_sad = d;
                }
                if d <= threshold {
                    break;
                }
            }
            if min_sad > threshold {
                members.push((
                    ScoredPixel {
                        line,
                        sample,
                        score: min_sad.min(f64::MAX),
                    },
                    px.to_vec(),
                ));
            }
        }
    }
    let mflops = flops::mflop(flops::sad(n) * sad_evals as f64);
    (members.into_iter().map(|(p, _)| p).collect(), mflops)
}

/// PCT steps 4–5: accumulates the block's mean/covariance partial sums.
///
/// Each fixed line chunk feeds the cache-blocked
/// [`CovarianceAccumulator::push_pixels_f32`] over its contiguous BIP
/// region; chunk partials are merged **in chunk order**, so the result
/// is identical for any thread count. (The chunked summation groups
/// floating-point additions differently from a single unchunked stream,
/// but virtual-time accounting is analytic in the pixel count, so
/// experiment timings are unaffected — see `docs/PERF.md`.)
///
/// The later chunks are folded into the **first chunk's** partial, not
/// into a zeroed total: every sum of a partial started from `+0.0`, so it
/// is never `−0.0`, and `+0.0 + x` is `x` to the bit for every other `x`
/// — the total has the bits the zeroed start gave it, and a one-chunk
/// range allocates one accumulator, which
/// [`CovarianceAccumulator::into_flat`] ships as it is.
pub fn covariance_partial(cube: &HyperCube, range: (usize, usize)) -> (CovarianceAccumulator, f64) {
    let n = cube.bands();
    let stride = cube.samples() * n;
    let partials: Vec<CovarianceAccumulator> = (0..chunk_count(range))
        .into_par_iter()
        .map(|c| {
            let (clo, chi) = chunk_bounds(range, c);
            let mut acc = CovarianceAccumulator::new(n);
            acc.push_pixels_f32(&cube.as_slice()[clo * stride..chi * stride]);
            acc
        })
        .collect();
    let mut partials = partials.into_iter();
    let mut acc = partials
        .next()
        .unwrap_or_else(|| CovarianceAccumulator::new(n));
    for p in partials {
        acc.merge(&p).expect("covariance_partial: same dim");
    }
    let pixels = range_pixels(cube, range);
    (
        acc,
        flops::mflop(flops::covariance_accumulate(n) * pixels as f64),
    )
}

/// PCT steps 8–9: transforms each pixel with `T·(x − m)` and labels it
/// by the most SAD-similar class representative in transformed space.
/// Returns row-major labels for the range.
pub fn pct_label(
    cube: &HyperCube,
    range: (usize, usize),
    transform: &Matrix,
    mean: &[f64],
    class_reps: &[Vec<f64>],
) -> (Vec<u16>, f64) {
    let n = cube.bands();
    let c = transform.rows();
    let mut reps32: Vec<Vec<f32>> = class_reps
        .iter()
        .map(|r| r.iter().map(|&v| v as f32).collect())
        .collect();
    // Guard degenerate models.
    if reps32.is_empty() {
        reps32.push(vec![0.0; c]);
    }
    let reps32 = SadCandidates::new(&reps32);
    let reps32 = &reps32;
    // One preassembled label buffer, written in place by the chunk
    // workers; `par_chunks_mut` at `PAR_CHUNK_LINES × samples` pixels
    // yields exactly the fixed chunk grid (the last chunk is the
    // remainder), so no per-chunk Vec or final concat is needed. Each
    // chunk reuses its three scratch buffers across every pixel.
    let samples = cube.samples();
    let pixels = range_pixels(cube, range);
    let mut labels = vec![0u16; pixels];
    labels
        .par_chunks_mut((PAR_CHUNK_LINES * samples).max(1))
        .enumerate()
        .for_each(|(ci, part)| {
            let (clo, chi) = chunk_bounds(range, ci);
            debug_assert_eq!(part.len(), (chi - clo) * samples);
            let mut centred = vec![0.0f64; n];
            let mut projected = vec![0.0f64; c];
            let mut proj32 = vec![0.0f32; c];
            for line in clo..chi {
                for sample in 0..samples {
                    let px = cube.pixel(line, sample);
                    for (i, &v) in px.iter().enumerate() {
                        centred[i] = v as f64 - mean[i];
                    }
                    transform
                        .matvec_into(&centred, &mut projected)
                        .expect("pct_label: transform shape");
                    for (o, &v) in proj32.iter_mut().zip(projected.iter()) {
                        *o = v as f32;
                    }
                    let best = reps32.nearest(&proj32).unwrap_or(0);
                    part[(line - clo) * samples + sample] = best as u16;
                }
            }
        });
    let mflops = flops::mflop(
        (flops::pct_transform(n, c) + flops::pct_classify(c, class_reps.len().max(1)))
            * pixels as f64,
    );
    (labels, mflops)
}

/// MORPH step 4: labels each pixel by the most SAD-similar class
/// spectrum (full spectral space).
pub fn sad_label(cube: &HyperCube, range: (usize, usize), classes: &[Vec<f32>]) -> (Vec<u16>, f64) {
    let n = cube.bands();
    // Same in-place chunk-grid write as `pct_label`: one output buffer,
    // no per-chunk Vecs, no concat.
    let samples = cube.samples();
    let pixels = range_pixels(cube, range);
    let mut labels = vec![0u16; pixels];
    let candidates = &SadCandidates::new(classes);
    labels
        .par_chunks_mut((PAR_CHUNK_LINES * samples).max(1))
        .enumerate()
        .for_each(|(ci, part)| {
            let (clo, chi) = chunk_bounds(range, ci);
            debug_assert_eq!(part.len(), (chi - clo) * samples);
            for line in clo..chi {
                for sample in 0..samples {
                    let best = candidates.nearest(cube.pixel(line, sample)).unwrap_or(0);
                    part[(line - clo) * samples + sample] = best as u16;
                }
            }
        });
    (
        labels,
        flops::mflop(flops::sad_classify(n, classes.len().max(1)) * pixels as f64),
    )
}

/// MORPH step 2: the MEI map over the whole block (halo included in the
/// computation), returning the `c` top-scoring **mutually distinct**
/// pixels among the owned lines `[range.0, range.1)`: scanning down the
/// MEI ranking, a pixel is nominated only when its SAD to every
/// already-nominated pixel exceeds `threshold` — so the nomination is a
/// *unique spectral set* (step 3's requirement) rather than `c` near
/// copies of the single most eccentric neighbourhood.
pub fn mei_top(
    cube: &HyperCube,
    se: &hsi_morpho::StructuringElement,
    iterations: usize,
    range: (usize, usize),
    c: usize,
    threshold: f64,
) -> (Vec<ScoredPixel>, f64) {
    let result = hsi_morpho::mei::mei(cube, se, iterations);
    let (lo, hi) = range;
    // Rank owned pixels by MEI score with row-major tie-break.
    let mut owned: Vec<ScoredPixel> = (lo..hi)
        .flat_map(|line| (0..cube.samples()).map(move |sample| (line, sample)))
        .map(|(line, sample)| ScoredPixel {
            line,
            sample,
            score: result.at(line, sample),
        })
        .collect();
    owned.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then((a.line, a.sample).cmp(&(b.line, b.sample)))
    });
    let mut kept: Vec<ScoredPixel> = Vec::with_capacity(c);
    let mut sad_evals = 0usize;
    for p in owned {
        if kept.len() >= c {
            break;
        }
        if p.score <= 0.0 && !kept.is_empty() {
            break; // zero-MEI pixels carry no information
        }
        let px = cube.pixel(p.line, p.sample);
        let distinct = kept.iter().all(|k| {
            sad_evals += 1;
            sad(px, cube.pixel(k.line, k.sample)) > threshold
        });
        if distinct {
            kept.push(p);
        }
    }
    let mflops = flops::mflop(
        flops::mei_iteration(cube.num_pixels(), cube.bands(), se.len()) * iterations as f64
            + flops::sad(cube.bands()) * sad_evals as f64,
    );
    (kept, mflops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi_cube::synth::{wtc_scene, WtcConfig};

    fn scene() -> hsi_cube::synth::SyntheticScene {
        wtc_scene(WtcConfig::tiny())
    }

    #[test]
    fn brightest_matches_cube_method() {
        let s = scene();
        let (best, mflops) = brightest(&s.cube, (0, s.cube.lines()));
        let best = best.unwrap();
        let ((l, smp), _) = s.cube.brightest_pixel().unwrap();
        assert_eq!((best.line, best.sample), (l, smp));
        assert!(mflops > 0.0);
    }

    #[test]
    fn brightest_on_subrange_stays_in_range() {
        let s = scene();
        let (best, _) = brightest(&s.cube, (10, 20));
        let best = best.unwrap();
        assert!((10..20).contains(&best.line));
        let (none, _) = brightest(&s.cube, (5, 5));
        assert!(none.is_none());
    }

    #[test]
    fn empty_and_inverted_ranges_score_nothing_and_cost_nothing() {
        let s = scene();
        let cube = &s.cube;
        let mut basis = OrthoBasis::new(cube.bands());
        basis.push(
            &cube
                .pixel(0, 0)
                .iter()
                .map(|&v| v as f64)
                .collect::<Vec<_>>(),
        );
        let problem = FclsProblem::new(Matrix::row_vector(basis.vector(0))).unwrap();
        let transform = Matrix::zeros(2, cube.bands());
        let mean = vec![0.0; cube.bands()];
        for range in [(5, 5), (5, 3)] {
            assert_eq!(brightest(cube, range), (None, 0.0));
            assert_eq!(max_projection(cube, &basis, range), (None, 0.0));
            assert_eq!(max_fcls_error(cube, &problem, range), (None, 0.0));
            assert_eq!(covariance_partial(cube, range).1, 0.0);
            assert_eq!(
                pct_label(cube, range, &transform, &mean, &[]),
                (vec![], 0.0)
            );
            assert_eq!(sad_label(cube, range, &s.class_signatures), (vec![], 0.0));
        }
    }

    #[test]
    fn projection_score_excludes_basis_member() {
        let s = scene();
        let (b0, _) = brightest(&s.cube, (0, s.cube.lines()));
        let b0 = b0.unwrap();
        let mut basis = OrthoBasis::new(s.cube.bands());
        let spec: Vec<f64> = s
            .cube
            .pixel(b0.line, b0.sample)
            .iter()
            .map(|&v| v as f64)
            .collect();
        basis.push(&spec);
        let (second, _) = max_projection(&s.cube, &basis, (0, s.cube.lines()));
        let second = second.unwrap();
        // The first target projects to ~zero, so the new argmax differs.
        assert_ne!((second.line, second.sample), (b0.line, b0.sample));
        assert!(second.score > 0.0);
    }

    #[test]
    fn fcls_error_highest_off_simplex() {
        let s = scene();
        // Endmember set = first two class signatures: pixels of other
        // classes should carry larger residuals than class-0 pixels.
        let u = Matrix::from_rows(&[
            &s.class_signatures[0]
                .iter()
                .map(|&v| v as f64)
                .collect::<Vec<_>>()[..],
            &s.class_signatures[1]
                .iter()
                .map(|&v| v as f64)
                .collect::<Vec<_>>()[..],
        ]);
        let prob = FclsProblem::new(u).unwrap();
        let (best, _) = max_fcls_error(&s.cube, &prob, (0, s.cube.lines()));
        let best = best.unwrap();
        assert!(best.score > 0.0);
        // The kernel's workspace scores exactly as a from-scratch solve.
        let alone = prob.solve_f32(s.cube.pixel(best.line, best.sample));
        assert_eq!(best.score.to_bits(), alone.unwrap().residual_sq.to_bits());
        // The argmax must be one of the thermal targets (way off the
        // two-endmember simplex).
        let coords: Vec<(usize, usize)> = s.targets.iter().map(|t| t.coord).collect();
        assert!(
            coords.contains(&(best.line, best.sample)),
            "best = {:?}",
            (best.line, best.sample)
        );
    }

    #[test]
    fn unique_set_respects_threshold_and_cap() {
        let s = scene();
        let (set, _) = unique_set(&s.cube, (0, s.cube.lines()), 0.08, 10);
        assert!(!set.is_empty());
        assert!(set.len() <= 10);
        // Members must be pairwise distinct beyond the threshold.
        for i in 0..set.len() {
            for j in (i + 1)..set.len() {
                let a = s.cube.pixel(set[i].line, set[i].sample);
                let b = s.cube.pixel(set[j].line, set[j].sample);
                assert!(sad(a, b) > 0.08, "members {i},{j} too close");
            }
        }
    }

    #[test]
    fn covariance_partials_merge_to_whole() {
        let s = scene();
        let lines = s.cube.lines();
        let (whole, _) = covariance_partial(&s.cube, (0, lines));
        let (mut a, _) = covariance_partial(&s.cube, (0, lines / 2));
        let (b, _) = covariance_partial(&s.cube, (lines / 2, lines));
        a.merge(&b).unwrap();
        assert_eq!(a.count(), whole.count());
        assert!(a
            .covariance()
            .unwrap()
            .approx_eq(&whole.covariance().unwrap(), 1e-9));
    }

    fn f64_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The PCT-partial pin: folding into the first chunk's partial moves
    /// no bit against the zeroed total it replaces, a one-chunk range is
    /// the blocked push itself, and the moved buffer is the copied one.
    #[test]
    fn covariance_partial_keeps_the_bits_of_a_zeroed_total() {
        let s = scene();
        let cube = &s.cube;
        let stride = cube.samples() * cube.bands();
        let pushed = |lo: usize, hi: usize| {
            let mut acc = CovarianceAccumulator::new(cube.bands());
            acc.push_pixels_f32(&cube.as_slice()[lo * stride..hi * stride]);
            acc
        };
        for range in [(3, 3 + PAR_CHUNK_LINES), (5, 7), (0, cube.lines()), (2, 29)] {
            let mut total = CovarianceAccumulator::new(cube.bands());
            for c in 0..chunk_count(range) {
                let (clo, chi) = chunk_bounds(range, c);
                total.merge(&pushed(clo, chi)).unwrap();
            }
            let (acc, _) = covariance_partial(cube, range);
            assert_eq!(f64_bits(&acc.to_flat()), f64_bits(&total.to_flat()));
            if chunk_count(range) == 1 {
                let alone = pushed(range.0, range.1);
                assert_eq!(f64_bits(&acc.to_flat()), f64_bits(&alone.to_flat()));
            }
            let copied = acc.to_flat();
            assert_eq!(f64_bits(&acc.into_flat()), f64_bits(&copied));
        }
    }

    fn wide(px: &[f32]) -> Vec<f64> {
        px.iter().map(|&v| f64::from(v)).collect()
    }

    /// Bases over the first `1..=k` of some spread-out pixels of `cube`.
    fn growing_bases(cube: &HyperCube, k: usize) -> Vec<OrthoBasis> {
        let mut basis = OrthoBasis::new(cube.bands());
        (0..k)
            .map(|i| {
                assert!(basis.push(&wide(cube.pixel_flat(i * 131 + 7))));
                basis.clone()
            })
            .collect()
    }

    /// Endmember problems over the first `1..=t` of the same pixels.
    fn growing_problems(cube: &HyperCube, t: usize) -> Vec<FclsProblem> {
        let first = wide(cube.pixel_flat(7));
        let mut problem = FclsProblem::new(Matrix::row_vector(&first)).unwrap();
        let mut grown = vec![problem.clone()];
        for i in 1..t {
            problem.push(&wide(cube.pixel_flat(i * 131 + 7))).unwrap();
            grown.push(problem.clone());
        }
        grown
    }

    fn scored(best: &(Option<ScoredPixel>, f64)) -> (Option<(usize, usize, u64)>, u64) {
        let pixel = best
            .0
            .as_ref()
            .map(|b| (b.line, b.sample, b.score.to_bits()));
        (pixel, best.1.to_bits())
    }

    /// A line found deeper than the system it is asked about — a later
    /// round's sums, or an earlier run's on a reused carry — restarts;
    /// the record of the longer system stays, so going back up continues.
    #[test]
    fn a_line_deeper_than_the_system_restarts_alone() {
        let s = scene();
        let cube = &s.cube;
        let (lines, whole) = (cube.lines(), (0, cube.lines()));
        let bases = growing_bases(cube, 3);
        let carry = ProjectionCarry::default();
        max_projection_carried(cube, &bases[2], whole, &carry);
        assert_eq!(carry.applied(), (3 * lines, lines));
        // Half the image against the one-vector prefix.
        let half = (0, lines / 2);
        let got = max_projection_carried(cube, &bases[0], half, &carry);
        assert_eq!(scored(&got), scored(&max_projection(cube, &bases[0], half)));
        assert_eq!(carry.applied(), (3 * lines + lines / 2, lines + lines / 2));
        // Back up: the restarted half folds two vectors in, the rest none.
        let got = max_projection_carried(cube, &bases[2], whole, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_projection(cube, &bases[2], whole))
        );
        assert_eq!(carry.applied(), (4 * lines + lines / 2, lines + lines / 2));

        let problems = growing_problems(cube, 3);
        let carry = FclsCarry::default();
        max_fcls_error_carried(cube, &problems[2], whole, &carry);
        let got = max_fcls_error_carried(cube, &problems[0], half, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_fcls_error(cube, &problems[0], half))
        );
        assert_eq!(carry.applied(), (3 * lines + lines / 2, lines + lines / 2));
        let got = max_fcls_error_carried(cube, &problems[2], whole, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_fcls_error(cube, &problems[2], whole))
        );
        assert_eq!(carry.applied(), (4 * lines + lines / 2, lines + lines / 2));
    }

    /// Panics on its own thread while holding `lock`.
    fn poison<T: Send>(lock: &Mutex<T>) {
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = lock.lock().unwrap();
                    panic!("injected: a kernel panics while it holds the lock");
                })
                .join()
        });
        assert!(died.is_err() && lock.is_poisoned());
    }

    /// A kernel panic on another rank leaves a line lock poisoned: the
    /// next scorer takes the line over and restarts it — no second panic,
    /// no hang, the stateless kernel's bits. Likewise the system record.
    #[test]
    fn a_poisoned_lock_is_taken_over_and_the_line_restarted() {
        let s = scene();
        let cube = &s.cube;
        let (lines, whole) = (cube.lines(), (0, cube.lines()));
        let bases = growing_bases(cube, 3);
        let carry = ProjectionCarry::default();
        max_projection_carried(cube, &bases[1], whole, &carry);
        poison(&carry.lines.get().unwrap()[5]);
        let got = max_projection_carried(cube, &bases[2], whole, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_projection(cube, &bases[2], whole))
        );
        // Line 5 alone started over: three vectors, the others one each.
        assert_eq!(carry.applied(), (2 * lines + lines + 2, lines + 1));
        assert!(!carry.lines.get().unwrap()[5].is_poisoned());
        // The record itself: nothing it said can be trusted, every line
        // restarts.
        poison(&carry.seen);
        let got = max_projection_carried(cube, &bases[2], whole, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_projection(cube, &bases[2], whole))
        );
        assert_eq!(carry.applied().1, 2 * lines + 1);
        assert!(!carry.seen.is_poisoned());

        let problems = growing_problems(cube, 3);
        let carry = FclsCarry::default();
        max_fcls_error_carried(cube, &problems[1], whole, &carry);
        poison(&carry.lines.get().unwrap()[5]);
        let got = max_fcls_error_carried(cube, &problems[2], whole, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_fcls_error(cube, &problems[2], whole))
        );
        assert_eq!(carry.applied(), (2 * lines + lines + 2, lines + 1));
    }

    /// A scan that reconciled before another system diverged no longer
    /// knows what the lines hold: it scores from nothing and writes
    /// nothing back.
    #[test]
    fn a_scan_overtaken_by_a_diverged_system_leaves_the_lines_alone() {
        let s = scene();
        let cube = &s.cube;
        let bases = growing_bases(cube, 2);
        let mut forked = bases[0].clone();
        assert!(forked.push(&vec![1.0; cube.bands()]));
        let carry = ProjectionCarry::default();
        max_projection_carried(cube, &bases[0], (0, cube.lines()), &carry);
        let early = carry.reconcile(cube, 2, |i| bases[1].vector(i));
        let late = carry.reconcile(cube, 2, |i| forked.vector(i));
        assert_ne!(early, late);
        carry.with_line(3, 2, early, |state| {
            assert!(
                state.sums.is_empty(),
                "an overtaken scan starts from nothing"
            );
            state.depth = 2;
            state.sums = vec![f64::NAN; cube.samples()];
        });
        // The shared first vector's sums are still there for the fork.
        carry.with_line(3, 2, late, |state| {
            assert_eq!((state.depth, state.sums.len()), (1, cube.samples()));
            assert!(state.sums.iter().all(|v| v.is_finite()));
        });
        // A cube taller than the one the carry was sized for: scored
        // from nothing, kept nowhere.
        carry.with_line(cube.lines(), 2, late, |state| {
            assert!(state.sums.is_empty())
        });
    }

    /// `Clone` copies the lines: the clone continues on its own.
    #[test]
    fn a_cloned_carry_does_not_alias_its_lines() {
        let s = scene();
        let cube = &s.cube;
        let (lines, whole) = (cube.lines(), (0, cube.lines()));
        let bases = growing_bases(cube, 2);
        let carry = ProjectionCarry::default();
        max_projection_carried(cube, &bases[0], whole, &carry);
        let copy = carry.clone();
        max_projection_carried(cube, &bases[1], whole, &copy);
        assert_eq!((carry.applied().0, copy.applied().0), (lines, 2 * lines));
        let got = max_projection_carried(cube, &bases[1], whole, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_projection(cube, &bases[1], whole))
        );
        assert_eq!(carry.applied().0, 2 * lines);
    }

    #[test]
    fn sad_label_assigns_nearest_class() {
        let s = scene();
        let classes: Vec<Vec<f32>> = s.class_signatures.clone();
        let (labels, _) = sad_label(&s.cube, (0, s.cube.lines()), &classes);
        assert_eq!(labels.len(), s.cube.num_pixels());
        // Most pixels should match their ground-truth class (the class
        // signatures ARE the generators).
        let mut hits = 0;
        for (i, &l) in labels.iter().enumerate() {
            let (line, sample) = s.cube.coord_of(i);
            if l == s.truth.get(line, sample) {
                hits += 1;
            }
        }
        assert!(
            hits as f64 / labels.len() as f64 > 0.6,
            "{hits}/{}",
            labels.len()
        );
    }

    #[test]
    fn mei_top_returns_owned_lines_only() {
        let s = scene();
        let se = hsi_morpho::StructuringElement::square(1);
        let (top, mflops) = mei_top(&s.cube, &se, 2, (10, 20), 5, 0.04);
        assert!(!top.is_empty() && top.len() <= 5);
        for p in &top {
            assert!((10..20).contains(&p.line));
        }
        // Nominations are mutually distinct beyond the threshold.
        for i in 0..top.len() {
            for j in (i + 1)..top.len() {
                let a = s.cube.pixel(top[i].line, top[i].sample);
                let b = s.cube.pixel(top[j].line, top[j].sample);
                assert!(hsi_cube::metrics::sad(a, b) > 0.04);
            }
        }
        assert!(mflops > 0.0);
        // Scores sorted descending.
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn scored_pixel_global_coordinates() {
        let s = scene();
        let p = ScoredPixel {
            line: 5,
            sample: 3,
            score: 1.0,
        };
        // Block owned from global line 100 with 2 halo lines prepended.
        let c = p.to_candidate(&s.cube, 100, 2);
        assert_eq!(c.line, 103);
        assert_eq!(c.sample, 3);
        assert_eq!(c.spectrum, s.cube.pixel(5, 3).to_vec());
    }
}
