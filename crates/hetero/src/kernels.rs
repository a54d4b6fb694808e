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
//! The covariance and labelling kernels work on a **fixed line-chunk
//! grid** ([`PAR_CHUNK_LINES`]) with order-preserving reduction: the
//! labelling scans are data-parallel over the chunks, the covariance sums
//! are split across threads by rows of `Σxxᵀ`, each cell summed by one
//! thread in chunk order. The argmax scans run one block of lines per
//! worker and fold the block winners in order under a strict `>`. So
//! their outputs are bit-identical for any thread count; the thread budget is
//! whatever `rayon` pool the caller installed (one per simulated rank
//! under `simnet::engine`, as wide as the host for a master's merge).
//! Wall-clock speed changes, **virtual time does not**: the returned
//! megaflop counts are analytic in the scan size either way.
//!
//! ATDCA and UFCLS call their argmax kernel once per round against a
//! system that grew by one vector, so the two kernels can **carry** each
//! pixel's running sums from round to round ([`ProjectionCarry`],
//! [`FclsCarry`]) and apply only the vectors a pixel has not seen; UFCLS
//! carries each pixel's NNLS active-set trail as well, and solves only
//! from the step the new endmembers first change. Both prune by proof: a
//! pixel whose carried bound is below its block's running best forms no
//! dot that round. That too is host wall-clock only: the megaflops
//! returned are the paper's full per-round re-projection and unmixing
//! whatever the carry saved.
//!
//! Within a line the per-pixel 224-band sums — norms, projection and
//! endmember dots, FCLS residuals, SAD dots — run four pixels (or
//! candidates) at a time, and PCT's projections eight transform rows at a
//! time, one accumulator each: every sum keeps its own operands and
//! order, hence its bits, and stops waiting out the add latency alone.
//! Host wall-clock only, again.

use crate::flops;
use crate::msg::Candidate;
use hsi_cube::metrics::{brightness, sad, SadCandidates};
use hsi_cube::HyperCube;
use hsi_linalg::covariance::{CovarianceAccumulator, ShardBand};
use hsi_linalg::lstsq::{FclsProblem, FclsWorkspace, NnlsTrails, RECORD_HEAD};
use hsi_linalg::matrix::dots_abreast;
use hsi_linalg::ortho::OrthoBasis;
use hsi_linalg::Matrix;
use hsi_morpho::mei::MeiWorkspace;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// One image line of a carry: the line was last scanned against the first
/// `depth` vectors of the system, and its pixels' running `sums` (empty
/// until the line is first scanned) and whatever else the kernel keeps of
/// them, `more`, are formed from at most that many: a pixel a scan pruned
/// keeps the depth it had, which `more` records.
#[derive(Debug, Clone, Default)]
struct LineCarry<M> {
    depth: usize,
    sums: Vec<f64>,
    more: M,
}

/// What a kernel keeps of a line beside its sums: a buffer of its own,
/// emptied in place when the line restarts, which says how deep each
/// pixel is.
trait LineMemo {
    fn clear(&mut self);
    /// What it holds without reallocating.
    fn capacity(&self) -> usize;
    /// The pixels' depths, summed, on a line last scanned at `depth`.
    fn dots_held(&self, depth: usize) -> usize;
}

/// ATDCA's: how many vectors each pixel lags its line by.
impl LineMemo for Vec<u8> {
    fn clear(&mut self) {
        Vec::clear(self);
    }
    fn capacity(&self) -> usize {
        Vec::capacity(self)
    }
    fn dots_held(&self, depth: usize) -> usize {
        self.iter().map(|&lag| depth - usize::from(lag)).sum()
    }
}

/// UFCLS's: each pixel's record holds its depth.
impl LineMemo for NnlsTrails {
    fn clear(&mut self) {
        NnlsTrails::clear(self);
    }
    fn capacity(&self) -> usize {
        NnlsTrails::capacity(self)
    }
    fn dots_held(&self, _depth: usize) -> usize {
        NnlsTrails::dots_held(self)
    }
}

impl<M: LineMemo> LineCarry<M> {
    /// Forgets what the line holds, keeping its buffers.
    fn restart(&mut self) {
        self.depth = 0;
        self.sums.clear();
        self.more.clear();
    }

    /// What its buffers hold without reallocating.
    fn room(&self) -> (usize, usize) {
        (self.sums.capacity(), self.more.capacity())
    }
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
/// `seq` holds one, `sched` one per run, in the chunked algorithm every
/// rank already borrows — a static partition's ranks never meet on a
/// line lock, self-scheduled workers take turns. A carry only ever
/// reproduces the bits of a scan from nothing, so sharing changes host
/// time and nothing else.
///
/// **A carry is allocated once, by its owner, at its final size.** The
/// owner knows the run's shape — `lines × samples` pixels, `t` targets —
/// and reserves every line's buffers up front, on its own thread
/// ([`ProjectionCarry::for_run`], [`FclsCarry::for_run`]): whoever scores
/// a line fills what is already there, and a line that restarts is
/// emptied in place, so no scan allocates carry storage in its own
/// thread's heap — a tally counts each buffer that had to grow
/// ([`Carry::outgrown`]). `Default` is the empty carry, whose lines are
/// made by the first scan, indexed as its cube indexes them, and grow
/// where they are scored. Locks: a scan reconciles the system under
/// `seen`, releases it, then holds one line lock at a time; only a
/// diverged system takes line locks while holding `seen` (`seen` → lines,
/// never the reverse).
#[derive(Debug, Default)]
pub struct Carry<M> {
    /// The leading vectors every line's sums were formed from: a line at
    /// depth `d` holds sums over `seen[..d]`.
    seen: Mutex<Vec<Vec<f64>>>,
    /// Counts the systems that diverged from `seen`; bumped under `seen`
    /// before any line is reset. A scan that reconciled under an earlier
    /// epoch no longer knows what the lines hold and leaves them alone.
    epoch: AtomicU64,
    lines: OnceLock<Box<[Mutex<LineCarry<M>>]>>,
    /// Host-work tallies: dots of a pixel with a system vector formed,
    /// lines started from nothing, line buffers that grew during a scan,
    /// pixels a scan evaluated and pixels it scored.
    applied: AtomicUsize,
    started: AtomicUsize,
    outgrown: AtomicUsize,
    evaluated: AtomicUsize,
    scored: AtomicUsize,
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
    /// The carry of a run over `lines` image lines, each line's sums and
    /// memo reserved here, on the caller's thread: room for `sums` values,
    /// and `more()`.
    fn reserved(lines: usize, sums: usize, more: impl Fn() -> M) -> Self {
        let line = |_| {
            Mutex::new(LineCarry {
                depth: 0,
                sums: Vec::with_capacity(sums),
                more: more(),
            })
        };
        Carry {
            lines: OnceLock::from((0..lines).map(line).collect::<Box<[_]>>()),
            ..Carry::default()
        }
    }

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
    ///
    /// Every scan checks the whole recorded prefix, so a vector is
    /// compared without an early exit: an OR of the XORs of its bits,
    /// which vectorises, is zero exactly when every bit agrees.
    fn reconcile<'v>(&self, cube: &HyperCube, k: usize, vector: impl Fn(usize) -> &'v [f64]) -> u64
    where
        M: LineMemo,
    {
        let same_bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .fold(0, |diff, (x, y)| diff | (x.to_bits() ^ y.to_bits()))
                    == 0
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
                    state.restart();
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
    /// a scan from nothing. A line deeper than `k` restarts in place.
    fn with_line<R>(
        &self,
        line: usize,
        k: usize,
        epoch: u64,
        score: impl FnOnce(&mut LineCarry<M>) -> R,
    ) -> R
    where
        M: LineMemo,
    {
        let Some(lock) = self.lines.get().and_then(|lines| lines.get(line)) else {
            return self.tallied(&mut LineCarry::default(), score);
        };
        let (mut state, _) = take_over(lock);
        if self.epoch.load(Ordering::SeqCst) != epoch {
            return self.tallied(&mut LineCarry::default(), score);
        }
        if state.depth > k {
            state.restart();
        }
        self.tallied(&mut state, score)
    }

    /// Runs `score` on `state`, counting each of its buffers that grew.
    fn tallied<R>(&self, state: &mut LineCarry<M>, score: impl FnOnce(&mut LineCarry<M>) -> R) -> R
    where
        M: LineMemo,
    {
        let (sums, more) = state.room();
        let result = score(state);
        let (grown_sums, grown_more) = state.room();
        let grew = usize::from(grown_sums > sums) + usize::from(grown_more > more);
        self.outgrown.fetch_add(grew, Ordering::Relaxed);
        result
    }

    /// Tallies one line scan: `dots` formed, the line started from nothing
    /// when `fresh`, and `evaluated` of its `scored` pixels not pruned.
    fn count(&self, fresh: bool, dots: usize, evaluated: usize, scored: usize) {
        self.applied.fetch_add(dots, Ordering::Relaxed);
        self.started
            .fetch_add(usize::from(fresh), Ordering::Relaxed);
        self.evaluated.fetch_add(evaluated, Ordering::Relaxed);
        self.scored.fetch_add(scored, Ordering::Relaxed);
    }

    /// The dots the carry's pixels hold now, summed over its lines: each
    /// pixel's depth.
    fn dots_held(&self) -> usize
    where
        M: LineMemo,
    {
        let held = |line: &Mutex<LineCarry<M>>| {
            let (state, _) = take_over(line);
            state.more.dots_held(state.depth)
        };
        self.lines
            .get()
            .map_or(0, |lines| lines.iter().map(held).sum())
    }
}

impl<M> Carry<M> {
    /// Host work done through this carry so far: `(dots of a pixel with a
    /// system vector formed, lines started from nothing)`, summed over
    /// every scan. A pixel a scan evaluates forms the dots it missed since
    /// it was last evaluated; one it prunes forms none; one on a line
    /// found empty forms them all ([`Carry::held`] is what they leave).
    /// Not a cost the virtual clock reads.
    #[doc(hidden)]
    pub fn applied(&self) -> (usize, usize) {
        (
            self.applied.load(Ordering::Relaxed),
            self.started.load(Ordering::Relaxed),
        )
    }

    /// Line buffers — a line's sums, or what its kernel keeps beside them
    /// — that had to grow during a scan, summed over every scan: none in
    /// a run whose owner reserved its carry, one or two for each line a
    /// `Default` carry first scans (it reserved nothing). Every growth is
    /// an allocation in the scanning thread's heap. Not a cost the
    /// virtual clock reads.
    #[doc(hidden)]
    pub fn outgrown(&self) -> usize {
        self.outgrown.load(Ordering::Relaxed)
    }

    /// Pixel-rounds scanned through this carry so far: `(evaluated,
    /// scored)` — of the pixels its scans scored, those that were brought
    /// up to the system rather than pruned by their bound
    /// ([`max_projection_carried`], [`max_fcls_error_carried`]). Not a
    /// cost the virtual clock reads.
    #[doc(hidden)]
    pub fn pixel_rounds(&self) -> (usize, usize) {
        (
            self.evaluated.load(Ordering::Relaxed),
            self.scored.load(Ordering::Relaxed),
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
        let (evaluated, scored) = self.pixel_rounds();
        Carry {
            seen: Mutex::new(take_over(&self.seen).0.clone()),
            epoch: AtomicU64::new(self.epoch.load(Ordering::SeqCst)),
            lines: lines.map(OnceLock::from).unwrap_or_default(),
            applied: AtomicUsize::new(applied),
            started: AtomicUsize::new(started),
            outgrown: AtomicUsize::new(self.outgrown()),
            evaluated: AtomicUsize::new(evaluated),
            scored: AtomicUsize::new(scored),
        }
    }
}

/// Whether `score` takes the lead from `best` in a scan: strictly
/// greater, and a NaN ranks below every number, so it never takes the
/// lead from one and any number takes it from a NaN.
fn outranks(score: f64, best: f64) -> bool {
    score > best || (best.is_nan() && !score.is_nan())
}

/// Block-parallel argmax over the pixels of a line range.
///
/// The range is split into one contiguous block of lines per worker of
/// the installed pool (the whole range at width 1), and `make_scorer`
/// builds one (possibly stateful) line-scoring closure per block, so
/// scorers may own scratch buffers without synchronisation. A scorer is
/// handed a line, the **floor** — its block's best score so far, carried
/// from line to line (`−∞` before any: a scorer may leave a pixel that
/// cannot beat it at `−∞`) — and a buffer to fill with the line's scores,
/// one per sample. Each block is scanned sequentially in row-major order
/// keeping its first strict maximum; block winners are then folded **in
/// block order**, replacing only on a strictly greater score. Both levels
/// use the same strict order ([`outranks`]: a NaN below every number), so
/// the overall winner is exactly the first row-major maximum — identical
/// to a sequential scan for any worker count, including on duplicate
/// scores. What the floor saves a scorer depends on where the blocks
/// start, so host work does, and the winner does not.
fn argmax_pixels<S>(
    cube: &HyperCube,
    range: (usize, usize),
    make_scorer: impl Fn() -> S + Sync,
) -> Option<ScoredPixel>
where
    S: FnMut(usize, f64, &mut [f64]),
{
    let lead =
        |best: &Option<ScoredPixel>, score| best.as_ref().is_none_or(|b| outranks(score, b.score));
    let lines = range.1.saturating_sub(range.0);
    let block = lines.div_ceil(rayon::current_num_threads()).max(1);
    let bests: Vec<Option<ScoredPixel>> = (0..lines.div_ceil(block))
        .into_par_iter()
        .map(|b| {
            let first = range.0 + b * block;
            let mut score_line = make_scorer();
            let mut scores = vec![0.0f64; cube.samples()];
            let mut best: Option<ScoredPixel> = None;
            for line in first..(first + block).min(range.1) {
                let floor = best.as_ref().map_or(f64::NEG_INFINITY, |b| b.score);
                score_line(line, floor, &mut scores);
                for (sample, &s) in scores.iter().enumerate() {
                    if lead(&best, s) {
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
        if lead(&overall, b.score) {
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
        |line: usize, _floor: f64, scores: &mut [f64]| {
            for (sample, score) in scores.iter_mut().enumerate() {
                *score = brightness(cube.pixel(line, sample));
            }
        }
    });
    (result, flops::mflop(flops::brightness(n) * pixels as f64))
}

/// Each pixel's running ATDCA residual `‖x‖² − Σᵢ (qᵢᵀx)²` (8 bytes a
/// pixel) and how many basis vectors it lags its line by (one byte), kept
/// by [`max_projection_carried`] between the rounds of one run over one
/// cube. `Default` is the empty carry.
pub type ProjectionCarry = Carry<Vec<u8>>;

impl ProjectionCarry {
    /// The carry of an ATDCA run over `lines` image lines of `samples`
    /// pixels: every line's residuals and lags, one a pixel, reserved
    /// here.
    pub fn for_run(lines: usize, samples: usize) -> Self {
        Carry::reserved(lines, samples, || Vec::with_capacity(samples))
    }

    /// The basis dots the carry's pixels hold now, summed over its lines:
    /// each pixel's depth. No dot was formed twice — no line restarted,
    /// no scan overtaken — exactly while it equals [`Carry::applied`]'s
    /// first count. Not a cost the virtual clock reads.
    #[doc(hidden)]
    pub fn held(&self) -> usize {
        self.dots_held()
    }
}

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
/// pixels' residuals from the depths `carry` recorded — whoever left them
/// there — so a pixel evaluated every round costs one dot per round
/// instead of `basis.len()`.
///
/// **A pixel that cannot win is not projected at all.** Its carried
/// residual is updated by `s −= c·c` with `c·c ≥ 0`, and rounding is
/// monotone, so it never rises, bit for bit: clamped at 0, the stale
/// value bounds every score the pixel can reach, with no margin. Each
/// line is visited highest stale residual first, four pixels at a time
/// — their missing dots formed four chains abreast
/// ([`OrthoBasis::continue_residuals`]) — and a pixel whose bound is
/// strictly below the floor (the block's running best, raised by every
/// score of the line) keeps its residual and depth for a later round and
/// scores `−∞`: a strictly higher score is beside it. A line met for the
/// first time starts from the norms `‖x‖²`, which bound it as well.
/// Scores are [`OrthoBasis::complement_score`]'s to the bit — the
/// subtraction is the same left-to-right sum, resumed; the clamp is
/// applied to the score, never to the carried sum. A carry that last saw
/// a different basis restarts the lines it must.
/// [`Carry::pixel_rounds`] counts what was evaluated. The megaflops
/// returned are those of the full re-projection.
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
        let mut visits = Vec::with_capacity(cube.samples());
        move |line: usize, floor: f64, scores: &mut [f64]| {
            carry.with_line(line, k, epoch, |state| {
                let (fresh, dots, evaluated) =
                    projection_line_scores(cube, basis, line, floor, state, &mut visits, scores);
                carry.count(fresh, dots, evaluated, scores.len());
            })
        }
    });
    (
        result,
        flops::mflop(flops::projection_score(n, k) * pixels as f64),
    )
}

/// One line of the projection scan: brings the pixels of `state` — each
/// one's residual against the first `state.depth − lag` basis vectors —
/// that can still beat `floor` up to the whole basis, and fills `scores`
/// (`−∞` for the others), visiting the pixels in `visits`' order of
/// falling stale residual. Returns whether the line was started from
/// nothing, the dots formed and the pixels evaluated.
fn projection_line_scores(
    cube: &HyperCube,
    basis: &OrthoBasis,
    line: usize,
    floor: f64,
    state: &mut LineCarry<Vec<u8>>,
    visits: &mut Vec<(f64, usize)>,
    scores: &mut [f64],
) -> (bool, usize, usize) {
    let (k, n, samples) = (basis.len(), cube.bands(), scores.len());
    // The line's samples, sliced out of the cube's window once.
    let row = &cube.as_slice()[line * samples * n..(line + 1) * samples * n];
    let pixel = |p: usize| &row[p * n..(p + 1) * n];
    let fresh = state.sums.len() != samples || state.more.len() != samples;
    if fresh {
        state.sums.clear();
        let mut groups = row.chunks_exact(ABREAST * n);
        for group in &mut groups {
            let xs: [&[f32]; ABREAST] = std::array::from_fn(|i| &group[i * n..(i + 1) * n]);
            state.sums.extend(dots_abreast(xs, xs));
        }
        let tail = groups.remainder().chunks_exact(n);
        state.sums.extend(tail.map(|x| dots_abreast([x], [x])[0]));
        state.more.clear();
        state.more.resize(samples, 0);
        state.depth = 0;
    }
    let advance = k - state.depth;
    scores.fill(f64::NEG_INFINITY);
    // A NaN ranks below every score, so it prunes nothing.
    let mut floor = if floor.is_nan() {
        f64::NEG_INFINITY
    } else {
        floor
    };
    // A pixel's stale residual bounds its score (never a NaN). One
    // already below the floor is pruned whatever the order; the others are
    // visited highest bound first, so the first found below the floor
    // prunes the rest.
    visits.clear();
    for (p, (&sum, lag)) in state.sums.iter().zip(&mut state.more).enumerate() {
        // A pixel that would lag its line by more than a byte holds has no
        // bound: it is evaluated.
        let bound = if usize::from(*lag) + advance > usize::from(u8::MAX) {
            f64::INFINITY
        } else {
            sum.max(0.0)
        };
        if bound < floor {
            *lag += advance as u8;
        } else {
            visits.push((bound, p));
        }
    }
    visits.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let (mut visited, mut dots) = (0, 0);
    while visited < visits.len() {
        let ahead = visits[visited..].iter().take(ABREAST);
        let batch = ahead.take_while(|v| v.0 >= floor).count();
        if batch == 0 {
            break;
        }
        let group: [usize; ABREAST] = std::array::from_fn(|i| visits[visited + i.min(batch - 1)].1);
        let group = &group[..batch];
        visited += batch;
        let xs: [&[f32]; ABREAST] = std::array::from_fn(|i| pixel(group[i.min(batch - 1)]));
        let seen: [usize; ABREAST] =
            std::array::from_fn(|i| state.depth - usize::from(state.more[group[i.min(batch - 1)]]));
        let mut sums: [f64; ABREAST] = std::array::from_fn(|i| state.sums[group[i.min(batch - 1)]]);
        basis.continue_residuals(&xs[..batch], &seen[..batch], &mut sums[..batch]);
        for ((&p, &sum), &from) in group.iter().zip(&sums).zip(&seen) {
            dots += k - from;
            state.sums[p] = sum;
            state.more[p] = 0;
            scores[p] = sum.max(0.0);
            if scores[p] > floor {
                floor = scores[p];
            }
        }
    }
    for &(_, p) in &visits[visited..] {
        state.more[p] += advance as u8;
    }
    state.depth = k;
    (fresh, dots, visited)
}

/// Each pixel's dots with the endmembers, `uᵢᵀx` (8 bytes a pixel and
/// endmember), and the trail and score of its latest NNLS iteration
/// ([`NnlsTrails`]: ≈ 0.3 KiB a pixel at `t = 18`, of the 0.56 KiB
/// [`FclsCarry::for_run`] reserves), kept by [`max_fcls_error_carried`]
/// between the rounds of one run over one cube. `Default` is the empty
/// carry.
pub type FclsCarry = Carry<NnlsTrails>;

/// Record words a UFCLS run of `t` targets reserves per pixel: `4 · t +
/// 2`, the record's head ([`RECORD_HEAD`]) and `4 · t − 2` words of
/// trail. A pixel whose passive set grows one endmember at a time through
/// all `t − 1` endmembers keeps `t(t + 1) / 2` words of trail, which
/// `4 · t − 2` covers up to `t = 6`; past that the passive sets stop
/// growing with `t`. At `t = 18` on the 256 × 16 × 224 scene, over four
/// seeds, the fullest line held 69 words of trail a pixel in its fullest
/// round (71 with the two-word head records had then), against 70
/// reserved (the histogram is in docs/PERF.md).
/// Reserved pages are resident once written, so the rule is tight rather
/// than generous: a line that needs more grows where it is scored, and
/// [`Carry::outgrown`] counts it.
const TRAIL_WORDS_PER_TARGET: usize = 4;

/// Record words a UFCLS run of `targets` targets reserves per pixel.
fn record_words(targets: usize) -> usize {
    RECORD_HEAD + (TRAIL_WORDS_PER_TARGET * targets).saturating_sub(2)
}

impl FclsCarry {
    /// The carry of a UFCLS run of `targets` targets over `lines` image
    /// lines of `samples` pixels, reserved here: every line's endmember
    /// dots for the deepest system the run scores against (`targets − 1`
    /// endmembers: the last winner is never scored against), and its
    /// trail arena, `4 · targets + 2` words a pixel.
    pub fn for_run(lines: usize, samples: usize, targets: usize) -> Self {
        let dots = targets.saturating_sub(1) * samples;
        let trails = record_words(targets) * samples;
        Carry::reserved(lines, dots, || NnlsTrails::with_capacity(trails))
    }

    /// [`ProjectionCarry::held`] for the endmember dots.
    #[doc(hidden)]
    pub fn held(&self) -> usize {
        self.dots_held()
    }
}

/// Idle [`FclsWorkspace`]s, kept for the next scan that needs one.
///
/// An FCLS scan checks a workspace out for each block of lines it scores
/// ([`IdleWorkspaces::check_out`]) and the block's scorer puts it back
/// when it drops, so the process holds as many workspaces as blocks were
/// ever in flight at once — not one per rank thread, nor a fresh one per
/// short-lived pool helper — and each keeps its buffers' capacity from
/// block to block and round to round. The lock is held for one push or
/// pop. A workspace carries nothing from solve to solve, so which one a
/// line is solved in changes no bit.
struct IdleWorkspaces {
    stack: Mutex<Vec<FclsWorkspace>>,
    /// Workspaces made because the stack was empty.
    built: AtomicUsize,
}

/// The process's one stack of idle FCLS workspaces.
static FCLS_WORKSPACES: IdleWorkspaces = IdleWorkspaces::new();

impl IdleWorkspaces {
    const fn new() -> Self {
        IdleWorkspaces {
            stack: Mutex::new(Vec::new()),
            built: AtomicUsize::new(0),
        }
    }

    /// The stack, whatever a holder did: a push or a pop leaves it whole.
    fn stack(&self) -> MutexGuard<'_, Vec<FclsWorkspace>> {
        self.stack.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An idle workspace, or a new one if none is.
    fn check_out(&self) -> CheckedOut<'_> {
        let idle = self.stack().pop();
        let ws = idle.unwrap_or_else(|| {
            self.built.fetch_add(1, Ordering::Relaxed);
            FclsWorkspace::new()
        });
        CheckedOut { ws, home: self }
    }
}

/// A workspace out of an [`IdleWorkspaces`] stack; dropping it puts it
/// back, also when a panicking scan unwinds past it.
struct CheckedOut<'a> {
    ws: FclsWorkspace,
    home: &'a IdleWorkspaces,
}

impl Drop for CheckedOut<'_> {
    fn drop(&mut self) {
        let ws = std::mem::take(&mut self.ws);
        self.home.stack().push(ws);
    }
}

/// How many FCLS workspaces the process has made: the most scan blocks
/// that were ever in flight at once. A host-work tally; the virtual clock
/// never reads it.
#[doc(hidden)]
pub fn fcls_workspaces_built() -> usize {
    FCLS_WORKSPACES.built.load(Ordering::Relaxed)
}

/// FCLS solves that failed — every one from a singular endmember set —
/// summed over the process's scans ([`fcls_solves_failed`]).
static FCLS_FAILED: AtomicUsize = AtomicUsize::new(0);

/// How many pixels the FCLS scans of the process could not unmix (the
/// active-set iteration failed on a singular endmember set) and ranked
/// at `−∞`. A host-work tally; the virtual clock never reads it.
#[doc(hidden)]
pub fn fcls_solves_failed() -> usize {
    FCLS_FAILED.load(Ordering::Relaxed)
}

/// UFCLS steps 2–3: the pixel with the largest fully-constrained
/// least-squares reconstruction error against the endmember set.
///
/// Each block of the scan solves its pixels in one workspace checked out
/// of the idle stack; a workspace carries nothing from pixel to pixel,
/// and what a carry keeps of a pixel only ever reproduces the from-empty
/// solve's bits, so a score is a pure function of `(problem, pixel)`. A
/// pixel whose solve fails can only come from a singular endmember set;
/// it scores `−∞`, below every solved one, in every build profile, and
/// [`fcls_solves_failed`] counts it.
pub fn max_fcls_error(
    cube: &HyperCube,
    problem: &FclsProblem,
    range: (usize, usize),
) -> (Option<ScoredPixel>, f64) {
    // Nothing outlives the call, so nothing is kept per line: each block
    // restarts one line state, which is an empty carry's at every line.
    // With no record kept, no pixel has a bound to prune by.
    let result = argmax_pixels(cube, range, || {
        let mut state = LineCarry::default();
        let mut scratch = FCLS_WORKSPACES.check_out();
        move |line: usize, floor: f64, scores: &mut [f64]| {
            state.restart();
            fcls_line_scores(
                cube,
                problem,
                line,
                floor,
                &mut state,
                &mut scratch.ws,
                scores,
            );
        }
    });
    (result, fcls_mflops(cube, problem, range))
}

/// [`max_fcls_error`] for a caller that scans the same cube round after
/// round against an endmember set that only grows: each line keeps its
/// pixels' endmember dots (laid out endmember-major, so a round appends)
/// and active-set records — for whoever scores it next — so a pixel
/// evaluated every round forms one new dot a round instead of all of
/// them, skips the solve and the residual whenever the newcomers do not
/// change its active-set path, and resumes where they first do
/// ([`FclsProblem::solve_f32_line`]).
///
/// **A pixel that cannot win is not unmixed at all, and forms no dot.**
/// The endmember sets are nested, so a pixel's recorded solve bounds
/// every score it can reach later ([`FclsProblem::solve_f32_line`]; the
/// proof and its rounding margin are in docs/PERF.md). Each block of the
/// scan hands every line its running best — the row-major scan's strict
/// `>` — as the floor: a pixel whose bound is below it, or below a score
/// of its own line, keeps its record and its depth for a later round and
/// scores `−∞`, and cannot have been the block's winner. A pixel with no record (first round,
/// failed solve, restarted or diverged line) is always unmixed. The
/// winner, its score and the megaflops are [`max_fcls_error`]'s to the
/// bit; [`Carry::pixel_rounds`] counts what was evaluated. A carry that
/// last saw a different set restarts the lines it must, dots and trails.
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
        let mut scratch = FCLS_WORKSPACES.check_out();
        move |line: usize, floor: f64, scores: &mut [f64]| {
            carry.with_line(line, t, epoch, |state| {
                let (depth, evaluated, dots) =
                    fcls_line_scores(cube, problem, line, floor, state, &mut scratch.ws, scores);
                carry.count(depth == 0, dots, evaluated, scores.len());
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

/// One line of the FCLS scan, solved in `ws`, the workspace its block
/// checked out: brings the pixels of `state` — the line's dots and
/// trails, each pixel's against the endmembers its record was solved
/// against — that can still beat `floor` up to the whole problem and fills
/// `scores`, `−∞` for a pixel whose solve fails or whose bound is below
/// `floor`. Returns the depth the line was continued from, how many of
/// its pixels were evaluated and the dots they formed.
fn fcls_line_scores(
    cube: &HyperCube,
    problem: &FclsProblem,
    line: usize,
    floor: f64,
    state: &mut LineCarry<NnlsTrails>,
    ws: &mut FclsWorkspace,
    scores: &mut [f64],
) -> (usize, usize, usize) {
    let t = problem.num_endmembers();
    let samples = scores.len();
    let stride = samples * cube.bands();
    if state.sums.len() != state.depth * samples {
        state.restart();
    }
    let depth = state.depth;
    state.sums.resize(t * samples, 0.0);
    scores.fill(f64::NEG_INFINITY);
    let before = ws.dots_formed();
    let shaped = problem.solve_f32_line(
        &cube.as_slice()[line * stride..(line + 1) * stride],
        depth,
        &mut state.sums,
        &mut state.more,
        floor,
        ws,
        |sample, solved| match solved {
            Ok(residual_sq) => scores[sample] = residual_sq,
            Err(_) => {
                FCLS_FAILED.fetch_add(1, Ordering::Relaxed);
            }
        },
    );
    let dots = (ws.dots_formed() - before) as usize;
    // Proof: the line is `samples` whole pixels of the problem's bands,
    // `sums` was just sized to `t · samples`, and `with_line` restarts a
    // line deeper than `t`, so `depth ≤ t`.
    debug_assert!(shaped.is_ok(), "max_fcls_error: {shaped:?}");
    match shaped {
        Ok(evaluated) => {
            state.depth = t;
            (depth, evaluated, dots)
        }
        Err(_) => (depth, 0, dots),
    }
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

/// PCT steps 4–6: the mean/covariance sums of the line ranges
/// `ranges`, each a shard of the merge, merged in order.
///
/// A shard is cut into the fixed line chunks of its range, each summed
/// from zero by the register-tiled push and merged **in chunk order**
/// into the first; the shards are merged in order into a zeroed total.
/// (The chunked summation groups floating-point additions differently
/// from a single unchunked stream, but virtual-time accounting is
/// analytic in the pixel count, so experiment timings are unaffected —
/// see `docs/PERF.md`.) The work is split by rows of `Σxxᵀ` into one
/// band per thread of the installed pool
/// ([`CovarianceAccumulator::from_shards`]): every cell is summed by one
/// thread in the order above, so the result is the same for any width.
pub fn covariance_of_shards(cube: &HyperCube, ranges: &[(usize, usize)]) -> CovarianceAccumulator {
    let stride = cube.samples() * cube.bands();
    let shards: Vec<Vec<&[f32]>> = ranges
        .iter()
        .map(|&range| {
            (0..chunk_count(range))
                .map(|c| {
                    let (clo, chi) = chunk_bounds(range, c);
                    &cube.as_slice()[clo * stride..chi * stride]
                })
                .collect()
        })
        .collect();
    let parts = rayon::current_num_threads();
    CovarianceAccumulator::from_shards(cube.bands(), &shards, parts, |bands| {
        bands.into_par_iter().for_each(ShardBand::fold)
    })
}

/// The megaflops of accumulating the covariance sums of lines `range`:
/// what [`covariance_partial`] reports, and what a PCT chunk is charged
/// whoever sums it.
pub fn covariance_mflops(cube: &HyperCube, range: (usize, usize)) -> f64 {
    let pixels = range_pixels(cube, range);
    flops::mflop(flops::covariance_accumulate(cube.bands()) * pixels as f64)
}

/// PCT steps 4–5: the block's mean/covariance partial sums — the
/// one-shard [`covariance_of_shards`] — and their megaflops.
pub fn covariance_partial(cube: &HyperCube, range: (usize, usize)) -> (CovarianceAccumulator, f64) {
    (
        covariance_of_shards(cube, &[range]),
        covariance_mflops(cube, range),
    )
}

/// Rows of the PCT transform one pass over a pixel's bands projects onto.
const PROJECT_ROWS: usize = 8;

/// The `c × n` PCT transform copied band-major in groups of
/// [`PROJECT_ROWS`] rows: entry `b` of group `g` holds band `b` of rows
/// `8g … 8g + 7` (zero past `c`), so one pass over a pixel's bands feeds
/// eight projections at once instead of one 224-term chain after another.
struct BandMajor {
    groups: Vec<Vec<[f64; PROJECT_ROWS]>>,
}

impl BandMajor {
    fn new(transform: &Matrix) -> Self {
        let (rows, bands) = transform.shape();
        let mut groups = vec![vec![[0.0; PROJECT_ROWS]; bands]; rows.div_ceil(PROJECT_ROWS)];
        for r in 0..rows {
            for (b, &t) in transform.row(r).iter().enumerate() {
                groups[r / PROJECT_ROWS][b][r % PROJECT_ROWS] = t;
            }
        }
        BandMajor { groups }
    }

    /// `T·(x − m)` into `out` (one entry per transform row). Each
    /// projection starts from `−0.0`, as `dot`'s `Sum` does, and adds
    /// `t[r][b] · (x[b] − m[b])` in band order, so it has the bits of
    /// [`Matrix::matvec`] applied to the centred pixel.
    fn project(&self, px: &[f32], mean: &[f64], out: &mut [f64]) {
        // Proof: its one caller sizes `out` to the transform's rows, which
        // `new` grouped `PROJECT_ROWS` to a group.
        debug_assert_eq!(out.len().div_ceil(PROJECT_ROWS), self.groups.len());
        for (group, out) in self.groups.iter().zip(out.chunks_mut(PROJECT_ROWS)) {
            let mut sums = [-0.0f64; PROJECT_ROWS];
            for ((t, &x), &m) in group.iter().zip(px).zip(mean) {
                let centred = f64::from(x) - m;
                for (sum, &tr) in sums.iter_mut().zip(t) {
                    *sum += tr * centred;
                }
            }
            for (o, sum) in out.iter_mut().zip(sums) {
                *o = sum;
            }
        }
    }
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
    // Proof: both callers (`seq::pct`, `sched`'s labelling round) pass
    // the model fitted to this cube's covariance, over its `n` bands.
    assert!(
        transform.cols() == n && mean.len() == n,
        "pct_label: transform or mean not over the cube's {n} bands"
    );
    let band_major = &BandMajor::new(transform);
    // One preassembled label buffer, written in place by the chunk
    // workers; `par_chunks_mut` at `PAR_CHUNK_LINES × samples` pixels
    // yields exactly the fixed chunk grid (the last chunk is the
    // remainder), so no per-chunk Vec or final concat is needed. Each
    // chunk reuses its two scratch buffers across every pixel.
    let samples = cube.samples();
    let pixels = range_pixels(cube, range);
    let mut labels = vec![0u16; pixels];
    labels
        .par_chunks_mut((PAR_CHUNK_LINES * samples).max(1))
        .enumerate()
        .for_each(|(ci, part)| {
            let (clo, chi) = chunk_bounds(range, ci);
            // Proof: chunks of `PAR_CHUNK_LINES · samples` labels are the
            // chunk grid's lines, the last one the remainder.
            debug_assert_eq!(part.len(), (chi - clo) * samples);
            let mut projected = vec![0.0f64; c];
            let mut proj32 = vec![0.0f32; c];
            for line in clo..chi {
                for sample in 0..samples {
                    band_major.project(cube.pixel(line, sample), mean, &mut projected);
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
            // Proof: as in `pct_label`, the label chunks are the grid's.
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
///
/// The MEI is computed in a workspace of its own; a chunked MORPH run
/// lends each window one of its run's [`MeiWorkspaces`] instead.
pub fn mei_top(
    cube: &HyperCube,
    se: &hsi_morpho::StructuringElement,
    iterations: usize,
    range: (usize, usize),
    c: usize,
    threshold: f64,
) -> (Vec<ScoredPixel>, f64) {
    let workspace = &mut MeiWorkspace::default();
    mei_top_in(workspace, cube, se, iterations, range, c, threshold)
}

/// [`mei_top`] with the MEI computed in the caller's `workspace` (see
/// [`hsi_morpho::mei::mei_in`]): the same nomination and charge, bit for
/// bit.
pub(crate) fn mei_top_in(
    workspace: &mut MeiWorkspace,
    cube: &HyperCube,
    se: &hsi_morpho::StructuringElement,
    iterations: usize,
    range: (usize, usize),
    c: usize,
    threshold: f64,
) -> (Vec<ScoredPixel>, f64) {
    let result = hsi_morpho::mei::mei_in(workspace, cube, se, iterations);
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

/// The MEI workspaces of one run: at most as many as the host has cores,
/// lent to whichever rank computes a window next (`take`).
///
/// **Made by the run's owner.** The driver's master knows the largest
/// window it is about to hand out and reserves the workspaces for it on
/// its own thread (`reserve`, through `ChunkedAlgo::reserve`), so a rank
/// fills buffers that are already there instead of growing its own in
/// its thread's glibc arena, where they would stay for the process. A
/// rank that finds every workspace out waits for one to come back — the
/// host runs no more windows at once than it has cores anyway; only a
/// run whose master reserved nothing has its first takers make
/// workspaces, empty, up to the bound. A workspace carries nothing from
/// window to window, so which one a window is computed in changes no
/// bit.
///
/// **A holder that panics gives its workspace back**: the loan is a drop
/// guard, and the stack's lock, should a panic ever poison it, is taken
/// over — a push or a pop leaves the stack whole — so no rank waits for
/// a workspace forever.
pub struct MeiWorkspaces {
    idle: Mutex<IdleMei>,
    returned: Condvar,
    /// Most workspaces the run makes.
    bound: usize,
    /// Windows that grew their workspace.
    outgrown: AtomicUsize,
}

/// The workspaces not lent out, and how many were made.
#[derive(Default)]
struct IdleMei {
    stack: Vec<MeiWorkspace>,
    made: usize,
}

impl MeiWorkspaces {
    /// None made yet; at most as many as the host has cores.
    pub(crate) fn new() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        MeiWorkspaces::bounded(cores)
    }

    fn bounded(bound: usize) -> Self {
        MeiWorkspaces {
            idle: Mutex::new(IdleMei::default()),
            returned: Condvar::new(),
            bound: bound.max(1),
            outgrown: AtomicUsize::new(0),
        }
    }

    /// The stack, whoever panicked holding its lock: a push or a pop
    /// leaves it whole, so it is taken over as it is.
    fn idle(&self) -> MutexGuard<'_, IdleMei> {
        self.idle.lock().unwrap_or_else(|poisoned| {
            self.idle.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Makes every workspace the run may use, here on the caller's
    /// thread, each with room for a window of `pixels` pixels under `se`
    /// ([`MeiWorkspace::reserve`]). A workspace lent out at the time
    /// keeps its size: should it meet a larger window, it grows where it
    /// is taken, and [`MeiWorkspaces::outgrown`] counts it.
    pub(crate) fn reserve(&self, pixels: usize, se: &hsi_morpho::StructuringElement) {
        let mut idle = self.idle();
        for workspace in &mut idle.stack {
            workspace.reserve(pixels, se);
        }
        while idle.made < self.bound {
            let mut workspace = MeiWorkspace::default();
            workspace.reserve(pixels, se);
            idle.stack.push(workspace);
            idle.made += 1;
        }
    }

    /// A workspace to compute one window in: an idle one, a new one
    /// while fewer than the bound were made, or else the first one a
    /// holder gives back.
    pub(crate) fn take(&self) -> LentWorkspace<'_> {
        let mut idle = self.idle();
        loop {
            if let Some(workspace) = idle.stack.pop() {
                return LentWorkspace::new(workspace, self);
            }
            if idle.made < self.bound {
                idle.made += 1;
                return LentWorkspace::new(MeiWorkspace::default(), self);
            }
            idle = self
                .returned
                .wait(idle)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// How many workspaces the run has made: at most the host's cores.
    /// A host-work tally; the virtual clock never reads it.
    #[doc(hidden)]
    pub fn made(&self) -> usize {
        self.idle().made
    }

    /// Windows that had to grow the workspace they were computed in,
    /// counted as the workspace is given back: none while every window
    /// fits the reservation. A host-work tally; the virtual clock never
    /// reads it.
    #[doc(hidden)]
    pub fn outgrown(&self) -> usize {
        self.outgrown.load(Ordering::Relaxed)
    }
}

/// An [`MeiWorkspace`] lent out of an [`MeiWorkspaces`] stack; dropping
/// it gives it back and wakes one waiting rank, also when a panicking
/// holder unwinds past it.
pub(crate) struct LentWorkspace<'a> {
    workspace: MeiWorkspace,
    /// Its [`MeiWorkspace::outgrown`] when lent.
    grown: usize,
    home: &'a MeiWorkspaces,
}

impl<'a> LentWorkspace<'a> {
    fn new(workspace: MeiWorkspace, home: &'a MeiWorkspaces) -> Self {
        let grown = workspace.outgrown();
        LentWorkspace {
            workspace,
            grown,
            home,
        }
    }
}

impl std::ops::Deref for LentWorkspace<'_> {
    type Target = MeiWorkspace;
    fn deref(&self) -> &MeiWorkspace {
        &self.workspace
    }
}

impl std::ops::DerefMut for LentWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut MeiWorkspace {
        &mut self.workspace
    }
}

impl Drop for LentWorkspace<'_> {
    fn drop(&mut self) {
        let workspace = std::mem::take(&mut self.workspace);
        let grown = workspace.outgrown() - self.grown;
        self.home.outgrown.fetch_add(grown, Ordering::Relaxed);
        self.home.idle().stack.push(workspace);
        self.home.returned.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi_cube::synth::{wtc_scene, WtcConfig};
    use std::sync::Arc;

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

    /// The PCT-partial pin: summing the first chunk inside the total
    /// moves no bit against the zeroed total merged into, and a one-chunk
    /// range is the blocked push itself.
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
        }
    }

    /// `pct_label`'s band-major projections have the bits of
    /// `Matrix::matvec` on the centred pixel at every row count around
    /// the group of eight. Row 0 is zero, so its products are all `±0`:
    /// under a mean above every sample they are all `−0.0`, and only the
    /// `−0.0` start `dot`'s `Sum` uses keeps that sign.
    #[test]
    fn band_major_projections_keep_the_bits_of_matvec() {
        let s = scene();
        let cube = &s.cube;
        let n = cube.bands();
        for mean in [
            (0..n).map(|b| 0.05 * (b % 7) as f64).collect::<Vec<_>>(),
            vec![1e3; n],
        ] {
            for c in [1, 7, 8, 9, 17] {
                let mut transform = Matrix::zeros(c, n);
                for r in 1..c {
                    for b in 0..n {
                        transform[(r, b)] = ((r * 31 + b * 17) % 23) as f64 / 23.0 - 0.5;
                    }
                }
                let band_major = BandMajor::new(&transform);
                let mut projected = vec![0.0; c];
                for i in (0..cube.num_pixels()).step_by(37) {
                    let px = cube.pixel_flat(i);
                    let centred: Vec<f64> = px
                        .iter()
                        .zip(&mean)
                        .map(|(&v, m)| f64::from(v) - m)
                        .collect();
                    band_major.project(px, &mean, &mut projected);
                    let want = transform.matvec(&centred).unwrap();
                    assert_eq!(f64_bits(&projected), f64_bits(&want), "c {c}, pixel {i}");
                }
            }
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
    /// A duplicated endmember — `1e-8` off the first, so the two are
    /// equal to the sums' rounding — makes the passive sub-Gram
    /// numerically singular, so some pixels cannot be unmixed: in every build profile (this one
    /// runs with debug assertions in the dev profile) they score `−∞`, are
    /// counted, and the scan still returns a solved pixel — the stateless
    /// and the carried kernel alike.
    #[test]
    fn a_failed_solve_ranks_last_in_every_profile() {
        let s = scene();
        let cube = &s.cube;
        let mut problem = growing_problems(cube, 3).pop().unwrap();
        let twin = wide(cube.pixel_flat(7))
            .iter()
            .enumerate()
            .map(|(b, v)| v + 1e-8 * (b * 7 % 5) as f64)
            .collect::<Vec<_>>();
        problem.push(&twin).unwrap();
        let whole = (0, cube.lines());
        let failed_alone = (0..cube.num_pixels())
            .filter(|&i| problem.solve_f32(cube.pixel_flat(i)).is_err())
            .count();
        assert!(failed_alone > 0, "fixture: no solve fails");
        let before = fcls_solves_failed();
        let stateless = max_fcls_error(cube, &problem, whole);
        let carried = max_fcls_error_carried(cube, &problem, whole, &FclsCarry::default());
        // Other tests may scan beside this one: the tally only grows.
        assert!(fcls_solves_failed() >= before + 2 * failed_alone);
        let best = stateless.0.as_ref().expect("a solved pixel");
        assert!(best.score.is_finite());
        assert_eq!(scored(&stateless), scored(&carried));
    }

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
    /// round's sums, or an earlier run's on a reused carry — restarts,
    /// and the dots it held are formed again; the record of the longer
    /// system stays, so going back up continues, forming no dot twice.
    #[test]
    fn a_line_deeper_than_the_system_restarts_alone() {
        let s = scene();
        let cube = &s.cube;
        let (lines, whole) = (cube.lines(), (0, cube.lines()));
        let half = (0, lines / 2);
        let bases = growing_bases(cube, 3);
        let carry = ProjectionCarry::default();
        max_projection_carried(cube, &bases[2], whole, &carry);
        assert_eq!(carry.applied(), (carry.held(), lines));
        // Half the image against the one-vector prefix.
        let got = max_projection_carried(cube, &bases[0], half, &carry);
        assert_eq!(scored(&got), scored(&max_projection(cube, &bases[0], half)));
        let (formed, started) = carry.applied();
        assert_eq!(started, lines + lines / 2);
        let lost = formed - carry.held();
        assert!(lost > 0, "the restarted half held no dot");
        // Back up: the restarted half continues, the rest forms no dot
        // twice.
        let got = max_projection_carried(cube, &bases[2], whole, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_projection(cube, &bases[2], whole))
        );
        assert_eq!(carry.applied(), (carry.held() + lost, lines + lines / 2));

        let problems = growing_problems(cube, 3);
        let carry = FclsCarry::default();
        max_fcls_error_carried(cube, &problems[2], whole, &carry);
        assert_eq!(carry.applied(), (carry.held(), lines));
        let got = max_fcls_error_carried(cube, &problems[0], half, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_fcls_error(cube, &problems[0], half))
        );
        let (formed, started) = carry.applied();
        assert_eq!(started, lines + lines / 2);
        let lost = formed - carry.held();
        assert!(lost > 0, "the restarted half held no dot");
        let got = max_fcls_error_carried(cube, &problems[2], whole, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_fcls_error(cube, &problems[2], whole))
        );
        assert_eq!(carry.applied(), (carry.held() + lost, lines + lines / 2));
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
        let lost = held_by_line(&carry, 5);
        assert!(lost > 0, "fixture: line 5 holds no dot");
        poison(&carry.lines.get().unwrap()[5]);
        let got = max_projection_carried(cube, &bases[2], whole, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_projection(cube, &bases[2], whole))
        );
        // Line 5 alone started over: its dots were formed again, no
        // other line's.
        assert_eq!(carry.applied(), (carry.held() + lost, lines + 1));
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
        let lost = held_by_line(&carry, 5);
        assert!(lost > 0, "fixture: line 5 holds no dot");
        poison(&carry.lines.get().unwrap()[5]);
        let got = max_fcls_error_carried(cube, &problems[2], whole, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_fcls_error(cube, &problems[2], whole))
        );
        assert_eq!(carry.applied(), (carry.held() + lost, lines + 1));
    }

    /// The dots the pixels of `line` hold.
    fn held_by_line<M: LineMemo>(carry: &Carry<M>, line: usize) -> usize {
        let state = carry.lines.get().unwrap()[line].lock().unwrap();
        state.more.dots_held(state.depth)
    }

    /// A chunk's workspace goes back to the stack when its scorer drops,
    /// also when the scan panics, and the next chunk takes it instead of
    /// making one; a stack some holder poisoned is still used.
    #[test]
    fn a_checked_out_workspace_comes_back_from_a_panicking_scan() {
        let idle = IdleWorkspaces::new();
        let unwound = std::panic::catch_unwind(|| {
            let _scratch = idle.check_out();
            panic!("injected: a scan panics mid-chunk");
        });
        assert!(unwound.is_err());
        assert!(!idle.stack.is_poisoned());
        assert_eq!(idle.stack().len(), 1);
        poison(&idle.stack);
        drop(idle.check_out());
        assert_eq!(idle.built.load(Ordering::Relaxed), 1);
        assert_eq!(idle.stack().len(), 1);
    }

    /// As many workspaces as chunks in flight at once, each kept after.
    #[test]
    fn the_stack_holds_as_many_workspaces_as_chunks_were_in_flight() {
        let idle = IdleWorkspaces::new();
        let (a, b) = (idle.check_out(), idle.check_out());
        drop((a, b));
        for _ in 0..3 {
            drop(idle.check_out());
        }
        assert_eq!(idle.built.load(Ordering::Relaxed), 2);
        assert_eq!(idle.stack().len(), 2);
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

    /// The system record is compared bit for bit: a one-bit difference in
    /// the first vector's last band restarts every line that took the
    /// vector in, one in the newest vector only the lines that took that
    /// in; `-0.0` is not `0.0`, and a NaN matches its own payload only.
    #[test]
    fn reconcile_restarts_exactly_the_lines_past_a_one_bit_difference() {
        let s = scene();
        let cube = &s.cube;
        let n = cube.bands();
        // Three vectors; `last` is the first vector's last band.
        let system = |last: f64| -> Vec<Vec<f64>> {
            (0..3)
                .map(|v| {
                    (0..n)
                        .map(|b| match (v, b) {
                            (0, b) if b == n - 1 => last,
                            _ => 0.25 + (v * n + b) as f64 / 64.0,
                        })
                        .collect()
                })
                .collect()
        };
        let flip = |x: f64| f64::from_bits(x.to_bits() ^ 1);
        let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
        let mut newest_flipped = system(0.5);
        newest_flipped[2][n - 1] = flip(newest_flipped[2][n - 1]);
        // (recorded, handed, depths lines 0 and 1 keep): line 0 took all
        // three vectors in, line 1 the first two.
        let cases = [
            (system(0.5), system(0.5), [3, 2]),
            (system(0.5), system(flip(0.5)), [0, 0]),
            (system(0.5), newest_flipped, [0, 2]),
            (system(0.0), system(-0.0), [0, 0]),
            (system(nan(1)), system(nan(1)), [3, 2]),
            (system(nan(1)), system(nan(2)), [0, 0]),
        ];
        for (case, (recorded, handed, kept)) in cases.iter().enumerate() {
            let carry = ProjectionCarry::default();
            let epoch = carry.reconcile(cube, 3, |v| recorded[v].as_slice());
            for (line, depth) in [(0, 3), (1, 2)] {
                carry.with_line(line, 3, epoch, |state| {
                    state.depth = depth;
                    state.sums = vec![1.0; cube.samples()];
                });
            }
            let epoch = carry.reconcile(cube, 3, |v| handed[v].as_slice());
            for (line, &depth) in kept.iter().enumerate() {
                carry.with_line(line, 3, epoch, |state| {
                    assert_eq!(state.depth, depth, "case {case}, line {line}");
                    assert_eq!(state.sums.is_empty(), depth == 0, "case {case}");
                });
            }
        }
    }

    /// Where every line's buffers start, and what they hold.
    fn line_buffers<M: LineMemo>(carry: &Carry<M>) -> Vec<(*const f64, (usize, usize))> {
        let lines = carry.lines.get().unwrap();
        let buffers = lines.iter().map(|line| line.lock().unwrap());
        buffers
            .map(|state| (state.sums.as_ptr(), state.room()))
            .collect()
    }

    /// A carry made for its run is reserved up front — `samples` residuals
    /// a line for ATDCA, `(t − 1) · samples` dots and `4 · t` trail words a
    /// pixel for UFCLS — and the run's scans, restarts included, fill it
    /// without a line buffer growing or moving. A scan deeper than the
    /// run's grows exactly the sums it overfills; an empty carry grows
    /// every line it scans.
    #[test]
    fn a_carry_made_for_its_run_never_grows() {
        let s = scene();
        let cube = &s.cube;
        let (lines, samples, whole) = (cube.lines(), cube.samples(), (0, cube.lines()));
        let bases = growing_bases(cube, 3);
        let carry = ProjectionCarry::for_run(lines, samples);
        let reserved = line_buffers(&carry);
        assert!(reserved.iter().all(|&(_, room)| room == (samples, samples)));
        for basis in [&bases[2], &bases[0], &bases[1]] {
            max_projection_carried(cube, basis, whole, &carry);
        }
        assert_eq!(line_buffers(&carry), reserved);
        assert_eq!(carry.outgrown(), 0);

        let t = 4;
        let problems = growing_problems(cube, t);
        let carry = FclsCarry::for_run(lines, samples, t);
        let reserved = line_buffers(&carry);
        let room = ((t - 1) * samples, record_words(t) * samples);
        assert!(reserved.iter().all(|&(_, held)| held == room));
        // The run's rounds, then a line deeper than the system, then a
        // system that diverges in its first endmember.
        for round in [0, 1, 2, 0] {
            max_fcls_error_carried(cube, &problems[round], whole, &carry);
        }
        let diverged = FclsProblem::new(Matrix::row_vector(&wide(cube.pixel_flat(3)))).unwrap();
        max_fcls_error_carried(cube, &diverged, whole, &carry);
        assert_eq!(line_buffers(&carry), reserved);
        assert_eq!(carry.outgrown(), 0);
        // Past the run's depth the sums of every line grow, once.
        let beyond = growing_problems(cube, t + 1);
        max_fcls_error_carried(cube, &beyond[t], whole, &carry);
        assert_eq!(carry.outgrown(), lines);

        let empty = FclsCarry::default();
        max_fcls_error_carried(cube, &problems[0], whole, &empty);
        assert_eq!(empty.outgrown(), 2 * lines);
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
        let once = (carry.applied(), carry.held());
        max_projection_carried(cube, &bases[1], whole, &copy);
        assert_eq!((carry.applied(), carry.held()), once);
        assert!(copy.held() > once.1);
        let got = max_projection_carried(cube, &bases[1], whole, &carry);
        assert_eq!(
            scored(&got),
            scored(&max_projection(cube, &bases[1], whole))
        );
        assert_eq!(
            (carry.applied(), carry.held()),
            (copy.applied(), copy.held())
        );
        assert_eq!(carry.applied(), (carry.held(), lines));
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

    /// `take()` on a detached thread: whether it returned within ten
    /// seconds. A stack that never gives a workspace back fails the test
    /// instead of hanging it; the stuck thread is left to the process's
    /// exit.
    fn takes_within_seconds(stack: &Arc<MeiWorkspaces>) -> bool {
        let (done, taken) = std::sync::mpsc::channel();
        let stack = Arc::clone(stack);
        std::thread::spawn(move || {
            let _workspace = stack.take();
            let _ = done.send(());
        });
        taken
            .recv_timeout(std::time::Duration::from_secs(10))
            .is_ok()
    }

    /// A rank that panics while it holds the run's only MEI workspace
    /// gives it back as it unwinds: a rank already waiting for it gets
    /// it, and so does a later `take`. Nothing new is made.
    #[test]
    fn a_panicking_holder_gives_its_mei_workspace_back() {
        let stack = Arc::new(MeiWorkspaces::bounded(1));
        let (holding, held) = std::sync::mpsc::channel();
        let holder = {
            let stack = Arc::clone(&stack);
            std::thread::spawn(move || {
                let _workspace = stack.take();
                holding.send(()).expect("the test listens");
                // Give the waiting take time to block.
                std::thread::sleep(std::time::Duration::from_millis(50));
                panic!("a rank dies holding its workspace");
            })
        };
        held.recv().expect("the holder takes the workspace");
        assert!(takes_within_seconds(&stack), "the waiting take returns");
        assert!(holder.join().is_err(), "the holder panicked");
        assert!(takes_within_seconds(&stack), "a second take returns");
        assert_eq!(stack.made(), 1);
    }

    /// A stack whose lock a panicking thread poisoned is taken over as it
    /// is: a `take` still returns the workspace it holds.
    #[test]
    fn a_poisoned_mei_workspace_stack_is_taken_over() {
        let stack = Arc::new(MeiWorkspaces::bounded(1));
        stack.reserve(16, &hsi_morpho::StructuringElement::square(1));
        let poisoner = {
            let stack = Arc::clone(&stack);
            std::thread::spawn(move || {
                let _idle = stack.idle.lock();
                panic!("a panic under the stack's lock");
            })
        };
        assert!(poisoner.join().is_err() && stack.idle.is_poisoned());
        assert!(takes_within_seconds(&stack), "a take returns");
        assert_eq!(stack.made(), 1);
        assert!(!stack.idle.is_poisoned());
    }
}
