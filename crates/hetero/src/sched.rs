//! The four algorithms, each described once, as rounds of line chunks —
//! the description every parallel driver runs:
//!
//! * a [`ChunkedAlgo`] describes an algorithm as a sequence of
//!   **rounds**; in every round the image lines are cut into chunks, each
//!   chunk yields a [`ChunkedAlgo::Partial`] and the charge of computing
//!   it, the master merges the round's partials into the next
//!   [`ChunkedAlgo::State`], and whatever of that state some rank reads —
//!   the round's [`ChunkedAlgo::Delta`] — is broadcast and installed into
//!   every rank's [`ChunkedAlgo::Replica`];
//! * the drivers differ in the chunk grid and in who computes which
//!   chunk, never in what a chunk, a merge or an install costs:
//!   `crate::par` runs a static grid of one WEA cell per rank (the root
//!   works its own), `crate::ft`'s re-planning and self-scheduling
//!   masters hand chunks to workers and re-issue a lost worker's;
//! * the four algorithms — [`AtdcaChunks`], [`UfclsChunks`],
//!   [`PctChunks`], [`MorphChunks`] — reuse the exact worker kernels of
//!   [`crate::kernels`]. The two detectors are one implementation,
//!   [`DetectChunks`], over the detector descriptions of `crate::detect`
//!   (system, host operations, cost table): a new detector is an impl
//!   there and an alias here.
//!
//! **Costs.** A chunk is charged the megaflops its kernel reports and the
//! bytes a device would stage for it ([`ChunkedAlgo::run_chunk`]); the
//! re-planning master predicts both from its own state
//! ([`ChunkedAlgo::chunk_mflops`], [`ChunkedAlgo::chunk_bytes`]) for one
//! representative chunk, which weighs device-bearing nodes when it sizes
//! batches under offload — exactly, except for the unique-set and MEI
//! nominations, whose charge counts SAD evaluations that depend on the
//! data. A merge is charged step by named step, and installing a delta
//! costs the detectors' `follow_up` row, once per rank per round.
//! Partials, deltas and their sizes are the payloads' [`simnet::Wire`]
//! sizes.
//!
//! **Who owns a detector's memos.** [`DetectChunks`] owns both, one per
//! run, and every rank reaches them through the `&algo` it already
//! borrows. The detector *system* (the basis or Gram problem every
//! modelled node holds) is built **once per round per run**, by the merge
//! that picks the round's winner — on the master's thread, before the
//! broadcast — so it lives in the owner's heap, not in the glibc arena of
//! whichever rank installed first. A rank's replica is a handle (`Arc`)
//! on it, which an install moves to the next round's system, and which
//! is lost with the rank. The memo is keyed by the data — a rank is
//! handed the shared next system only when it holds the shared current
//! one and installs the recorded spectrum to the bit; any other install
//! history builds a system of its own. The *carry* —
//! each image line's running sums — belongs to the lines, and which rank
//! scores a line next is the driver's business, so a chunk resumes at the
//! depth its last scorer left whoever that was, re-plans after crashes
//! included. Host wall-clock only: every rank still pays its install's
//! `follow_up` row, and the carry never shortens a charge.
//!
//! **Determinism.** The argmax algorithms (ATDCA, UFCLS) produce the
//! *same* output for every chunk grid: chunk winners are folded with the
//! row-major tie-break of `better_candidate`, so the global winner
//! equals a sequential scan's. (The same total order is what lets the
//! static driver fold winners pairwise inside a tree
//! `simnet::coll::allreduce` — any grouping of the fold agrees with the
//! flat scan, so chunked drivers, linear gathers, and fused tree
//! reductions all select identical targets.) PCT and MORPH outputs depend
//! on the grid (per-chunk candidate pools differ, exactly as the paper's
//! per-partition unique sets do), which is why the fault-tolerant
//! self-scheduler uses a *fixed* grid: results are then identical no
//! matter which worker computes which chunk — or which workers crash.

use crate::config::{AlgoParams, OverlapPolicy};
use crate::detect::{round_bytes, Detector, Fcls, Osp};
use crate::flops;
use crate::kernels;
use crate::msg::{candidate_bits, Candidate, Spectra};
use crate::offload::ChunkCost;
use crate::seq::{pct_model_len, reduce_candidates, DetectedTarget, PctModel};
use hsi_cube::labels::UNLABELED;
use hsi_cube::{HyperCube, LabelImage};
use hsi_linalg::covariance::CovarianceAccumulator;
use hsi_morpho::StructuringElement;
use simnet::Wire;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A pairwise merge of two partials (see [`ChunkedAlgo::fold`]).
pub type Fold<P> = fn(P, P) -> P;

/// An algorithm decomposed into rounds of independent line chunks.
///
/// A driver executes `rounds()` rounds. Each round every chunk of its
/// grid is computed with [`ChunkedAlgo::run_chunk`] against a replica of
/// the state, the master merges the partials (in line order) into the
/// next state with [`ChunkedAlgo::reduce`], and every rank installs the
/// merge's delta, if it has one, with [`ChunkedAlgo::install`]. After the
/// last round, [`ChunkedAlgo::finish`] extracts the output.
///
/// Chunks carry **global** line coordinates over the full cube; every
/// rank is assumed to reach the image data (staging it — a scatter, or
/// nothing — is the drivers' concern, not the trait's).
pub trait ChunkedAlgo {
    /// What the master holds between rounds.
    type State;
    /// What a round's merge changed that some rank reads (a new row of
    /// `U`, the class representatives, the model): the body of a state
    /// broadcast, shared behind an `Arc`.
    type Delta: Wire + Sync + Clone;
    /// A chunk's result, returned to the master.
    type Partial: Wire + Sync + Clone;
    /// The final analysis result.
    type Output;
    /// What a rank holds of the state: a handle on the system a detector
    /// keeps, the model or the class set a labelling round reads. Lives
    /// as long as the rank and dies with a crash.
    type Replica;

    /// Short algorithm name (reports and benches).
    fn name(&self) -> &'static str;
    /// Total image lines to cover each round.
    fn lines(&self) -> usize;
    /// Number of rounds.
    fn rounds(&self) -> usize;
    /// The state before round 0.
    fn initial_state(&self) -> Self::State;
    /// A rank's replica before any delta.
    fn replica(&self) -> Self::Replica;
    /// Takes round `round`'s delta into `replica`; returns the megaflops
    /// the modelled rank spends on it (zero where the delta is only
    /// stored).
    fn install(&self, round: usize, replica: &mut Self::Replica, delta: Arc<Self::Delta>) -> f64;
    /// Computes the partial for global lines `[first, first + n)`, and
    /// its charge: the megaflops the kernel reports and the bytes a
    /// device would stage `(in, out)`.
    fn run_chunk(
        &self,
        round: usize,
        replica: &Self::Replica,
        first: usize,
        n: usize,
    ) -> (Self::Partial, ChunkCost);
    /// The associative, commutative pairwise merge of two partials, when
    /// the master's merge is one (the detectors' winner order). The
    /// static driver then folds the partials inside one allreduce — see
    /// `crate::par`.
    fn fold(&self) -> Option<Fold<Self::Partial>> {
        None
    }
    /// Merges a round's partials (`(first line, partial)`, in line order)
    /// into the next state. Returns it, the delta the ranks read (`None`
    /// when no rank reads the new state), and the master's megaflops,
    /// one entry per named step of the merge.
    fn reduce(
        &self,
        round: usize,
        state: Self::State,
        partials: Vec<(usize, Self::Partial)>,
    ) -> (Self::State, Option<Self::Delta>, Vec<f64>);
    /// Extracts the output from the final state.
    fn finish(&self, state: Self::State) -> Self::Output;
    /// Makes the host working memory that chunks of up to `lines` lines
    /// of `round` will be computed in, here on the calling thread: a
    /// driver's master calls it on its own thread before it hands such
    /// chunks out, so the rank that computes one fills memory its owner
    /// made instead of growing its own in its thread's heap. Host work
    /// only, never charged; by default there is nothing to make.
    fn reserve(&self, _round: usize, _lines: usize) {}

    /// The megaflops [`ChunkedAlgo::run_chunk`] will charge for lines
    /// `[first, first + n)` of `round`, predicted from the state the
    /// round reads — what the re-planning master weighs nodes by when it
    /// sizes batches under offload. Exact except where the kernel's
    /// charge depends on the data.
    fn chunk_mflops(&self, round: usize, state: &Self::State, first: usize, n: usize) -> f64;
    /// The bytes [`ChunkedAlgo::run_chunk`] will charge as staged for
    /// the same chunk, predicted the same way.
    fn chunk_bytes(&self, round: usize, state: &Self::State, first: usize, n: usize) -> (u64, u64);
    /// A bound on the wire bits of a partial of an `n`-line chunk of
    /// `round`: the rank-uniform size hint collective `Auto` selection
    /// reads.
    fn partial_hint(&self, round: usize, n: usize) -> u64;
    /// The same hint for `round`'s delta, or `None` when the round has
    /// none: no rank reads the state its merge makes, so nothing is
    /// broadcast.
    fn delta_hint(&self, round: usize) -> Option<u64>;
}

/// [`ChunkedAlgo::reduce`] on a kernel pool as wide as the host rather
/// than the rank's share of it — for a master every worker is blocked
/// on, whose cores would otherwise idle through the merge. Every kernel
/// gives the same bits at any width.
pub(crate) fn reduce_on_every_core<A: ChunkedAlgo>(
    algo: &A,
    round: usize,
    state: A::State,
    partials: Vec<(usize, A::Partial)>,
) -> (A::State, Option<A::Delta>, Vec<f64>) {
    let pool = rayon::ThreadPoolBuilder::new()
        .build()
        .expect("sched: master pool");
    pool.install(|| algo.reduce(round, state, partials))
}

/// Wire bits of a block of `pixels` labels: a 32-bit header (the
/// block's first line) and one `u16` per pixel.
fn label_bits(pixels: usize) -> u64 {
    32 + (pixels * 16) as u64
}

// ---------------------------------------------------------------------
// ATDCA, UFCLS
// ---------------------------------------------------------------------

/// The winner order: highest score, a NaN below every number (all NaNs
/// alike), ties to the lowest `(line, sample)` — a total order on
/// candidates with distinct coordinates, which is what makes the
/// pairwise fold of [`better_candidate`] associative and commutative (so
/// tree allreduces agree bit-for-bit with a sequential scan, whose
/// kernels rank a NaN the same way).
fn candidate_order(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    a.score
        .partial_cmp(&b.score)
        .unwrap_or_else(|| b.score.is_nan().cmp(&a.score.is_nan()))
        .then_with(|| (b.line, b.sample).cmp(&(a.line, a.sample)))
}

/// The pairwise max under [`candidate_order`] — the detectors' merge.
/// Folding any grouping/ordering of distinct-coordinate candidates with
/// this yields the candidate a sequential scan of the whole image would
/// pick.
pub(crate) fn better_candidate(a: Candidate, b: Candidate) -> Candidate {
    if candidate_order(&a, &b) == std::cmp::Ordering::Greater {
        a
    } else {
        b
    }
}

/// A sentinel candidate that never wins (the partial of an empty chunk,
/// so every gather and fold stays uniform): a NaN score at the last
/// coordinates ranks below every pixel, a NaN-scored one included.
fn empty_candidate(bands: usize) -> Candidate {
    Candidate {
        line: u32::MAX,
        sample: u32::MAX,
        score: f64::NAN,
        spectrum: vec![0.0; bands],
    }
}

/// Either target detector as a chunked algorithm — name it through
/// [`AtdcaChunks`] or [`UfclsChunks`]. `D` is the detector's description
/// (`crate::detect`): its score, its cost table, the system a rank's
/// replica is a handle on, and the carry of the image lines. The
/// algorithm holds the systems and the carry for all its ranks.
pub struct DetectChunks<'a, D: Detector> {
    cube: &'a HyperCube,
    params: &'a AlgoParams,
    carry: D::Carry,
    systems: Systems<D>,
}

/// The detector systems a run's ranks share: entry `k` of the chain is
/// the system over the first `k` winners (entry 0 the empty one) with
/// the spectrum it took in last. The chain is extended by the merge that
/// picks a round's winner ([`Systems::extend`]), on the master's thread
/// before the winner is broadcast, so every system of the chain is made
/// by the run's owner rather than by whichever rank installs it first
/// (in a fused round, where every rank merges, by the first to merge).
/// Keyed by the data, as a carry is: an install moves a rank from entry
/// `k` to entry `k + 1` only when the rank holds entry `k` itself and
/// installs entry `k + 1`'s spectrum to the bit, and it only ever finds
/// that entry. Any other history — a rank that skipped a round, a
/// spectrum the chain did not record — builds a system of the rank's
/// own and leaves the chain alone.
struct Systems<D> {
    chain: Mutex<Vec<(Vec<f32>, Arc<D>)>>,
    /// Host-work tallies: systems built, shared or private, and of those
    /// the ones an install built (private, off the chain).
    built: AtomicUsize,
    by_installs: AtomicUsize,
}

impl<D: Detector> Systems<D> {
    fn new(bands: usize) -> Self {
        Systems {
            chain: Mutex::new(vec![(Vec::new(), Arc::new(D::new(bands)))]),
            built: AtomicUsize::new(0),
            by_installs: AtomicUsize::new(0),
        }
    }

    /// The chain, whoever panicked holding it: an entry is pushed only
    /// once built, so the chain is whole whatever a panic interrupted.
    fn chain(&self) -> std::sync::MutexGuard<'_, Vec<(Vec<f32>, Arc<D>)>> {
        self.chain.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The system of a rank that has taken in no target yet.
    fn empty(&self) -> Arc<D> {
        Arc::clone(&self.chain()[0].1)
    }

    /// Makes entry `depth + 1` of the chain — entry `depth` with
    /// `spectrum` taken in — when the chain ends at `depth`. A chain that
    /// already holds the entry (a merge of the same round asked first,
    /// or an earlier run over the same algorithm), or one that ends
    /// short of `depth`, is left alone.
    fn extend(&self, depth: usize, spectrum: &[f32]) {
        let mut chain = self.chain();
        if chain.len() == depth + 1 {
            let next = self.build(&chain[depth].1, spectrum);
            chain.push((spectrum.to_vec(), next));
        }
    }

    /// `current` with `spectrum` taken in: the chain's next entry when
    /// `current` is on the chain and the spectrum is the one it recorded,
    /// else a system of its own.
    fn next(&self, current: &Arc<D>, spectrum: &[f32]) -> Arc<D> {
        let chain = self.chain();
        let k = current.admitted();
        let on_chain = chain
            .get(k)
            .is_some_and(|(_, held)| Arc::ptr_eq(held, current));
        if let Some((recorded, next)) = chain.get(k + 1).filter(|_| on_chain) {
            // Bit for bit: `-0.0` is not `0.0`, a NaN matches only its own
            // payload.
            if recorded
                .iter()
                .map(|x| x.to_bits())
                .eq(spectrum.iter().map(|x| x.to_bits()))
            {
                return Arc::clone(next);
            }
        }
        drop(chain);
        self.by_installs.fetch_add(1, Ordering::Relaxed);
        self.build(current, spectrum)
    }

    fn build(&self, current: &D, spectrum: &[f32]) -> Arc<D> {
        self.built.fetch_add(1, Ordering::Relaxed);
        Arc::new(current.with_target(spectrum))
    }
}

/// ATDCA (paper Algorithm 2) as a chunked algorithm: one round per
/// target; each chunk nominates its brightest (round 0) or
/// maximum-projection pixel, the merge selects the global winner with
/// the sequential tie-break and broadcasts its spectrum. Output is
/// identical for **any** chunk grid.
pub type AtdcaChunks<'a> = DetectChunks<'a, Osp>;

/// UFCLS (paper Algorithm 3) as a chunked algorithm: rounds grow the
/// endmember set by the pixel with the largest fully-constrained
/// least-squares error. Output is identical for any chunk grid.
pub type UfclsChunks<'a> = DetectChunks<'a, Fcls>;

impl<'a, D: Detector> DetectChunks<'a, D> {
    /// Wraps a cube and parameters; the systems start empty, and the
    /// carry is reserved here, on the caller's thread, at the size the
    /// run fills.
    pub fn new(cube: &'a HyperCube, params: &'a AlgoParams) -> Self {
        DetectChunks {
            cube,
            params,
            carry: D::carry(cube.lines(), cube.samples(), params.num_targets),
            systems: Systems::new(cube.bands()),
        }
    }

    /// The cube and parameters the algorithm was made over.
    pub(crate) fn inputs(&self) -> (&'a HyperCube, &'a AlgoParams) {
        (self.cube, self.params)
    }

    /// The run's carry (its host-work tallies are what the counting
    /// tests read).
    #[doc(hidden)]
    pub fn carry(&self) -> &D::Carry {
        &self.carry
    }

    /// How many detector systems the run has built so far, shared or
    /// private: one per round when every rank installs the run's
    /// winners. A host-work tally, like the carry's; the virtual clock
    /// never reads it.
    #[doc(hidden)]
    pub fn systems_built(&self) -> usize {
        self.systems.built.load(Ordering::Relaxed)
    }

    /// How many of [`Self::systems_built`] an install built: a private
    /// system, for a rank whose history left the run's. None when every
    /// rank installs the winners the merges picked — each shared system
    /// is made by the merge, on the master's thread.
    #[doc(hidden)]
    pub fn systems_built_by_installs(&self) -> usize {
        self.systems.by_installs.load(Ordering::Relaxed)
    }
}

impl<D: Detector> ChunkedAlgo for DetectChunks<'_, D> {
    type State = Vec<DetectedTarget>;
    /// The winner's spectrum: one new row of `U`.
    type Delta = Spectra;
    type Partial = Candidate;
    type Output = Vec<DetectedTarget>;
    /// A handle on the detector system over the targets installed so far
    /// — the system alone, which the run's ranks share: the lines' sums
    /// are the run's too.
    type Replica = Arc<D>;

    fn name(&self) -> &'static str {
        D::NAME
    }

    fn lines(&self) -> usize {
        self.cube.lines()
    }

    fn rounds(&self) -> usize {
        self.params.num_targets
    }

    fn initial_state(&self) -> Self::State {
        Vec::new()
    }

    fn replica(&self) -> Arc<D> {
        self.systems.empty()
    }

    /// Every rank pays the `follow_up` row; the merge built the system
    /// the install finds, and a rank's install moves its handle on.
    fn install(&self, round: usize, detector: &mut Arc<D>, delta: Arc<Spectra>) -> f64 {
        *detector = self.systems.next(detector, &delta.0[0]);
        D::follow_up(self.cube.bands(), round, self.params.num_targets)
    }

    fn run_chunk(
        &self,
        round: usize,
        detector: &Arc<D>,
        first: usize,
        n: usize,
    ) -> (Candidate, ChunkCost) {
        let range = (first, first + n);
        let (cand, mflops) = if round == 0 {
            kernels::brightest(self.cube, range)
        } else {
            detector.nominate(self.cube, range, &self.carry)
        };
        let cand = match cand {
            Some(p) => p.to_candidate(self.cube, 0, 0),
            None => empty_candidate(self.cube.bands()),
        };
        let bytes = round_bytes(n * self.cube.samples(), self.cube.bands(), round);
        (cand, ChunkCost::new(mflops, bytes))
    }

    fn fold(&self) -> Option<Fold<Candidate>> {
        Some(better_candidate)
    }

    /// One step: the master re-scores every gathered candidate. The
    /// host also builds the system over the new winner here, on the
    /// merging thread, before any rank installs it (host work only: the
    /// ranks still pay their `follow_up` row).
    fn reduce(
        &self,
        round: usize,
        mut state: Self::State,
        partials: Vec<(usize, Candidate)>,
    ) -> (Self::State, Option<Spectra>, Vec<f64>) {
        let rescore = flops::mflop(D::rescore(self.cube.bands(), round) * partials.len() as f64);
        let best = partials
            .into_iter()
            .map(|(_, c)| c)
            .reduce(better_candidate)
            .expect("detect: a round merges one partial at least");
        self.systems.extend(round, &best.spectrum);
        let delta = Spectra(vec![best.spectrum.clone()]);
        state.push(DetectedTarget {
            line: best.line as usize,
            sample: best.sample as usize,
            spectrum: best.spectrum,
        });
        (state, Some(delta), vec![rescore])
    }

    fn finish(&self, state: Self::State) -> Self::Output {
        state
    }

    fn chunk_mflops(&self, round: usize, _state: &Self::State, _first: usize, n: usize) -> f64 {
        let bands = self.cube.bands();
        let per_pixel = if round == 0 {
            flops::brightness(bands)
        } else {
            D::score(bands, round)
        };
        flops::mflop(per_pixel * (n * self.cube.samples()) as f64)
    }

    fn chunk_bytes(
        &self,
        round: usize,
        _state: &Self::State,
        _first: usize,
        n: usize,
    ) -> (u64, u64) {
        round_bytes(n * self.cube.samples(), self.cube.bands(), round)
    }

    fn partial_hint(&self, _round: usize, _n: usize) -> u64 {
        candidate_bits(self.cube.bands())
    }

    /// Every round's winner is taken in by every rank, the last one's
    /// included.
    fn delta_hint(&self, _round: usize) -> Option<u64> {
        Some(32 * self.cube.bands() as u64)
    }
}

// ---------------------------------------------------------------------
// PCT, MORPH
// ---------------------------------------------------------------------

/// Per-chunk partials of the two classifiers.
#[derive(Debug, Clone)]
pub enum ClassPartial {
    /// Candidate class representatives: a unique set (PCT) or the
    /// distinct top-MEI pixels (MORPH).
    Cands(Vec<Candidate>),
    /// A covariance shard (PCT): the line range whose mean and covariance
    /// sums the master adds to its total, sized as the flat accumulator
    /// the wire carries. The master sums the lines where it merges them
    /// (see [`PctChunks`]), so the shard holds nothing on the heap.
    Shard {
        /// First line of the range.
        first: usize,
        /// Lines in the range.
        lines: usize,
        /// Wire bits: `flat_len(bands)` `f64`s.
        bits: u64,
    },
    /// The labels of the chunk's lines.
    Labels(Vec<u16>),
}

impl Wire for ClassPartial {
    fn size_bits(&self) -> u64 {
        match self {
            ClassPartial::Cands(cs) => cs.iter().map(Wire::size_bits).sum(),
            ClassPartial::Shard { bits, .. } => *bits,
            ClassPartial::Labels(l) => label_bits(l.len()),
        }
    }
}

/// The scored spectra of a candidate round's partials, in line order —
/// what the master's unique-set reduction takes.
fn scored(partials: Vec<(usize, ClassPartial)>) -> Vec<(Vec<f32>, f64)> {
    let mut scored = Vec::new();
    for (_, p) in partials {
        let ClassPartial::Cands(cs) = p else {
            panic!("candidate round merged a non-candidate partial")
        };
        scored.extend(cs.into_iter().map(|c| (c.spectrum, c.score)));
    }
    scored
}

/// The label image a labelling round's partials assemble; lines no
/// partial covers (a lost rank's) stay unlabeled.
fn assemble(cube: &HyperCube, partials: Vec<(usize, ClassPartial)>) -> LabelImage {
    let samples = cube.samples();
    let mut labels = vec![UNLABELED; cube.lines() * samples];
    for (first, p) in partials {
        let ClassPartial::Labels(l) = p else {
            panic!("labelling round merged a non-label partial")
        };
        labels[first * samples..first * samples + l.len()].copy_from_slice(&l);
    }
    LabelImage::from_vec(cube.lines(), samples, labels)
}

/// PCT round-by-round state (see [`PctChunks`]).
#[derive(Debug, Clone)]
pub enum PctState {
    /// Before round 0.
    Fresh,
    /// After round 0: the merged class representatives. Master-held —
    /// the covariance round does not read them, so nothing is broadcast.
    Reps(Vec<Vec<f32>>),
    /// After round 1: the PCT model (broadcast before the labelling
    /// round).
    Model(PctModel),
    /// After round 2: the assembled labels plus the model.
    Done(LabelImage, PctModel),
}

/// PCT (paper Algorithm 4) as a chunked algorithm, three rounds:
/// unique-set construction, covariance accumulation, and labelling with
/// the eigendecomposition at the merge between rounds 1 and 2. The
/// candidate pool — hence the exact labelling — depends on the chunk
/// grid; a fixed grid gives identical output regardless of which rank
/// computes which chunk.
///
/// **Where a covariance shard is summed.** A round-1 chunk is charged
/// the accumulation's megaflops and ships a flat accumulator's wire
/// size, as the paper's worker does, but its partial is only its line
/// range ([`ClassPartial::Shard`]). The master sums every shard from the
/// shared cube at the moment it merges it
/// ([`kernels::covariance_of_shards`]), with the additions, in the
/// order, that summing on the worker and merging the sums would make.
/// The modelled cluster pays for the same work at the same virtual
/// instants; only the host thread that does it, and when, differs — so
/// no 200 KB shard of a 256-rank run waits in memory for the merge.
pub struct PctChunks<'a> {
    cube: &'a HyperCube,
    params: &'a AlgoParams,
}

impl<'a> PctChunks<'a> {
    /// Wraps a cube and parameters.
    pub fn new(cube: &'a HyperCube, params: &'a AlgoParams) -> Self {
        PctChunks { cube, params }
    }

    /// Wire bits of a covariance shard: one flat accumulator of `f64`s.
    fn shard_bits(&self) -> u64 {
        (CovarianceAccumulator::flat_len(self.cube.bands()) * 64) as u64
    }

    /// Bytes staged for an `n`-line chunk of `round`: the chunk in, and
    /// up to `4c` candidates, one flat accumulator shard, or the labels
    /// out; labelling also stages the `f64` model it is sent.
    fn bytes(&self, round: usize, n: usize) -> (u64, u64) {
        let bands = self.cube.bands() as u64;
        let c = self.params.num_classes as u64;
        let pixels = (n * self.cube.samples()) as u64;
        let chunk = pixels * bands * 4;
        match round {
            0 => (chunk, 4 * c * (bands * 4 + 8)),
            1 => (chunk, (bands * (bands + 3) / 2 + 1) * 8),
            _ => (
                chunk + pct_model_len(self.cube.bands(), self.params.num_classes) as u64 * 8,
                pixels * 2,
            ),
        }
    }
}

impl ChunkedAlgo for PctChunks<'_> {
    type State = PctState;
    type Delta = PctModel;
    type Partial = ClassPartial;
    type Output = (LabelImage, PctModel);
    /// The model, once the labelling round is sent it.
    type Replica = Option<Arc<PctModel>>;

    fn name(&self) -> &'static str {
        "PCT"
    }

    fn lines(&self) -> usize {
        self.cube.lines()
    }

    fn rounds(&self) -> usize {
        3
    }

    fn initial_state(&self) -> Self::State {
        PctState::Fresh
    }

    fn replica(&self) -> Self::Replica {
        None
    }

    fn install(&self, _round: usize, replica: &mut Self::Replica, model: Arc<PctModel>) -> f64 {
        *replica = Some(model);
        0.0
    }

    fn run_chunk(
        &self,
        round: usize,
        replica: &Self::Replica,
        first: usize,
        n: usize,
    ) -> (ClassPartial, ChunkCost) {
        let (cube, range) = (self.cube, (first, first + n));
        let (partial, mflops) = match round {
            0 => {
                let cap = 4 * self.params.num_classes;
                let (set, mflops) =
                    kernels::unique_set(cube, range, self.params.sad_threshold, cap);
                let cands = set.iter().map(|p| p.to_candidate(cube, 0, 0)).collect();
                (ClassPartial::Cands(cands), mflops)
            }
            1 => (
                ClassPartial::Shard {
                    first,
                    lines: n,
                    bits: self.shard_bits(),
                },
                kernels::covariance_mflops(cube, range),
            ),
            _ => {
                let m = replica
                    .as_ref()
                    .expect("pct: labelling round without a model");
                let (labels, mflops) =
                    kernels::pct_label(cube, range, &m.transform, &m.mean, &m.class_reps);
                (ClassPartial::Labels(labels), mflops)
            }
        };
        (partial, ChunkCost::new(mflops, self.bytes(round, n)))
    }

    /// Round 0: the unique-set reduction. Round 1: three steps — merging
    /// the covariance shards, the sequential eigendecomposition, and
    /// taking the representatives into the model's space. Round 2: none.
    fn reduce(
        &self,
        round: usize,
        state: Self::State,
        partials: Vec<(usize, ClassPartial)>,
    ) -> (Self::State, Option<PctModel>, Vec<f64>) {
        let n = self.cube.bands();
        let c = self.params.num_classes;
        match (round, state) {
            (0, _) => {
                let (reps, mflops) =
                    reduce_candidates(&scored(partials), self.params.sad_threshold, c);
                (PctState::Reps(reps), None, vec![mflops])
            }
            (1, PctState::Reps(reps)) => {
                let shards = partials.len();
                let ranges: Vec<_> = partials
                    .into_iter()
                    .map(|(_, p)| {
                        let ClassPartial::Shard { first, lines, .. } = p else {
                            panic!("pct: covariance round merged a non-shard partial")
                        };
                        (first, first + lines)
                    })
                    .collect();
                let total = kernels::covariance_of_shards(self.cube, &ranges);
                let model = PctModel::fit(total, &reps, c);
                let steps = vec![
                    flops::mflop((shards * n * (n + 3) / 2) as f64),
                    flops::mflop(flops::jacobi_eigen(n)),
                    flops::mflop(
                        reps.len() as f64 * flops::pct_transform(n, model.transform.rows()),
                    ),
                ];
                (PctState::Model(model.clone()), Some(model), steps)
            }
            (2, PctState::Model(model)) => (
                PctState::Done(assemble(self.cube, partials), model),
                None,
                Vec::new(),
            ),
            (round, _) => panic!("pct: round {round} merged out of order"),
        }
    }

    fn finish(&self, state: Self::State) -> Self::Output {
        let PctState::Done(labels, model) = state else {
            panic!("pct: finish before the labelling round")
        };
        (labels, model)
    }

    fn chunk_mflops(&self, round: usize, state: &Self::State, first: usize, n: usize) -> f64 {
        let bands = self.cube.bands();
        let pixels = n * self.cube.samples();
        match (round, state) {
            // Worst case: every pixel scanned against a full set.
            (0, _) => flops::mflop(flops::unique_set(
                bands,
                pixels,
                4 * self.params.num_classes,
            )),
            (1, _) => kernels::covariance_mflops(self.cube, (first, first + n)),
            (_, PctState::Model(m)) => {
                let c = m.transform.rows();
                flops::mflop(
                    (flops::pct_transform(bands, c)
                        + flops::pct_classify(c, m.class_reps.len().max(1)))
                        * pixels as f64,
                )
            }
            _ => panic!("pct: labelling round without a model"),
        }
    }

    fn chunk_bytes(
        &self,
        round: usize,
        _state: &Self::State,
        _first: usize,
        n: usize,
    ) -> (u64, u64) {
        self.bytes(round, n)
    }

    fn partial_hint(&self, round: usize, n: usize) -> u64 {
        let bands = self.cube.bands();
        match round {
            0 => (4 * self.params.num_classes) as u64 * candidate_bits(bands),
            1 => self.shard_bits(),
            _ => label_bits(n * self.cube.samples()),
        }
    }

    /// Only the model is read by anyone (the labelling round).
    fn delta_hint(&self, round: usize) -> Option<u64> {
        let model_len = pct_model_len(self.cube.bands(), self.params.num_classes) as u64;
        (round == 1).then_some(model_len * 64)
    }
}

/// MORPH round-by-round state (see [`MorphChunks`]).
#[derive(Debug, Clone)]
pub enum MorphState {
    /// Before round 0.
    Fresh,
    /// After round 0: merged class representatives (broadcast before
    /// labelling).
    Reps(Vec<Vec<f32>>),
    /// After round 1: labels plus the representatives.
    Done(LabelImage, Vec<Vec<f32>>),
}

/// MORPH (paper Algorithm 5) as a chunked algorithm, two rounds: MEI
/// candidate nomination (each chunk is a window on the image with its
/// halo, the paper's overlap border — an image of its own with its own
/// edges, no sample copied) and SAD labelling against the merged class
/// representatives.
///
/// **Who makes a window's working memory.** The MEI of a window works in
/// one of the run's [`kernels::MeiWorkspaces`], which the algorithm holds
/// for all its ranks: at most as many as the host has cores, lent to
/// whichever rank computes a window next. They are made by the driver's
/// master, on its own thread, for the largest window it is about to hand
/// out ([`ChunkedAlgo::reserve`]): the static driver of `crate::par` for
/// its largest WEA cell before any rank starts, the ft masters for each
/// round's chunks or batches before they send them.
pub struct MorphChunks<'a> {
    cube: &'a HyperCube,
    params: &'a AlgoParams,
    se: StructuringElement,
    halo: usize,
    workspaces: kernels::MeiWorkspaces,
}

impl<'a> MorphChunks<'a> {
    /// Wraps a cube and parameters, halo sized by the default
    /// [`OverlapPolicy`].
    pub fn new(cube: &'a HyperCube, params: &'a AlgoParams) -> Self {
        MorphChunks {
            cube,
            params,
            se: StructuringElement::square(params.se_radius),
            halo: 0,
            workspaces: kernels::MeiWorkspaces::new(),
        }
        .with_overlap(OverlapPolicy::default())
    }

    /// The cube and parameters the algorithm was made over.
    pub(crate) fn inputs(&self) -> (&'a HyperCube, &'a AlgoParams) {
        (self.cube, self.params)
    }

    /// The run's MEI workspaces (their host-work tallies are what the
    /// counting tests read).
    #[doc(hidden)]
    pub fn workspaces(&self) -> &kernels::MeiWorkspaces {
        &self.workspaces
    }

    /// The same algorithm with halos sized by `policy`.
    pub(crate) fn with_overlap(self, policy: OverlapPolicy) -> Self {
        let halo = policy.halo_lines(self.params.se_radius, self.params.morph_iterations);
        MorphChunks { halo, ..self }
    }

    /// Halo lines on each side of a chunk (the partitioned run's
    /// overlap border).
    pub(crate) fn halo(&self) -> usize {
        self.halo
    }

    /// Lines of the halo-padded window of chunk `[first, first + n)`: the
    /// halo is clipped at the first and last image line.
    fn padded_lines(&self, first: usize, n: usize) -> usize {
        (first + n + self.halo).min(self.cube.lines()) - first.saturating_sub(self.halo)
    }

    /// Bytes staged for the MEI step: the padded window in, up to `c`
    /// scored spectra out.
    fn mei_bytes(&self, padded_lines: usize) -> (u64, u64) {
        let bands = self.cube.bands() as u64;
        (
            (padded_lines * self.cube.samples()) as u64 * bands * 4,
            self.params.num_classes as u64 * (bands * 4 + 8),
        )
    }

    /// Bytes staged to label `n` lines against `classes` representatives:
    /// the lines and the representatives in, the labels out.
    fn label_bytes(&self, n: usize, classes: usize) -> (u64, u64) {
        let (pixels, bands) = (n * self.cube.samples(), self.cube.bands());
        (
            (pixels * bands * 4) as u64 + (classes * bands * 4) as u64,
            (pixels * 2) as u64,
        )
    }
}

impl ChunkedAlgo for MorphChunks<'_> {
    type State = MorphState;
    type Delta = Spectra;
    type Partial = ClassPartial;
    type Output = (LabelImage, Vec<Vec<f32>>);
    /// The class representatives, once the labelling round is sent them.
    type Replica = Option<Arc<Spectra>>;

    fn name(&self) -> &'static str {
        "MORPH"
    }

    fn lines(&self) -> usize {
        self.cube.lines()
    }

    fn rounds(&self) -> usize {
        2
    }

    fn initial_state(&self) -> Self::State {
        MorphState::Fresh
    }

    fn replica(&self) -> Self::Replica {
        None
    }

    fn install(&self, _round: usize, replica: &mut Self::Replica, reps: Arc<Spectra>) -> f64 {
        *replica = Some(reps);
        0.0
    }

    fn run_chunk(
        &self,
        round: usize,
        replica: &Self::Replica,
        first: usize,
        n: usize,
    ) -> (ClassPartial, ChunkCost) {
        if round == 0 {
            // MEI over the window, halo included (the redundant work),
            // nominations from the owned lines only.
            let (block, pre) = self.cube.extract_lines_with_overlap(first, n, self.halo);
            let (top, mflops) = kernels::mei_top_in(
                &mut self.workspaces.take(),
                &block,
                &self.se,
                self.params.morph_iterations,
                (pre, pre + n),
                self.params.num_classes,
                self.params.sad_threshold,
            );
            let cands = top
                .iter()
                .map(|p| p.to_candidate(&block, first, pre))
                .collect();
            let cost = ChunkCost::new(mflops, self.mei_bytes(block.lines()));
            (ClassPartial::Cands(cands), cost)
        } else {
            let reps = &replica
                .as_ref()
                .expect("morph: labelling round without reps")
                .0;
            let (labels, mflops) = kernels::sad_label(self.cube, (first, first + n), reps);
            let cost = ChunkCost::new(mflops, self.label_bytes(n, reps.len()));
            (ClassPartial::Labels(labels), cost)
        }
    }

    /// Round 0: the unique-set reduction. Round 1: none.
    fn reduce(
        &self,
        round: usize,
        state: Self::State,
        partials: Vec<(usize, ClassPartial)>,
    ) -> (Self::State, Option<Spectra>, Vec<f64>) {
        match (round, state) {
            (0, _) => {
                let (thr, c) = (self.params.sad_threshold, self.params.num_classes);
                let (reps, mflops) = reduce_candidates(&scored(partials), thr, c);
                (
                    MorphState::Reps(reps.clone()),
                    Some(Spectra(reps)),
                    vec![mflops],
                )
            }
            (1, MorphState::Reps(reps)) => (
                MorphState::Done(assemble(self.cube, partials), reps),
                None,
                Vec::new(),
            ),
            (round, _) => panic!("morph: round {round} merged out of order"),
        }
    }

    fn finish(&self, state: Self::State) -> Self::Output {
        let MorphState::Done(labels, reps) = state else {
            panic!("morph: finish before the labelling round")
        };
        (labels, reps)
    }

    /// The MEI round's workspaces, with room for the halo-padded window
    /// of a chunk of `lines` lines.
    fn reserve(&self, round: usize, lines: usize) {
        if round == 0 {
            let window = (lines + 2 * self.halo).min(self.cube.lines());
            self.workspaces
                .reserve(window * self.cube.samples(), &self.se);
        }
    }

    /// Round 0 prices the MEI of the clipped window, not the nomination's
    /// SAD evaluations (data-dependent).
    fn chunk_mflops(&self, round: usize, state: &Self::State, first: usize, n: usize) -> f64 {
        let (bands, samples) = (self.cube.bands(), self.cube.samples());
        match (round, state) {
            (0, _) => flops::mflop(
                flops::mei_iteration(self.padded_lines(first, n) * samples, bands, self.se.len())
                    * self.params.morph_iterations as f64,
            ),
            (_, MorphState::Reps(reps)) => {
                flops::mflop(flops::sad_classify(bands, reps.len().max(1)) * (n * samples) as f64)
            }
            _ => panic!("morph: labelling round without reps"),
        }
    }

    fn chunk_bytes(&self, round: usize, state: &Self::State, first: usize, n: usize) -> (u64, u64) {
        match (round, state) {
            (0, _) => self.mei_bytes(self.padded_lines(first, n)),
            (_, MorphState::Reps(reps)) => self.label_bytes(n, reps.len()),
            _ => panic!("morph: labelling round without reps"),
        }
    }

    fn partial_hint(&self, round: usize, n: usize) -> u64 {
        match round {
            0 => self.params.num_classes as u64 * candidate_bits(self.cube.bands()),
            _ => label_bits(n * self.cube.samples()),
        }
    }

    /// The class set is read by the labelling round; nothing reads the
    /// labels.
    fn delta_hint(&self, round: usize) -> Option<u64> {
        let c = self.params.num_classes;
        (round == 0).then_some((c * self.cube.bands() * 32) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi_cube::synth::{wtc_scene, WtcConfig};

    /// Executes a chunked algorithm locally (no simulator) on a fixed
    /// chunk grid — the reference driver the parallel drivers must agree
    /// with.
    fn run_local<A: ChunkedAlgo>(algo: &A, chunk: usize) -> A::Output {
        let (mut state, mut replica) = (algo.initial_state(), algo.replica());
        for round in 0..algo.rounds() {
            let mut partials = Vec::new();
            let mut first = 0;
            while first < algo.lines() {
                let n = chunk.min(algo.lines() - first);
                partials.push((first, algo.run_chunk(round, &replica, first, n).0));
                first += n;
            }
            let (next, delta, _) = algo.reduce(round, state, partials);
            if let Some(delta) = delta {
                algo.install(round, &mut replica, Arc::new(delta));
            }
            state = next;
        }
        algo.finish(state)
    }

    fn scene() -> hsi_cube::synth::SyntheticScene {
        wtc_scene(WtcConfig::tiny())
    }

    fn cand(line: u32, sample: u32, score: f64) -> Candidate {
        Candidate {
            line,
            sample,
            score,
            spectrum: vec![],
        }
    }

    fn fold(cands: &[Candidate]) -> (u32, u32) {
        let best = cands
            .iter()
            .cloned()
            .reduce(better_candidate)
            .expect("nonempty");
        (best.line, best.sample)
    }

    #[test]
    fn the_winner_is_the_highest_score_ties_to_the_lowest_coordinates() {
        assert_eq!(
            fold(&[cand(0, 0, 1.0), cand(1, 1, 3.0), cand(2, 2, 2.0)]),
            (1, 1)
        );
        assert_eq!(
            fold(&[cand(5, 5, 2.0), cand(1, 9, 2.0), cand(1, 2, 2.0)]),
            (1, 2)
        );
        // The sentinel never wins.
        assert_eq!(fold(&[empty_candidate(4), cand(3, 3, -1.0)]), (3, 3));
    }

    #[test]
    fn pairwise_fold_agrees_for_any_grouping() {
        let cands = [
            cand(5, 5, 2.0),
            cand(1, 9, 2.0),
            cand(0, 0, -1.0),
            cand(1, 2, 2.0),
            cand(7, 7, 1.5),
        ];
        let left = fold(&cands);
        let right = fold(&cands.iter().rev().cloned().collect::<Vec<_>>());
        let tree = better_candidate(
            better_candidate(cands[0].clone(), cands[1].clone()),
            better_candidate(
                cands[2].clone(),
                better_candidate(cands[3].clone(), cands[4].clone()),
            ),
        );
        assert_eq!(left, (1, 2));
        assert_eq!(right, left);
        assert_eq!((tree.line, tree.sample), left);
    }

    #[test]
    fn atdca_chunked_matches_sequential_for_any_grid() {
        let s = scene();
        let p = AlgoParams {
            num_targets: 6,
            ..Default::default()
        };
        let seq = crate::seq::atdca(&s.cube, &p);
        let seq_coords: Vec<_> = seq.result.iter().map(|t| (t.line, t.sample)).collect();
        let algo = AtdcaChunks::new(&s.cube, &p);
        for chunk in [5usize, 17, s.cube.lines()] {
            let out = run_local(&algo, chunk);
            let coords: Vec<_> = out.iter().map(|t| (t.line, t.sample)).collect();
            assert_eq!(coords, seq_coords, "chunk {chunk}");
        }
    }

    #[test]
    fn ufcls_chunked_matches_sequential_for_any_grid() {
        let s = scene();
        let p = AlgoParams {
            num_targets: 5,
            ..Default::default()
        };
        let seq = crate::seq::ufcls(&s.cube, &p);
        let seq_coords: Vec<_> = seq.result.iter().map(|t| (t.line, t.sample)).collect();
        let algo = UfclsChunks::new(&s.cube, &p);
        for chunk in [7usize, s.cube.lines()] {
            let out = run_local(&algo, chunk);
            let coords: Vec<_> = out.iter().map(|t| (t.line, t.sample)).collect();
            assert_eq!(coords, seq_coords, "chunk {chunk}");
        }
    }

    #[test]
    fn pct_single_chunk_equals_sequential() {
        let s = scene();
        let p = AlgoParams::default();
        let seq = crate::seq::pct(&s.cube, &p);
        let algo = PctChunks::new(&s.cube, &p);
        let (labels, model) = run_local(&algo, s.cube.lines());
        assert_eq!(labels.as_slice(), seq.result.0.as_slice());
        assert_eq!(model.mean, seq.result.1.mean);
    }

    #[test]
    fn pct_chunked_labelling_is_sound() {
        let s = scene();
        let p = AlgoParams::default();
        let algo = PctChunks::new(&s.cube, &p);
        let (labels, _) = run_local(&algo, 8);
        assert_eq!(labels.lines(), s.cube.lines());
        for &l in labels.as_slice() {
            assert!((l as usize) < p.num_classes);
        }
        let acc = hsi_cube::labels::score(&labels, &s.truth).overall;
        assert!(acc > 25.0, "chunked PCT accuracy only {acc:.1}%");
    }

    /// `c > bands`: the transform has `c.min(bands)` rows, and the
    /// labelling round stages the model that is broadcast, not a
    /// `c`-row one.
    #[test]
    fn pct_labelling_round_stages_the_model_it_is_sent() {
        // Eight lines, one spectral direction each, 45° or more apart.
        let directions: [[f32; 4]; 8] = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ];
        let (samples, bands) = (4, 4);
        let data: Vec<f32> = directions
            .iter()
            .flat_map(|d| (1..=samples).flat_map(move |gain| d.map(|v| v * gain as f32)))
            .collect();
        let cube = HyperCube::from_vec(directions.len(), samples, bands, data);
        let p = AlgoParams {
            num_classes: 7,
            ..Default::default()
        };
        let algo = PctChunks::new(&cube, &p);
        let lines = cube.lines();
        let (mut state, mut delta) = (algo.initial_state(), None);
        for round in 0..2 {
            let (partial, _) = algo.run_chunk(round, &None, 0, lines);
            (state, delta, _) = algo.reduce(round, state, vec![(0, partial)]);
        }
        let model = delta.expect("the covariance round broadcasts the model");
        assert_eq!((model.transform.rows(), model.class_reps.len()), (4, 7));
        let chunk_bytes = (lines * samples * bands * 4) as u64;
        let model_bytes = model.size_bits() / 8;
        assert_eq!(
            algo.chunk_bytes(2, &state, 0, lines).0,
            chunk_bytes + model_bytes
        );
        // The labelling charge is predicted from the model to the bit.
        let (_, charged) = algo.run_chunk(2, &Some(Arc::new(model)), 0, lines);
        assert_eq!(charged.mflops, algo.chunk_mflops(2, &state, 0, lines));
    }

    #[test]
    fn morph_single_chunk_equals_sequential() {
        let s = scene();
        let p = AlgoParams {
            morph_iterations: 2,
            ..Default::default()
        };
        let seq = crate::seq::morph(&s.cube, &p);
        let algo = MorphChunks::new(&s.cube, &p);
        let (labels, reps) = run_local(&algo, s.cube.lines());
        assert_eq!(labels.as_slice(), seq.result.0.as_slice());
        assert_eq!(reps, seq.result.1);
    }

    #[test]
    fn morph_chunked_labelling_is_sound() {
        let s = scene();
        let p = AlgoParams {
            morph_iterations: 2,
            ..Default::default()
        };
        let algo = MorphChunks::new(&s.cube, &p);
        let (labels, _) = run_local(&algo, 8);
        for &l in labels.as_slice() {
            assert!((l as usize) < p.num_classes);
        }
        let acc = crate::eval::debris_accuracy(&s, &labels, 7).overall;
        assert!(acc > 30.0, "chunked MORPH accuracy only {acc:.1}%");
    }

    /// The MEI round prices the window `run_chunk` stages: its halo is
    /// clipped at the first and last image line, so a chunk that touches
    /// either edge is priced fewer lines than `n + 2·halo`.
    #[test]
    fn morph_prices_the_clipped_halo_it_stages() {
        let s = scene();
        let p = AlgoParams::default();
        let algo = MorphChunks::new(&s.cube, &p);
        let (lines, state) = (s.cube.lines(), MorphState::Fresh);
        // The tiny scene: 48 lines × 40 samples × 64 bands, halo 1.
        assert_eq!(algo.chunk_bytes(0, &state, 0, lines).0, 491_520);
        assert_eq!(algo.chunk_bytes(0, &state, 0, 8).0, 92_160);
        assert_eq!(algo.chunk_bytes(0, &state, 8, 8).0, 102_400);
        for (first, n) in [(0, lines), (0, 8), (8, 8), (40, 8), (47, 1), (20, 0)] {
            let (_, charged) = algo.run_chunk(0, &None, first, n);
            let predicted = algo.chunk_bytes(0, &state, first, n);
            assert_eq!((charged.bytes_h2d, charged.bytes_d2h), predicted);
            // The MEI share of the charge is priced exactly; the
            // nomination's SAD evaluations come on top.
            assert!(charged.mflops >= algo.chunk_mflops(0, &state, first, n));
        }
    }

    #[test]
    fn chunk_costs_are_positive_and_monotone() {
        let s = scene();
        let p = AlgoParams::default();
        let atdca = AtdcaChunks::new(&s.cube, &p);
        let pct = PctChunks::new(&s.cube, &p);
        let morph = MorphChunks::new(&s.cube, &p);
        for round in 0..2 {
            assert!(pct.chunk_mflops(round, &PctState::Fresh, 0, 8) > 0.0);
            assert!(
                pct.chunk_mflops(round, &PctState::Fresh, 0, 16)
                    > pct.chunk_mflops(round, &PctState::Fresh, 0, 8)
            );
        }
        let none = Vec::new();
        assert!(atdca.chunk_mflops(1, &none, 0, 8) > atdca.chunk_mflops(0, &none, 0, 8) * 0.1);
        let reps = MorphState::Reps(vec![vec![1.0; s.cube.bands()]]);
        assert!(morph.chunk_mflops(0, &MorphState::Fresh, 0, 8) > 0.0);
        assert!(morph.chunk_mflops(1, &reps, 0, 8) > 0.0);
        assert_eq!(atdca.name(), "ATDCA");
        assert_eq!(morph.rounds(), 2);
    }

    /// What a detector chunk is charged is what a master predicts, bit
    /// for bit, and every rank pays the `follow_up` row once per delta.
    #[test]
    fn detector_charges_are_predicted_exactly() {
        let s = scene();
        let p = AlgoParams {
            num_targets: 4,
            ..Default::default()
        };
        let algo = UfclsChunks::new(&s.cube, &p);
        let (mut state, mut replica) = (algo.initial_state(), algo.replica());
        for round in 0..algo.rounds() {
            let mut partials = Vec::new();
            for (first, n) in [(0, 5), (5, 0), (5, 43)] {
                let (partial, cost) = algo.run_chunk(round, &replica, first, n);
                assert_eq!(cost.mflops, algo.chunk_mflops(round, &state, first, n));
                let bytes = algo.chunk_bytes(round, &state, first, n);
                assert_eq!((cost.bytes_h2d, cost.bytes_d2h), bytes);
                partials.push((first, partial));
            }
            let (next, delta, steps) = algo.reduce(round, state, partials);
            assert_eq!(steps.len(), 1, "one step: the re-score");
            let delta = delta.expect("every round broadcasts its winner");
            let installed = algo.install(round, &mut replica, Arc::new(delta));
            assert_eq!(installed, Fcls::follow_up(s.cube.bands(), round, 4));
            state = next;
        }
    }

    /// A winner as a round's delta.
    fn delta_of(spectrum: &[f32]) -> Arc<Spectra> {
        Arc::new(Spectra(vec![spectrum.to_vec()]))
    }

    /// A candidate's coordinates and score bits, and its charge's bits.
    fn chunk_bits(got: (Candidate, ChunkCost)) -> (u32, u32, u64, u64) {
        let (c, cost) = got;
        (c.line, c.sample, c.score.to_bits(), cost.mflops.to_bits())
    }

    /// The run's ranks share one system per round. A replica whose
    /// install history leaves the run's — another spectrum at round `k`,
    /// or a skipped round — gets a system of its own, which scores as a
    /// freshly built one, and the run's systems are left as they were.
    fn a_diverging_replica_builds_its_own_system<D: Detector>() {
        let s = scene();
        let p = AlgoParams {
            num_targets: 4,
            ..Default::default()
        };
        let (lines, k) = (s.cube.lines(), 2);
        let algo = DetectChunks::<D>::new(&s.cube, &p);
        let out = run_local(&algo, 16);
        assert_eq!(algo.systems_built(), algo.rounds());
        let chain = |algo: &DetectChunks<D>| -> Vec<(Vec<f32>, *const D)> {
            let chain = algo.systems.chain();
            chain
                .iter()
                .map(|(s, d)| (s.clone(), Arc::as_ptr(d)))
                .collect()
        };
        let before = chain(&algo);
        assert_eq!(before.len(), algo.rounds() + 1);

        // Following the run's history is free, and lands on its systems.
        let mut follower = algo.replica();
        for (round, target) in out[..k].iter().enumerate() {
            algo.install(round, &mut follower, delta_of(&target.spectrum));
        }
        assert_eq!(algo.systems_built(), algo.rounds());
        assert_eq!(Arc::as_ptr(&follower), before[k].1);

        let other = s.cube.pixel(lines / 2, 3).to_vec();
        assert_ne!(
            other, out[k].spectrum,
            "fixture: a spectrum the run did not take in"
        );
        let mut diverged = Arc::clone(&follower);
        algo.install(k, &mut diverged, delta_of(&other));
        assert_eq!(algo.systems_built(), algo.rounds() + 1);
        assert!(before.iter().all(|&(_, d)| d != Arc::as_ptr(&diverged)));
        // Its next install builds again: it is off the run's chain.
        let mut deeper = Arc::clone(&diverged);
        algo.install(k + 1, &mut deeper, delta_of(&out[k + 1].spectrum));
        assert_eq!(algo.systems_built(), algo.rounds() + 2);
        // A rank that skips round 0 builds its own as well.
        let mut skipped = algo.replica();
        algo.install(1, &mut skipped, delta_of(&out[1].spectrum));
        assert_eq!(algo.systems_built(), algo.rounds() + 3);
        assert_eq!(chain(&algo), before, "the run's systems are untouched");

        // Scores as a system built from nothing, scanned from nothing.
        let mut fresh = D::new(s.cube.bands());
        for target in &out[..k] {
            fresh = fresh.with_target(&target.spectrum);
        }
        fresh = fresh.with_target(&other);
        let alone = DetectChunks::<D>::new(&s.cube, &p);
        let want = chunk_bits(alone.run_chunk(k + 1, &Arc::new(fresh), 0, lines));
        assert_eq!(chunk_bits(algo.run_chunk(k + 1, &diverged, 0, lines)), want);
        // The follower still scores the run's round.
        let (winner, _) = algo.run_chunk(k, &follower, 0, lines);
        let coords = (winner.line as usize, winner.sample as usize);
        assert_eq!(coords, (out[k].line, out[k].sample));
    }

    #[test]
    fn a_diverging_replica_builds_its_own_atdca_system() {
        a_diverging_replica_builds_its_own_system::<Osp>();
    }

    #[test]
    fn a_diverging_replica_builds_its_own_ufcls_system() {
        a_diverging_replica_builds_its_own_system::<Fcls>();
    }

    #[test]
    fn chunk_bytes_are_positive_and_monotone_in_lines() {
        let s = scene();
        let p = AlgoParams::default();
        let atdca = AtdcaChunks::new(&s.cube, &p);
        let ufcls = UfclsChunks::new(&s.cube, &p);
        let pct = PctChunks::new(&s.cube, &p);
        let morph = MorphChunks::new(&s.cube, &p);
        for round in 0..3 {
            let (h8, d8) = pct.chunk_bytes(round, &PctState::Fresh, 0, 8);
            let (h16, _) = pct.chunk_bytes(round, &PctState::Fresh, 0, 16);
            assert!(h8 > 0 && d8 > 0, "pct round {round}");
            assert!(h16 > h8, "pct round {round} not monotone");
        }
        // Later argmax rounds ship more state (the growing target set).
        let none = Vec::new();
        assert!(atdca.chunk_bytes(3, &none, 0, 8).0 > atdca.chunk_bytes(0, &none, 0, 8).0);
        assert!(ufcls.chunk_bytes(3, &none, 0, 8).0 > ufcls.chunk_bytes(0, &none, 0, 8).0);
        // The MEI round stages the halo-padded block; labelling does not.
        let reps = MorphState::Reps(vec![vec![1.0; s.cube.bands()]; p.num_classes]);
        assert!(
            morph.chunk_bytes(0, &MorphState::Fresh, 8, 8).0 > morph.chunk_bytes(1, &reps, 8, 8).0
        );
    }

    /// Partials are sized as the wire carries them: a candidate's
    /// coordinates and score travel with its spectrum, and a label block
    /// carries its first line.
    #[test]
    fn partials_carry_their_wire_sizes() {
        let bands = 64;
        let c = Candidate {
            line: 0,
            sample: 0,
            score: 1.0,
            spectrum: vec![0.0; bands],
        };
        let cands = ClassPartial::Cands(vec![c.clone(), c]);
        assert_eq!(cands.size_bits(), 2 * candidate_bits(bands));
        assert_eq!(ClassPartial::Labels(vec![0; 100]).size_bits(), 32 + 1600);
    }

    /// The covariance round's wire contract: a shard is as big on the
    /// wire as the flat accumulator a device would stage out, and as the
    /// hint the collectives size by; its chunk is charged what the
    /// master predicts, to the bit, though no kernel ran.
    #[test]
    fn a_covariance_shard_is_sized_and_charged_as_the_sums_it_stands_for() {
        let p = AlgoParams::default();
        for bands in [1, 5, 224] {
            let (lines, samples) = (11, 3);
            let cube =
                HyperCube::from_vec(lines, samples, bands, vec![0.5; lines * samples * bands]);
            let algo = PctChunks::new(&cube, &p);
            for (first, n) in [(0, lines), (3, 5), (7, 0)] {
                let (shard, cost) = algo.run_chunk(1, &None, first, n);
                let ClassPartial::Shard {
                    first: f, lines: l, ..
                } = shard
                else {
                    panic!("round 1 returns a shard")
                };
                assert_eq!((f, l), (first, n));
                let (staged_in, staged_out) = algo.bytes(1, n);
                assert_eq!(shard.size_bits(), staged_out * 8, "{bands} bands");
                assert_eq!(shard.size_bits(), algo.partial_hint(1, n));
                assert_eq!((cost.bytes_h2d, cost.bytes_d2h), (staged_in, staged_out));
                let predicted = algo.chunk_mflops(1, &PctState::Fresh, first, n);
                assert_eq!(cost.mflops.to_bits(), predicted.to_bits());
                let (_, kernel) = kernels::covariance_partial(&cube, (first, first + n));
                assert_eq!(cost.mflops.to_bits(), kernel.to_bits());
            }
        }
    }
}
