//! Chunked work decomposition of the four algorithms, driven by the
//! master/worker schedulers of [`crate::ft`]:
//!
//! * a [`ChunkedAlgo`] describes an algorithm as a sequence of
//!   **rounds**; in every round the image lines are cut into chunks,
//!   each chunk yields a [`ChunkedAlgo::Partial`], and the master
//!   reduces the round's partials into the next
//!   [`ChunkedAlgo::State`];
//! * the four algorithms — [`AtdcaChunks`], [`UfclsChunks`],
//!   [`PctChunks`], [`MorphChunks`] — reuse the exact worker kernels of
//!   [`crate::kernels`], so any chunk grid reproduces the partitioned
//!   algorithms' analysis results. The two detectors are one
//!   implementation, [`DetectChunks`], over the detector descriptions of
//!   `crate::detect` (system, host operations, cost table): a new
//!   detector is an impl there and an alias here.
//!
//! **Who owns a detector's memos.** A worker's round scratch is the
//! detector *system* alone (the basis or Gram problem the modelled node
//! would hold), grown from round to round and lost with the worker. The
//! *carry* — each image line's running sums — belongs to the lines, and
//! which worker scores a line next is the scheduler's business: so
//! [`DetectChunks`] holds **one carry per run**, every worker reaches it
//! through the `&algo` it already borrows, and a chunk resumes at the
//! depth its last scorer left whoever that was, re-plans after crashes
//! included. Host wall-clock only: every charge is analytic.
//!
//! **Determinism.** The argmax algorithms (ATDCA, UFCLS) produce the
//! *same* output for every chunk grid: chunk winners are folded with the
//! row-major tie-break of [`crate::par`]'s `best_candidate`, so the
//! global winner equals a sequential scan's. (The same total order is
//! what lets the partitioned algorithms fold winners pairwise inside a
//! tree `simnet::coll::allreduce` — any grouping of the fold agrees
//! with the flat scan, so chunked drivers, linear gathers, and fused
//! tree reductions all select identical targets.) PCT and MORPH outputs
//! depend on the grid (per-chunk candidate pools differ, exactly as the
//! paper's per-partition unique sets do), which is why the fault-tolerant
//! self-scheduler uses a *fixed* grid: results are then identical no
//! matter which worker computes which chunk — or which workers crash.

use crate::config::AlgoParams;
use crate::detect::{round_bytes, Detector, Fcls, Osp};
use crate::flops;
use crate::kernels;
use crate::msg::{candidate_bits, Candidate};
use crate::par::{best_candidate, empty_candidate};
use crate::seq::{pct_model_len, reduce_candidates, scored_spectra, DetectedTarget, PctModel};
use hsi_cube::{HyperCube, LabelImage};
use hsi_linalg::covariance::CovarianceAccumulator;
use hsi_morpho::StructuringElement;

/// An algorithm decomposed into rounds of independent line chunks.
///
/// A driver executes `rounds()` rounds. Each round it ships the current
/// state to the workers, has chunks of lines computed via
/// [`ChunkedAlgo::run_chunk`], and reduces the partials — sorted by
/// first line — into the next state with [`ChunkedAlgo::reduce`]. After
/// the last round, [`ChunkedAlgo::finish`] extracts the output.
///
/// Chunks carry **global** line coordinates over the full cube; every
/// rank is assumed to reach the image data (the coordinator-only
/// master/worker model of [`crate::ft`] — data staging costs are the
/// drivers' concern, not the trait's).
pub trait ChunkedAlgo {
    /// Master-held state broadcast to workers at each round start
    /// (`Sync` because workers hold it behind an `Arc` wire body).
    type State: Clone + Send + Sync + 'static;
    /// Per-chunk result returned to the master.
    type Partial: Send + 'static;
    /// The final analysis result.
    type Output;
    /// Worker-resident scratch brought up to date once per
    /// `(round, state)` by [`ChunkedAlgo::prepare`] and reused across
    /// every chunk of the round, so per-chunk work stops rebuilding
    /// round-invariant structures (ATDCA's orthogonal basis, UFCLS's Gram
    /// system) — and, handed on from round to round, lets the argmax
    /// algorithms continue each pixel's running sums instead of
    /// re-deriving them. Purely a host concern: the charged cost model
    /// ([`ChunkedAlgo::chunk_mflops`]) is unchanged.
    type Scratch;

    /// Short algorithm name (reports and benches).
    fn name(&self) -> &'static str;
    /// Total image lines to cover each round.
    fn lines(&self) -> usize;
    /// Number of rounds.
    fn rounds(&self) -> usize;
    /// The state before round 0.
    fn initial_state(&self) -> Self::State;
    /// Analytic compute cost (megaflops) of an `n`-line chunk in
    /// `round` — the cost a worker charges and a master uses for
    /// completion estimates. A pure function of `(round, n)` so every
    /// scheduler prices identical work identically.
    fn chunk_mflops(&self, round: usize, n: usize) -> f64;
    /// Bytes an accelerator would stage `(host → device, device → host)`
    /// to run an `n`-line chunk of `round`: the chunk's pixel block plus
    /// the round state in, the partial result out. Like
    /// [`ChunkedAlgo::chunk_mflops`] this is **analytic** — a pure
    /// function of `(round, n)`, never of the data — so offload
    /// decisions and deadline predictions ([`crate::offload`]) are
    /// identical on every rank and every rerun.
    fn chunk_bytes(&self, round: usize, n: usize) -> (u64, u64);
    /// Wire size (bits) of a state broadcast.
    fn state_bits(&self, state: &Self::State) -> u64;
    /// Wire size (bits) of a partial result.
    fn partial_bits(&self, partial: &Self::Partial) -> u64;
    /// Builds the scratch shared by every `run_chunk` call of `round`.
    /// `previous` is the scratch this worker prepared for an earlier
    /// round of the same run, if it has one: an implementation may grow
    /// it to `state` instead of starting over, and must return what a
    /// fresh build would compute with.
    fn prepare(
        &self,
        round: usize,
        state: &Self::State,
        previous: Option<Self::Scratch>,
    ) -> Self::Scratch;
    /// Computes the partial for global lines `[first, first + n)`.
    fn run_chunk(
        &self,
        round: usize,
        state: &Self::State,
        scratch: &mut Self::Scratch,
        first: usize,
        n: usize,
    ) -> Self::Partial;
    /// Merges a round's partials (sorted by first line) into the next
    /// state; returns it with the master's merge cost in megaflops.
    fn reduce(
        &self,
        round: usize,
        state: Self::State,
        partials: Vec<(usize, Self::Partial)>,
    ) -> (Self::State, f64);
    /// Extracts the output from the final state.
    fn finish(&self, state: Self::State) -> Self::Output;
}

fn spectra_bits(spectra: &[Vec<f32>]) -> u64 {
    spectra.iter().map(|s| (s.len() * 32) as u64).sum()
}

// ---------------------------------------------------------------------
// ATDCA, UFCLS
// ---------------------------------------------------------------------

/// Either target detector as a chunked algorithm — name it through
/// [`AtdcaChunks`] or [`UfclsChunks`]. `D` is the detector's description
/// (`crate::detect`): its score, its cost table, the system a worker
/// keeps as round scratch and grows from round to round, and the carry
/// of the image lines, which the algorithm holds for all its workers.
pub struct DetectChunks<'a, D: Detector> {
    cube: &'a HyperCube,
    params: &'a AlgoParams,
    carry: D::Carry,
}

/// ATDCA (paper Algorithm 2) as a chunked algorithm: one round per
/// target; each chunk nominates its brightest (round 0) or
/// maximum-projection pixel, the reduce selects the global winner with
/// the sequential tie-break. Output is identical for **any** chunk
/// grid.
pub type AtdcaChunks<'a> = DetectChunks<'a, Osp>;

/// UFCLS (paper Algorithm 3) as a chunked algorithm: rounds grow the
/// endmember set by the pixel with the largest fully-constrained
/// least-squares error. Output is identical for any chunk grid.
pub type UfclsChunks<'a> = DetectChunks<'a, Fcls>;

impl<'a, D: Detector> DetectChunks<'a, D> {
    /// Wraps a cube and parameters; the carry starts empty.
    pub fn new(cube: &'a HyperCube, params: &'a AlgoParams) -> Self {
        DetectChunks {
            cube,
            params,
            carry: D::Carry::default(),
        }
    }

    /// The run's carry (its host-work tallies are what the counting
    /// tests read).
    #[doc(hidden)]
    pub fn carry(&self) -> &D::Carry {
        &self.carry
    }
}

impl<D: Detector> ChunkedAlgo for DetectChunks<'_, D> {
    type State = Vec<DetectedTarget>;
    type Partial = Candidate;
    type Output = Vec<DetectedTarget>;
    /// The detector system over the first `admitted()` targets of the
    /// state — the system alone: the lines' sums are the run's.
    type Scratch = D;

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

    fn chunk_mflops(&self, round: usize, n: usize) -> f64 {
        let bands = self.cube.bands();
        let pixels = (n * self.cube.samples()) as f64;
        let per_pixel = if round == 0 {
            flops::brightness(bands)
        } else {
            D::score(bands, round)
        };
        // Every chunk pays for rebuilding the detector from the broadcast
        // targets: the chunked equivalent of `par`'s per-round follow-up.
        flops::mflop(per_pixel * pixels + D::rebuild(bands, round))
    }

    fn chunk_bytes(&self, round: usize, n: usize) -> (u64, u64) {
        round_bytes(n * self.cube.samples(), self.cube.bands(), round)
    }

    fn state_bits(&self, state: &Self::State) -> u64 {
        state.iter().map(|t| (t.spectrum.len() * 32) as u64).sum()
    }

    fn partial_bits(&self, partial: &Self::Partial) -> u64 {
        candidate_bits(partial.spectrum.len())
    }

    fn prepare(&self, _round: usize, state: &Self::State, previous: Option<D>) -> D {
        let mut detector = previous.unwrap_or_else(|| D::new(self.cube.bands()));
        for target in &state[detector.admitted()..] {
            detector.admit(&target.spectrum);
        }
        detector
    }

    fn run_chunk(
        &self,
        round: usize,
        _state: &Self::State,
        detector: &mut D,
        first: usize,
        n: usize,
    ) -> Candidate {
        let range = (first, first + n);
        let (cand, _) = if round == 0 {
            kernels::brightest(self.cube, range)
        } else {
            detector.nominate(self.cube, range, &self.carry)
        };
        match cand {
            Some(p) => p.to_candidate(self.cube, 0, 0),
            None => empty_candidate(self.cube.bands()),
        }
    }

    fn reduce(
        &self,
        round: usize,
        mut state: Self::State,
        partials: Vec<(usize, Candidate)>,
    ) -> (Self::State, f64) {
        let count = partials.len();
        let best = best_candidate(partials.into_iter().map(|(_, c)| c).collect());
        state.push(DetectedTarget {
            line: best.line as usize,
            sample: best.sample as usize,
            spectrum: best.spectrum,
        });
        let mflops = flops::mflop(D::rescore(self.cube.bands(), round) * count as f64);
        (state, mflops)
    }

    fn finish(&self, state: Self::State) -> Self::Output {
        state
    }
}

// ---------------------------------------------------------------------
// PCT
// ---------------------------------------------------------------------

/// PCT round-by-round state (see [`PctChunks`]).
#[derive(Debug, Clone)]
pub enum PctState {
    /// Before round 0.
    Fresh,
    /// After round 0: the merged class representatives. Master-held —
    /// the covariance round does not need them, so the broadcast is
    /// sized zero.
    Reps(Vec<Vec<f32>>),
    /// After round 1: the PCT model (what the real algorithm
    /// broadcasts before the labelling step).
    Model(PctModel),
    /// After round 2: the assembled labels plus the model.
    Done {
        /// Row-major labels of the full image.
        labels: Vec<u16>,
        /// The model they were labelled with.
        model: PctModel,
    },
}

/// Per-chunk PCT partials (one variant per round).
#[derive(Debug, Clone)]
pub enum PctPartial {
    /// Round 0: scored unique-set spectra.
    Cands(Vec<(Vec<f32>, f64)>),
    /// Round 1: a flattened covariance accumulator shard.
    Stats(Vec<f64>),
    /// Round 2: labels of the chunk's lines.
    Labels(Vec<u16>),
}

/// PCT (paper Algorithm 4) as a chunked algorithm, three rounds:
/// unique-set construction, covariance accumulation, and labelling with
/// the eigendecomposition at the reduce between rounds 1 and 2. As with
/// the partitioned algorithm, the candidate pool — hence the exact
/// labelling — depends on the chunk grid; a fixed grid gives identical
/// output regardless of worker assignment.
pub struct PctChunks<'a> {
    cube: &'a HyperCube,
    params: &'a AlgoParams,
}

impl<'a> PctChunks<'a> {
    /// Wraps a cube and parameters.
    pub fn new(cube: &'a HyperCube, params: &'a AlgoParams) -> Self {
        PctChunks { cube, params }
    }
}

impl ChunkedAlgo for PctChunks<'_> {
    type State = PctState;
    type Partial = PctPartial;
    type Output = (LabelImage, PctModel);
    /// The labelling round reads the model off the state as it is.
    type Scratch = ();

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

    fn chunk_mflops(&self, round: usize, n: usize) -> f64 {
        let bands = self.cube.bands();
        let c = self.params.num_classes;
        let pixels = n * self.cube.samples();
        match round {
            0 => flops::mflop(flops::unique_set(bands, pixels, 4 * c)),
            1 => flops::mflop(flops::covariance_accumulate(bands) * pixels as f64),
            _ => flops::mflop(
                (flops::pct_transform(bands, c) + flops::pct_classify(c, c)) * pixels as f64,
            ),
        }
    }

    fn chunk_bytes(&self, round: usize, n: usize) -> (u64, u64) {
        let bands = self.cube.bands() as u64;
        let c = self.params.num_classes as u64;
        let pixels = (n * self.cube.samples()) as u64;
        let chunk = pixels * bands * 4;
        match round {
            // Unique-set: chunk in, up to 4c scored spectra out.
            0 => (chunk, 4 * c * (bands * 4 + 8)),
            // Covariance: chunk in, one flat accumulator shard out.
            1 => (chunk, (bands * (bands + 3) / 2 + 1) * 8),
            // Labelling: chunk + f64 model (transform, mean, transformed
            // class reps) in, u16 labels out.
            _ => (
                chunk + pct_model_len(self.cube.bands(), self.params.num_classes) as u64 * 8,
                pixels * 2,
            ),
        }
    }

    fn state_bits(&self, state: &Self::State) -> u64 {
        match state {
            // Reps stay at the master; workers need nothing until the
            // model broadcast.
            PctState::Fresh | PctState::Reps(_) => 0,
            PctState::Model(model) | PctState::Done { model, .. } => model.wire_bits(),
        }
    }

    fn partial_bits(&self, partial: &Self::Partial) -> u64 {
        match partial {
            PctPartial::Cands(cs) => cs.iter().map(|(s, _)| 64 + (s.len() * 32) as u64).sum(),
            PctPartial::Stats(v) => (v.len() * 64) as u64,
            PctPartial::Labels(l) => (l.len() * 16) as u64,
        }
    }

    fn prepare(&self, _round: usize, _state: &Self::State, _previous: Option<()>) {}

    fn run_chunk(
        &self,
        round: usize,
        state: &Self::State,
        _scratch: &mut (),
        first: usize,
        n: usize,
    ) -> PctPartial {
        let range = (first, first + n);
        match round {
            0 => {
                let c = self.params.num_classes;
                let (set, _) =
                    kernels::unique_set(self.cube, range, self.params.sad_threshold, 4 * c);
                PctPartial::Cands(scored_spectra(self.cube, &set))
            }
            1 => {
                let (acc, _) = kernels::covariance_partial(self.cube, range);
                PctPartial::Stats(acc.into_flat())
            }
            _ => {
                let PctState::Model(m) = state else {
                    panic!("pct: labelling round without a model")
                };
                let (labels, _) =
                    kernels::pct_label(self.cube, range, &m.transform, &m.mean, &m.class_reps);
                PctPartial::Labels(labels)
            }
        }
    }

    fn reduce(
        &self,
        round: usize,
        state: Self::State,
        partials: Vec<(usize, PctPartial)>,
    ) -> (Self::State, f64) {
        let n = self.cube.bands();
        let c = self.params.num_classes;
        match round {
            0 => {
                let mut scored: Vec<(Vec<f32>, f64)> = Vec::new();
                for (_, p) in partials {
                    let PctPartial::Cands(cs) = p else {
                        panic!("pct: wrong partial in round 0")
                    };
                    scored.extend(cs);
                }
                let (reps, mflops) = reduce_candidates(&scored, self.params.sad_threshold, c);
                (PctState::Reps(reps), mflops)
            }
            1 => {
                let PctState::Reps(reps) = state else {
                    panic!("pct: covariance round without reps")
                };
                let shards = partials.len();
                let mut total = CovarianceAccumulator::new(n);
                for (_, p) in partials {
                    let PctPartial::Stats(flat) = p else {
                        panic!("pct: wrong partial in round 1")
                    };
                    total.merge_flat(&flat).expect("pct: flat shape");
                }
                let model = PctModel::fit(&total, &reps, c);
                let mflops = flops::mflop(
                    (shards * n * (n + 3) / 2) as f64
                        + flops::jacobi_eigen(n)
                        + reps.len() as f64 * flops::pct_transform(n, model.transform.rows()),
                );
                (PctState::Model(model), mflops)
            }
            _ => {
                let PctState::Model(model) = state else {
                    panic!("pct: labelling round without a model")
                };
                let samples = self.cube.samples();
                let mut labels = vec![0u16; self.cube.lines() * samples];
                for (first, p) in partials {
                    let PctPartial::Labels(l) = p else {
                        panic!("pct: wrong partial in round 2")
                    };
                    labels[first * samples..first * samples + l.len()].copy_from_slice(&l);
                }
                (PctState::Done { labels, model }, 0.0)
            }
        }
    }

    fn finish(&self, state: Self::State) -> Self::Output {
        let PctState::Done { labels, model } = state else {
            panic!("pct: finish before the labelling round")
        };
        let image = LabelImage::from_vec(self.cube.lines(), self.cube.samples(), labels);
        (image, model)
    }
}

// ---------------------------------------------------------------------
// MORPH
// ---------------------------------------------------------------------

/// MORPH round-by-round state (see [`MorphChunks`]).
#[derive(Debug, Clone)]
pub enum MorphState {
    /// Before round 0.
    Fresh,
    /// After round 0: merged class representatives (broadcast before
    /// labelling).
    Reps(Vec<Vec<f32>>),
    /// After round 1: labels plus the representatives.
    Done {
        /// Row-major labels of the full image.
        labels: Vec<u16>,
        /// The class representatives.
        reps: Vec<Vec<f32>>,
    },
}

/// Per-chunk MORPH partials.
#[derive(Debug, Clone)]
pub enum MorphPartial {
    /// Round 0: scored MEI candidates.
    Cands(Vec<(Vec<f32>, f64)>),
    /// Round 1: labels of the chunk's lines.
    Labels(Vec<u16>),
}

/// MORPH (paper Algorithm 5) as a chunked algorithm, two rounds: MEI
/// candidate nomination (each chunk is a window on the image with its
/// halo, the paper's overlap border — an image of its own with its own
/// edges, no sample copied) and SAD labelling against the merged class
/// representatives.
pub struct MorphChunks<'a> {
    cube: &'a HyperCube,
    params: &'a AlgoParams,
    se: StructuringElement,
    halo: usize,
}

impl<'a> MorphChunks<'a> {
    /// Wraps a cube and parameters (halo = structuring-element radius).
    pub fn new(cube: &'a HyperCube, params: &'a AlgoParams) -> Self {
        MorphChunks {
            cube,
            params,
            se: StructuringElement::square(params.se_radius),
            halo: params.se_radius,
        }
    }

    /// Runs MEI on chunk `[first, first + n)` (halo included in the
    /// computation) and returns scored candidate spectra.
    fn candidates(&self, first: usize, n: usize) -> Vec<(Vec<f32>, f64)> {
        let (block, pre) = self.cube.extract_lines_with_overlap(first, n, self.halo);
        let (top, _) = kernels::mei_top(
            &block,
            &self.se,
            self.params.morph_iterations,
            (pre, pre + n),
            self.params.num_classes,
            self.params.sad_threshold,
        );
        scored_spectra(&block, &top)
    }

    /// SAD-labels chunk `[first, first + n)` against `reps`.
    fn label_chunk(&self, first: usize, n: usize, reps: &[Vec<f32>]) -> Vec<u16> {
        let block = self.cube.extract_lines(first, n);
        let (labels, _) = kernels::sad_label(&block, (0, n), reps);
        labels
    }
}

impl ChunkedAlgo for MorphChunks<'_> {
    type State = MorphState;
    type Partial = MorphPartial;
    type Output = (LabelImage, Vec<Vec<f32>>);
    /// Chunk extraction is inherent to MORPH's overlap decomposition;
    /// no round-constant structure exists to cache.
    type Scratch = ();

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

    fn chunk_mflops(&self, round: usize, n: usize) -> f64 {
        let bands = self.cube.bands();
        let samples = self.cube.samples();
        let se_len = self.se.len();
        match round {
            0 => flops::mflop(
                flops::mei_iteration((n + 2 * self.halo) * samples, bands, se_len)
                    * self.params.morph_iterations as f64,
            ),
            _ => flops::mflop(
                flops::sad_classify(bands, self.params.num_classes) * (n * samples) as f64,
            ),
        }
    }

    fn chunk_bytes(&self, round: usize, n: usize) -> (u64, u64) {
        let bands = self.cube.bands() as u64;
        let samples = self.cube.samples() as u64;
        let c = self.params.num_classes as u64;
        match round {
            // MEI: the halo-padded chunk in, up to c scored spectra out.
            0 => (
                (n as u64 + 2 * self.halo as u64) * samples * bands * 4,
                c * (bands * 4 + 8),
            ),
            // Labelling: chunk + class representatives in, labels out.
            _ => (
                n as u64 * samples * bands * 4 + c * bands * 4,
                n as u64 * samples * 2,
            ),
        }
    }

    fn state_bits(&self, state: &Self::State) -> u64 {
        match state {
            MorphState::Fresh => 0,
            MorphState::Reps(reps) | MorphState::Done { reps, .. } => spectra_bits(reps),
        }
    }

    fn partial_bits(&self, partial: &Self::Partial) -> u64 {
        match partial {
            MorphPartial::Cands(cs) => cs.iter().map(|(s, _)| 64 + (s.len() * 32) as u64).sum(),
            MorphPartial::Labels(l) => (l.len() * 16) as u64,
        }
    }

    fn prepare(&self, _round: usize, _state: &Self::State, _previous: Option<()>) {}

    fn run_chunk(
        &self,
        round: usize,
        state: &Self::State,
        _scratch: &mut (),
        first: usize,
        n: usize,
    ) -> MorphPartial {
        match round {
            0 => MorphPartial::Cands(self.candidates(first, n)),
            _ => {
                let MorphState::Reps(reps) = state else {
                    panic!("morph: labelling round without reps")
                };
                MorphPartial::Labels(self.label_chunk(first, n, reps))
            }
        }
    }

    fn reduce(
        &self,
        round: usize,
        state: Self::State,
        partials: Vec<(usize, MorphPartial)>,
    ) -> (Self::State, f64) {
        match round {
            0 => {
                let mut scored: Vec<(Vec<f32>, f64)> = Vec::new();
                for (_, p) in partials {
                    let MorphPartial::Cands(cs) = p else {
                        panic!("morph: wrong partial in round 0")
                    };
                    scored.extend(cs);
                }
                let (reps, mflops) =
                    reduce_candidates(&scored, self.params.sad_threshold, self.params.num_classes);
                (MorphState::Reps(reps), mflops)
            }
            _ => {
                let MorphState::Reps(reps) = state else {
                    panic!("morph: labelling round without reps")
                };
                let samples = self.cube.samples();
                let mut labels = vec![0u16; self.cube.lines() * samples];
                for (first, p) in partials {
                    let MorphPartial::Labels(l) = p else {
                        panic!("morph: wrong partial in round 1")
                    };
                    labels[first * samples..first * samples + l.len()].copy_from_slice(&l);
                }
                (MorphState::Done { labels, reps }, 0.0)
            }
        }
    }

    fn finish(&self, state: Self::State) -> Self::Output {
        let MorphState::Done { labels, reps } = state else {
            panic!("morph: finish before the labelling round")
        };
        (
            LabelImage::from_vec(self.cube.lines(), self.cube.samples(), labels),
            reps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi_cube::synth::{wtc_scene, WtcConfig};

    /// Executes a chunked algorithm locally (no simulator) on a fixed
    /// chunk grid — the reference driver the fault-tolerant schedulers
    /// must agree with.
    fn run_local<A: ChunkedAlgo>(algo: &A, chunk: usize) -> A::Output {
        let mut state = algo.initial_state();
        let mut previous = None;
        for round in 0..algo.rounds() {
            let mut scratch = algo.prepare(round, &state, previous.take());
            let mut partials = Vec::new();
            let mut first = 0;
            while first < algo.lines() {
                let n = chunk.min(algo.lines() - first);
                partials.push((first, algo.run_chunk(round, &state, &mut scratch, first, n)));
                first += n;
            }
            let (next, _) = algo.reduce(round, state, partials);
            state = next;
            previous = Some(scratch);
        }
        algo.finish(state)
    }

    fn scene() -> hsi_cube::synth::SyntheticScene {
        wtc_scene(WtcConfig::tiny())
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
    /// `c`-row one (`par::pct` always did).
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
        let mut state = algo.initial_state();
        for round in 0..2 {
            let partial = algo.run_chunk(round, &state, &mut (), 0, lines);
            state = algo.reduce(round, state, vec![(0, partial)]).0;
        }
        let PctState::Model(model) = &state else {
            panic!("two rounds build the model")
        };
        assert_eq!((model.transform.rows(), model.class_reps.len()), (4, 7));
        let chunk_bytes = (lines * samples * bands * 4) as u64;
        let model_bytes = algo.state_bits(&state) / 8;
        assert_eq!(algo.chunk_bytes(2, lines).0, chunk_bytes + model_bytes);
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

    #[test]
    fn chunk_costs_are_positive_and_monotone() {
        let s = scene();
        let p = AlgoParams::default();
        let atdca = AtdcaChunks::new(&s.cube, &p);
        let pct = PctChunks::new(&s.cube, &p);
        let morph = MorphChunks::new(&s.cube, &p);
        for round in 0..3 {
            assert!(pct.chunk_mflops(round, 8) > 0.0);
            assert!(pct.chunk_mflops(round, 16) > pct.chunk_mflops(round, 8));
        }
        assert!(atdca.chunk_mflops(1, 8) > atdca.chunk_mflops(0, 8) * 0.1);
        assert!(morph.chunk_mflops(0, 8) > 0.0 && morph.chunk_mflops(1, 8) > 0.0);
        assert_eq!(atdca.name(), "ATDCA");
        assert_eq!(morph.rounds(), 2);
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
            let (h8, d8) = pct.chunk_bytes(round, 8);
            let (h16, _) = pct.chunk_bytes(round, 16);
            assert!(h8 > 0 && d8 > 0, "pct round {round}");
            assert!(h16 > h8, "pct round {round} not monotone");
        }
        // Later argmax rounds ship more state (the growing target set).
        assert!(atdca.chunk_bytes(3, 8).0 > atdca.chunk_bytes(0, 8).0);
        assert!(ufcls.chunk_bytes(3, 8).0 > ufcls.chunk_bytes(0, 8).0);
        // The MEI round stages the halo-padded block; labelling does not.
        assert!(morph.chunk_bytes(0, 8).0 > morph.chunk_bytes(1, 8).0);
        // Pure in (round, n): two queries agree exactly.
        assert_eq!(morph.chunk_bytes(1, 13), morph.chunk_bytes(1, 13));
    }
}
