//! One calling convention over the program's four algorithms and its
//! three ways of running them (`seq::*`, `par::*::run`, the `ft`
//! drivers), so workloads and probes are written once.
//!
//! Everything here calls the library's public functions and nothing
//! else; a run that panics or returns `Err` comes back as `Err(text)`.

use hetero_hsi::ft::{self, FtOptions, FtRun};
use hetero_hsi::sched::{AtdcaChunks, ChunkedAlgo, MorphChunks, PctChunks, UfclsChunks};
use hetero_hsi::seq::{DetectedTarget, PctModel, SeqOutput};
use hetero_hsi::{eval, par, seq, AlgoParams, OutputDigest, RunOptions};
use hsi_cube::synth::SyntheticScene;
use hsi_cube::{HyperCube, LabelImage};
use simnet::{Engine, RankFailure, RunReport};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The four analysis algorithms, in the paper's table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Target detection by orthogonal subspace projection (Algorithm 2).
    Atdca,
    /// Unsupervised fully constrained least squares (Algorithm 3).
    Ufcls,
    /// Principal-component classification (Algorithm 4).
    Pct,
    /// Morphological classification (Algorithm 5).
    Morph,
}

impl Algo {
    /// All four, in table order.
    pub const ALL: [Algo; 4] = [Algo::Atdca, Algo::Ufcls, Algo::Pct, Algo::Morph];

    /// Lower-case name used in metric and span names.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Atdca => "atdca",
            Algo::Ufcls => "ufcls",
            Algo::Pct => "pct",
            Algo::Morph => "morph",
        }
    }

    /// `true` for the target detectors (scored by detection rate),
    /// `false` for the classifiers (scored by debris accuracy).
    pub fn detects_targets(self) -> bool {
        matches!(self, Algo::Atdca | Algo::Ufcls)
    }
}

/// The two fault-tolerant drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtDriver {
    /// Static WEA partitions, re-planned on worker loss.
    Replan,
    /// Fixed-grid chunk self-scheduling with re-queueing.
    SelfSched,
}

impl FtDriver {
    /// Both drivers.
    pub const ALL: [FtDriver; 2] = [FtDriver::Replan, FtDriver::SelfSched];

    /// Name used in metric and span names.
    pub fn name(self) -> &'static str {
        match self {
            FtDriver::Replan => "replan",
            FtDriver::SelfSched => "selfsched",
        }
    }
}

/// An algorithm's analysis result.
#[derive(Debug, Clone)]
pub enum Output {
    /// ATDCA / UFCLS: the extracted targets.
    Targets(Vec<DetectedTarget>),
    /// PCT: label image plus the broadcast model.
    Pct((LabelImage, PctModel)),
    /// MORPH: label image plus endmember spectra.
    Morph((LabelImage, Vec<Vec<f32>>)),
}

impl Output {
    /// Bit-exact digest of the whole output.
    pub fn digest(&self) -> u64 {
        match self {
            Output::Targets(t) => t.digest64(),
            Output::Pct(p) => p.digest64(),
            Output::Morph(m) => m.digest64(),
        }
    }

    /// The label image of a classifier output.
    pub fn labels(&self) -> Option<&LabelImage> {
        match self {
            Output::Targets(_) => None,
            Output::Pct((labels, _)) | Output::Morph((labels, _)) => Some(labels),
        }
    }

    /// The paper's accuracy figure for this output against the scene's
    /// ground truth, as a fraction: Table 3's detection rate for target
    /// lists, Table 4's overall debris accuracy for label images.
    pub fn quality(&self, scene: &SyntheticScene, params: &AlgoParams) -> f64 {
        match self {
            Output::Targets(targets) => {
                eval::detection_rate(&eval::target_table(scene, targets), params.sad_threshold)
            }
            Output::Pct((labels, _)) | Output::Morph((labels, _)) => {
                eval::debris_accuracy(scene, labels, params.num_classes).overall / 100.0
            }
        }
    }

    /// Share of pixels labelled as `reference` labels them, after the
    /// majority cluster→class mapping (1.0 for target lists, which are
    /// compared by digest instead).
    pub fn agreement(&self, reference: &Output) -> f64 {
        match (self.labels(), reference.labels()) {
            (Some(mine), Some(theirs)) => eval::score_labels(mine, theirs).overall / 100.0,
            _ => 1.0,
        }
    }
}

/// What one algorithm run produced, whichever way it was run.
#[derive(Debug, Clone)]
pub struct Run {
    /// The analysis result.
    pub output: Output,
    /// Virtual seconds the modelled cluster would take.
    pub virtual_s: f64,
    /// The engine's report (`None` for sequential runs).
    pub report: Option<RunReport<()>>,
    /// Ranks the ft driver recovered from (empty elsewhere).
    pub recovered: Vec<usize>,
}

impl Run {
    /// Rank failures the engine reported.
    pub fn failures(&self) -> &[RankFailure] {
        self.report.as_ref().map_or(&[], |r| r.failures.as_slice())
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".into())
}

fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| Err(panic_text(payload)))
}

/// Runs the sequential reference of `algo`; virtual time is charged at
/// the paper's single-processor cycle-time.
pub fn run_seq(algo: Algo, cube: &HyperCube, params: &AlgoParams) -> Result<Run, String> {
    fn pack<T>(out: SeqOutput<T>, wrap: impl FnOnce(T) -> Output) -> Run {
        Run {
            virtual_s: out.virtual_secs(simnet::presets::HOMOGENEOUS_CYCLE_TIME),
            output: wrap(out.result),
            report: None,
            recovered: Vec::new(),
        }
    }
    guarded(|| {
        Ok(match algo {
            Algo::Atdca => pack(seq::atdca(cube, params), Output::Targets),
            Algo::Ufcls => pack(seq::ufcls(cube, params), Output::Targets),
            Algo::Pct => pack(seq::pct(cube, params), Output::Pct),
            Algo::Morph => pack(seq::morph(cube, params), Output::Morph),
        })
    })
}

/// Runs the static-partition parallel form of `algo` on `engine`.
pub fn run_par(
    algo: Algo,
    engine: &Engine,
    cube: &HyperCube,
    params: &AlgoParams,
    options: &RunOptions,
) -> Result<Run, String> {
    fn pack<T>(run: hetero_hsi::ParallelRun<T>, wrap: impl FnOnce(T) -> Output) -> Run {
        Run {
            virtual_s: run.report.total_time,
            output: wrap(run.result),
            report: Some(run.report),
            recovered: Vec::new(),
        }
    }
    guarded(|| {
        Ok(match algo {
            Algo::Atdca => pack(
                par::atdca::run(engine, cube, params, options),
                Output::Targets,
            ),
            Algo::Ufcls => pack(
                par::ufcls::run(engine, cube, params, options),
                Output::Targets,
            ),
            Algo::Pct => pack(par::pct::run(engine, cube, params, options), Output::Pct),
            Algo::Morph => pack(
                par::morph::run(engine, cube, params, options),
                Output::Morph,
            ),
        })
    })
}

/// Runs the chunked form of `algo` under a fault-tolerant driver on
/// `engine` (whose fault plan, if any, is the one to survive).
pub fn run_ft(
    algo: Algo,
    driver: FtDriver,
    engine: &Engine,
    cube: &HyperCube,
    params: &AlgoParams,
    options: &FtOptions,
) -> Result<Run, String> {
    fn drive<A>(
        chunks: &A,
        driver: FtDriver,
        engine: &Engine,
        options: &FtOptions,
        wrap: impl FnOnce(A::Output) -> Output,
    ) -> Result<Run, String>
    where
        A: ChunkedAlgo + Sync,
        A::Output: Send,
    {
        let run: FtRun<A::Output> = match driver {
            FtDriver::Replan => ft::try_run_replan(engine, chunks, options),
            FtDriver::SelfSched => ft::try_run_self_sched(engine, chunks, options),
        }
        .map_err(|e| e.to_string())?;
        Ok(Run {
            virtual_s: run.report.total_time,
            output: wrap(run.output),
            recovered: run.recoveries.iter().map(|r| r.rank).collect(),
            report: Some(run.report),
        })
    }
    guarded(|| match algo {
        Algo::Atdca => drive(
            &AtdcaChunks::new(cube, params),
            driver,
            engine,
            options,
            Output::Targets,
        ),
        Algo::Ufcls => drive(
            &UfclsChunks::new(cube, params),
            driver,
            engine,
            options,
            Output::Targets,
        ),
        Algo::Pct => drive(
            &PctChunks::new(cube, params),
            driver,
            engine,
            options,
            Output::Pct,
        ),
        Algo::Morph => drive(
            &MorphChunks::new(cube, params),
            driver,
            engine,
            options,
            Output::Morph,
        ),
    })
}
