//! The four workloads: what one *pass* of each runs, how its fixture is
//! set up, and how a pass is judged.
//!
//! All four use the paper's parameters (`AlgoParams::default()`:
//! t = 18, c = 7, I_max = 5) on a 224-band scene whose content is drawn
//! from `--seed`. Geometry is fixed per workload and sized so that one
//! pass takes one to two seconds on a 2-core host — short enough that a
//! run's timed phase holds ten or more passes and its median is steady.

use crate::algos::{run_ft, run_par, run_seq, Algo, FtDriver, Run};
use crate::faultplan::FaultShape;
use crate::procfs;
use crate::spans::Spans;
use crate::verify::{Expectation, Observation, Verifier};
use hetero_hsi::{AlgoParams, FtOptions, RunOptions};
use hsi_cube::synth::{wtc_scene, SyntheticScene, WtcConfig};
use simnet::{presets, Engine, Platform};
use std::time::Instant;

/// Floor on the share of pixels a parallel classifier labels as the
/// sequential run does (after the majority cluster→class mapping).
/// PCT and MORPH are partition-dependent by design — class
/// representatives are nominated per partition — so their label images
/// are compared by agreement, not digest. At the commit that added the
/// benchmark the lowest agreement seen over 30 seeds on `net16-static`
/// and `thunderhead-scale` (and every ft run of 40 more) was 0.49 (PCT);
/// the floor leaves room below that for an unlucky seed and still
/// catches a label image that is scrambled, constant or empty.
pub const AGREEMENT_FLOOR: f64 = 0.30;

/// Scene `(lines, samples)` of every workload; every scene has 224
/// bands. 256 lines give `thunderhead-scale` one image line per rank
/// and `ft-faults` 32 eight-line chunks for its 15 workers.
pub const SCENE_DIMS: (usize, usize) = (256, 16);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Tables 5–7 run: four algorithms on the 16-node fully
    /// heterogeneous network. Kernel-bound.
    Net16Static,
    /// The same scene through the sequential references on one thread.
    SeqBaseline,
    /// Table 8 / Fig. 2 at the top of the sweep: 256 ranks, one image
    /// line each. Engine-bound.
    ThunderheadScale,
    /// Both fault-tolerant drivers under crashes, a slowdown and a link
    /// outage: many small chunks and messages.
    FtFaults,
}

impl Workload {
    /// All four, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Net16Static,
        Workload::SeqBaseline,
        Workload::ThunderheadScale,
        Workload::FtFaults,
    ];

    /// The three that run on the engine.
    pub const ENGINE: [Workload; 3] = [
        Workload::Net16Static,
        Workload::ThunderheadScale,
        Workload::FtFaults,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Net16Static => "net16-static",
            Workload::SeqBaseline => "seq-baseline",
            Workload::ThunderheadScale => "thunderhead-scale",
            Workload::FtFaults => "ft-faults",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated platform (`None` for the sequential baseline).
    pub fn platform(self) -> Option<Platform> {
        match self {
            Workload::Net16Static => Some(presets::fully_heterogeneous()),
            Workload::SeqBaseline => None,
            Workload::ThunderheadScale => Some(presets::thunderhead(256)),
            // Not `partially_heterogeneous()`: that preset is a single
            // segment, on which the plan's inter-segment outage would be
            // a no-op. Same Table 1 processors, Table 2 network.
            Workload::FtFaults => Some(presets::fully_heterogeneous()),
        }
    }
}

/// The synthetic WTC scene of size `dims` for `seed`.
pub fn synth_scene(dims: (usize, usize), seed: u64) -> SyntheticScene {
    wtc_scene(WtcConfig {
        lines: dims.0,
        samples: dims.1,
        seed,
        ..Default::default()
    })
}

/// One algorithm run inside a pass.
#[derive(Debug)]
pub struct PassRun {
    /// Layer-qualified name: `hetero.par.atdca`, `hetero.ft.replan.pct`…
    pub label: String,
    /// The algorithm.
    pub algo: Algo,
    /// The ft driver, for `ft-faults` runs.
    pub driver: Option<FtDriver>,
    /// Host seconds inside the library call.
    pub wall_s: f64,
    /// The run, or why there is none.
    pub result: Result<Run, String>,
}

/// One pass: the workload's fixed list of algorithm runs, back to back.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds from the first call to the last return.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the same interval.
    pub cpu_s: f64,
    /// The runs, in execution order.
    pub runs: Vec<PassRun>,
}

/// What judging a pass yields besides the verifier's counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassScore {
    /// Sum of the runs' virtual seconds.
    pub virtual_s: f64,
    /// Mean detection rate over the ATDCA and UFCLS runs.
    pub detect_rate: f64,
}

/// One ft run of the pass: its engine carries its own fault plan.
#[derive(Debug)]
struct FtCell {
    driver: FtDriver,
    algo: Algo,
    engine: Engine,
    /// Fault-free virtual time the plan was scaled by.
    t0: f64,
    /// Digest of the fault-free output of the same driver.
    fault_free_digest: u64,
}

#[derive(Debug)]
enum Plan {
    Seq,
    Par(Engine),
    Ft {
        shape: FaultShape,
        cells: Vec<FtCell>,
    },
}

/// Everything a workload's passes need, built by [`Fixture::setup`].
#[derive(Debug)]
pub struct Fixture {
    /// The workload.
    pub workload: Workload,
    /// The generated scene with its ground truth.
    pub scene: SyntheticScene,
    /// The paper's parameters.
    pub params: AlgoParams,
    /// Sequential reference runs of this build, in [`Algo::ALL`] order.
    pub reference: Vec<Run>,
    plan: Plan,
}

/// Makes one algorithm run inside a span named `label`, timing the
/// library call.
fn run_labelled(
    spans: &Spans,
    label: String,
    algo: Algo,
    driver: Option<FtDriver>,
    call: impl FnOnce() -> Result<Run, String>,
) -> PassRun {
    let (result, wall_s) = spans.scope(&label, || {
        let start = Instant::now();
        let result = call();
        (result, start.elapsed().as_secs_f64())
    });
    PassRun {
        label,
        algo,
        driver,
        wall_s,
        result,
    }
}

/// Times `runs` as one pass: wall and process-CPU seconds around it.
fn measured(runs: impl FnOnce() -> Vec<PassRun>) -> Pass {
    let cpu_before = procfs::cpu_seconds();
    let start = Instant::now();
    let runs = runs();
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: procfs::cpu_seconds() - cpu_before,
        runs,
    }
}

/// One pass of the four sequential references on one kernel thread: no
/// engine, no rank threads, no collectives.
pub fn seq_pass(spans: &Spans, scene: &SyntheticScene, params: &AlgoParams) -> Pass {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim's pool builder cannot fail");
    measured(|| {
        pool.install(|| {
            Algo::ALL
                .into_iter()
                .map(|algo| {
                    let label = format!("hetero.seq.{}", algo.name());
                    run_labelled(spans, label, algo, None, || {
                        run_seq(algo, &scene.cube, params)
                    })
                })
                .collect()
        })
    })
}

/// One pass of the four static-partition parallel algorithms on `engine`.
pub fn par_pass(
    spans: &Spans,
    engine: &Engine,
    scene: &SyntheticScene,
    params: &AlgoParams,
    options: &RunOptions,
) -> Pass {
    measured(|| {
        Algo::ALL
            .into_iter()
            .map(|algo| {
                let label = format!("hetero.par.{}", algo.name());
                run_labelled(spans, label, algo, None, || {
                    run_par(algo, engine, &scene.cube, params, options)
                })
            })
            .collect()
    })
}

impl Fixture {
    /// Builds the fixture of `workload` for `seed`: scene synthesis,
    /// platform, sequential references, and for `ft-faults` the
    /// fault-free `T0` runs the fault plan is scaled by. Every algorithm
    /// run made on the way is judged by `verifier`.
    pub fn setup(
        workload: Workload,
        seed: u64,
        spans: &Spans,
        verifier: &mut Verifier,
    ) -> Result<Fixture, String> {
        let scene = spans.scope("hsi_cube.synth", || synth_scene(SCENE_DIMS, seed));
        let params = AlgoParams::default();
        let reference = spans.scope("verify", || {
            seq_pass(spans, &scene, &params)
                .runs
                .into_iter()
                .map(|run| {
                    verifier.judge(
                        &run.label,
                        run.result.as_ref().map(|_| ()).map_err(String::clone),
                    );
                    run.result
                })
                .collect::<Result<Vec<Run>, String>>()
        })?;
        let plan = match workload.platform() {
            None => Plan::Seq,
            Some(platform) if workload == Workload::FtFaults => {
                let shape = FaultShape::draw(seed, &platform);
                let cells = spans.scope("fault_free", || {
                    ft_cells(spans, &platform, &shape, &scene, &params, verifier)
                })?;
                Plan::Ft { shape, cells }
            }
            Some(platform) => Plan::Par(Engine::new(platform)),
        };
        Ok(Fixture {
            workload,
            scene,
            params,
            reference,
            plan,
        })
    }

    /// The sequential reference run of `algo`.
    pub fn reference_of(&self, algo: Algo) -> &Run {
        // `Algo`'s declaration order is `Algo::ALL`'s order.
        &self.reference[algo as usize]
    }

    /// Sum of the sequential references' virtual seconds.
    pub fn reference_virtual_s(&self) -> f64 {
        self.reference.iter().map(|r| r.virtual_s).sum()
    }

    /// Fault-free virtual seconds of the `(driver, algo)` ft run.
    pub fn ft_t0(&self, driver: FtDriver, algo: Algo) -> Option<f64> {
        match &self.plan {
            Plan::Ft { cells, .. } => cells
                .iter()
                .find(|c| c.driver == driver && c.algo == algo)
                .map(|c| c.t0),
            _ => None,
        }
    }

    /// Runs one pass. `profiling` switches the engine's own tracer on
    /// (`Engine::with_profiling`), which attaches a profile to every
    /// report; `ft_options` lets a probe vary the ft collectives.
    pub fn pass_with(&self, spans: &Spans, profiling: bool, ft_options: &FtOptions) -> Pass {
        match &self.plan {
            Plan::Seq => seq_pass(spans, &self.scene, &self.params),
            Plan::Par(engine) => par_pass(
                spans,
                &engine.clone().with_profiling(profiling),
                &self.scene,
                &self.params,
                &RunOptions::hetero(),
            ),
            Plan::Ft { cells, .. } => measured(|| {
                cells
                    .iter()
                    .map(|cell| {
                        let engine = cell.engine.clone().with_profiling(profiling);
                        let label =
                            format!("hetero.ft.{}.{}", cell.driver.name(), cell.algo.name());
                        run_labelled(spans, label, cell.algo, Some(cell.driver), || {
                            run_ft(
                                cell.algo,
                                cell.driver,
                                &engine,
                                &self.scene.cube,
                                &self.params,
                                ft_options,
                            )
                        })
                    })
                    .collect()
            }),
        }
    }

    /// Runs one pass as the timed phase does: tracer off, default ft
    /// options (8-line chunks, Linear state fan-out).
    pub fn pass(&self, spans: &Spans) -> Pass {
        self.pass_with(spans, false, &FtOptions::default())
    }

    fn expectation(&self, run: &PassRun) -> Expectation {
        // Target lists (and everything sequential) must match the
        // reference bit for bit; parallel label images are
        // partition-dependent and are held to the agreement floor.
        let exact = matches!(self.plan, Plan::Seq) || run.algo.detects_targets();
        let mut expect = if exact {
            Expectation {
                digest: Some(self.reference_of(run.algo).output.digest()),
                ..Default::default()
            }
        } else {
            Expectation {
                min_agreement: AGREEMENT_FLOOR,
                ..Default::default()
            }
        };
        if let Plan::Ft { shape, cells } = &self.plan {
            expect.scheduled_crashes = shape.crash_ranks.to_vec();
            expect.min_recoveries = shape.crash_ranks.len();
            if !exact && run.driver == Some(FtDriver::SelfSched) {
                // The fixed chunk grid makes self-scheduled label images
                // identical with and without the fault plan.
                expect.digest = cells
                    .iter()
                    .find(|c| Some(c.driver) == run.driver && c.algo == run.algo)
                    .map(|c| c.fault_free_digest);
            }
        }
        expect
    }

    /// Judges every run of `pass` and scores the pass.
    pub fn judge(&self, pass: &Pass, verifier: &mut Verifier) -> PassScore {
        let mut virtual_s = 0.0;
        let mut detect = Vec::new();
        for run in &pass.runs {
            // One process may judge passes of several workloads (the
            // traced run does): each keeps its own rerun history.
            let label = format!("{}/{}", self.workload.name(), run.label);
            let verdict = run.result.as_ref().map_err(String::clone).and_then(|done| {
                virtual_s += done.virtual_s;
                if run.algo.detects_targets() {
                    detect.push(done.output.quality(&self.scene, &self.params));
                }
                let seen = Observation {
                    digest: done.output.digest(),
                    virtual_s: done.virtual_s,
                    agreement: done.output.agreement(&self.reference_of(run.algo).output),
                    failures: done.failures(),
                    recovered: &done.recovered,
                };
                verifier.check(&label, &seen, &self.expectation(run))
            });
            verifier.judge(&label, verdict);
        }
        PassScore {
            virtual_s,
            detect_rate: detect.iter().sum::<f64>() / detect.len().max(1) as f64,
        }
    }
}

/// The fault-free run of every `(driver, algo)` pair: its virtual time
/// `T0` scales the pair's fault plan, its digest is what the faulted
/// self-scheduled run must reproduce.
fn ft_cells(
    spans: &Spans,
    platform: &Platform,
    shape: &FaultShape,
    scene: &SyntheticScene,
    params: &AlgoParams,
    verifier: &mut Verifier,
) -> Result<Vec<FtCell>, String> {
    let healthy = Engine::new(platform.clone());
    let options = FtOptions::default();
    let mut cells = Vec::new();
    for driver in FtDriver::ALL {
        for algo in Algo::ALL {
            let label = format!("hetero.ft.{}.{}.t0", driver.name(), algo.name());
            let result = spans.scope(&label, || {
                run_ft(algo, driver, &healthy, &scene.cube, params, &options)
            });
            let verdict = result.as_ref().map_err(String::clone).and_then(|run| {
                let seen = Observation {
                    digest: run.output.digest(),
                    virtual_s: run.virtual_s,
                    agreement: 1.0,
                    failures: run.failures(),
                    recovered: &run.recovered,
                };
                verifier.check(&label, &seen, &Expectation::default())
            });
            verifier.judge(&label, verdict);
            let run = result?;
            cells.push(FtCell {
                driver,
                algo,
                engine: Engine::new(platform.clone()).with_faults(shape.plan(run.virtual_s)),
                t0: run.virtual_s,
                fault_free_digest: run.output.digest(),
            });
        }
    }
    Ok(cells)
}
