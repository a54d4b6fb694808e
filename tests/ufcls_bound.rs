//! UFCLS prunes by an objective bound: because a run's endmember sets
//! are nested, the optimum of the augmented objective
//! `F(a) = ‖x − Uᵀa‖² + δ²(1 − Σa)²` over `a ≥ 0` cannot rise from one
//! set to a larger one, so a pixel's recorded solve bounds every score it
//! can reach later — `r ≤ r̂ + δ²(1 − Σâ)² + margin`
//! (`FclsProblem::objective_bounds`; the proof and the margin are in
//! docs/PERF.md). A scan that knows a higher score skips the pixel.
//!
//! * the bound — for every pixel, after every push of a growing set,
//!   through gaps of one to three skipped rounds, the fresh score is at
//!   most the bound of the pixel's previous solve: on near-twin
//!   endmembers (turned-down candidates, the LU fallback, failing
//!   solves), pixels equal to an endmember (residuals of `1e-29`), the
//!   zero pixel, 1…224 bands, and the benchmark scene at four seeds. Each
//!   test prints its worst slack ratio `(r − F(â)) / margin`, which must
//!   stay at most 1;
//! * the counting gate — on the benchmark scene at `t = 18`, `seq::ufcls`
//!   evaluates at most 27 % of its pixel-rounds, and `par` (16 WEA cells,
//!   256 one-line ranks) and both ft drivers, with and without crashes,
//!   fewer than they score (`Carry::pixel_rounds`). No stopwatch: a scan
//!   that stops pruning fails it on any host.
//!
//! That pruning moves no bit is `carried_rounds.rs`'s and `nnls_trail.rs`'s
//! to show (every driver against the stateless reference loop).

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::cube::HyperCube;
use heterospec::hetero::config::AlgoParams;
use heterospec::hetero::ft::{run_replan, run_self_sched, FtOptions, FtRun};
use heterospec::hetero::kernels::FclsCarry;
use heterospec::hetero::par::run_detector;
use heterospec::hetero::sched::UfclsChunks;
use heterospec::hetero::seq::{self, DetectedTarget};
use heterospec::hetero::RunOptions;
use heterospec::linalg::lstsq::{FclsProblem, FclsWorkspace, NnlsTrails};
use heterospec::linalg::Matrix;
use heterospec::simnet::engine::Engine;
use heterospec::simnet::{presets, FaultPlan};
use proptest::prelude::*;

const MAX_BANDS: usize = 224;
const MAX_ENDMEMBERS: usize = 12;

fn wide(px: &[f32]) -> Vec<f64> {
    px.iter().map(|&v| f64::from(v)).collect()
}

fn narrow(e: &[f64]) -> Vec<f32> {
    e.iter().map(|&v| v as f32).collect()
}

/// What a caller keeps of one pixel between rounds: a line one pixel
/// wide, so that nothing beside it can prune it.
#[derive(Default)]
struct Kept {
    depth: usize,
    dots: Vec<f64>,
    trails: NnlsTrails,
}

/// The bound checks made so far and the worst slack ratio among them.
#[derive(Default)]
struct Slack {
    checked: usize,
    worst: f64,
}

impl Slack {
    fn report(&self, what: &str) {
        println!(
            "{what}: {} bounds checked, worst slack ratio {:.3e}",
            self.checked, self.worst
        );
    }
}

/// Unmixes `px` against `problem` continuing from `kept`; when the pixel
/// has a record, its fresh score must be at most that record's bound.
fn unmix_and_check(
    problem: &FclsProblem,
    px: &[f32],
    kept: &mut Kept,
    ws: &mut FclsWorkspace,
    slack: &mut Slack,
) -> Result<(), String> {
    let t = problem.num_endmembers();
    let bound = problem
        .objective_bounds(&kept.trails)
        .first()
        .copied()
        .flatten();
    kept.dots.resize(t, 0.0);
    let mut got = None;
    let evaluated = problem
        .solve_f32_line(
            px,
            kept.depth,
            &mut kept.dots,
            &mut kept.trails,
            f64::NEG_INFINITY,
            ws,
            |_, r| got = Some(r),
        )
        .expect("buffers fit");
    prop_assert_eq!(evaluated, 1, "a floor of −∞ prunes nothing");
    let depth = std::mem::replace(&mut kept.depth, t);
    if let (Some((objective, margin)), Some(Ok(score))) = (bound, got) {
        slack.checked += 1;
        slack.worst = slack.worst.max((score - objective) / margin);
        prop_assert!(
            score <= objective + margin,
            "t = {}, from depth {}: {:e} > {:e} + {:e}",
            t,
            depth,
            score,
            objective,
            margin
        );
    }
    Ok(())
}

/// Grows `endmembers` one at a time and unmixes every pixel after each
/// push — pixel `p` only every `gap(p)`-th round and the last, so its
/// next call jumps that many endmembers — checking each bound.
fn grow_and_check(
    endmembers: &[Vec<f64>],
    pixels: &[Vec<f32>],
    gap: impl Fn(usize) -> usize,
    slack: &mut Slack,
) -> Result<(), String> {
    let mut problem = FclsProblem::new(Matrix::row_vector(&endmembers[0])).unwrap();
    let mut kept: Vec<Kept> = pixels.iter().map(|_| Kept::default()).collect();
    let mut ws = FclsWorkspace::new();
    for t in 1..=endmembers.len() {
        if t > 1 {
            problem.push(&endmembers[t - 1]).unwrap();
        }
        for (p, (px, kept)) in pixels.iter().zip(kept.iter_mut()).enumerate() {
            if (t - 1) % gap(p) == 0 || t == endmembers.len() {
                unmix_and_check(&problem, px, kept, &mut ws, slack)?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random sets over 1…224 bands with a twin `1e-8` off an earlier
    /// endmember; the pixels are the zero pixel, simplex vertices (the
    /// twin's and its original's among them), blends and random spectra.
    #[test]
    fn a_fresh_score_never_exceeds_the_bound_of_the_previous_solve(
        bands in 1usize..=MAX_BANDS,
        vals in proptest::collection::vec(0.0f32..1.0, (MAX_ENDMEMBERS + 3) * MAX_BANDS),
        twin_of in 0usize..3,
        twin_at in 3usize..MAX_ENDMEMBERS,
        gaps in proptest::collection::vec(1usize..=3, 10),
    ) {
        let mut spectra = vals.chunks(MAX_BANDS).map(|c| c[..bands].to_vec());
        let mut endmembers: Vec<Vec<f64>> =
            spectra.by_ref().take(MAX_ENDMEMBERS).map(|s| wide(&s)).collect();
        endmembers[twin_at] = endmembers[twin_of]
            .iter()
            .enumerate()
            .map(|(b, v)| v + 1e-8 * (b * 7 % 5) as f64)
            .collect();
        let blend = |i: usize, j: usize| -> Vec<f32> {
            let mix = endmembers[i].iter().zip(&endmembers[j]).map(|(a, b)| 0.5 * (a + b));
            mix.map(|v| v as f32).collect()
        };
        let mut pixels = vec![
            vec![0.0f32; bands],
            narrow(&endmembers[0]),
            narrow(&endmembers[5]),
            narrow(&endmembers[twin_of]),
            narrow(&endmembers[twin_at]),
            blend(0, 1),
            blend(twin_of, twin_at),
        ];
        pixels.extend(spectra);
        let mut slack = Slack::default();
        grow_and_check(&endmembers, &pixels, |p| gaps[p], &mut slack)?;
        prop_assert!(slack.checked > 0);
        slack.report(&format!("{bands} bands"));
    }
}

/// The near-twin sets of `lstsq`'s `fcls_converges_on_nearly_dependent_endmembers`
/// (rows `1e-3`…`1e-6` apart: turned-down candidates and the LU
/// fallback), grown one endmember at a time, on every midpoint of two
/// rows, every row itself and the zero pixel, through gaps of 1…3.
#[test]
fn the_bound_holds_on_nearly_dependent_endmembers() {
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) as f64) / (u32::MAX as f64 / 2.0)
    }
    let mut slack = Slack::default();
    for case in [12u64, 40, 45, 48, 60, 76, 97, 101] {
        let mut state = case * 7919 + 13;
        let n = 6 + (case % 5) as usize * 2;
        let t = 3 + (case % 7) as usize;
        let eps = [1e-3, 1e-4, 1e-5, 1e-6][(case % 4) as usize];
        let base: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..n).map(|_| 0.1 + lcg(&mut state)).collect())
            .collect();
        let rows: Vec<Vec<f64>> = (0..t)
            .map(|i| {
                base[i % 3]
                    .iter()
                    .map(|v| v + eps * (i / 3) as f64 * lcg(&mut state))
                    .collect()
            })
            .collect();
        let mut pixels = vec![vec![0.0f32; n]];
        for q in 0..t {
            for r in q..t {
                let mid = rows[q].iter().zip(&rows[r]).map(|(a, b)| 0.5 * (a + b));
                pixels.push(mid.map(|v| v as f32).collect());
            }
        }
        for gap in 1..=3 {
            grow_and_check(&rows, &pixels, |_| gap, &mut slack)
                .unwrap_or_else(|e| panic!("case {case}, gap {gap}: {e}"));
        }
    }
    slack.report("nearly dependent endmembers");
    assert!(slack.checked > 1000 && slack.worst <= 1.0);
}

/// The benchmark scene (256 × 16 × 224) at four seeds, grown through its
/// own `seq::ufcls` targets to `t = 17` endmembers: every pixel, pixel
/// `p` every `1 + p % 3` rounds.
#[test]
fn the_bound_holds_on_the_benchmark_scene() {
    let params = AlgoParams::default();
    let mut slack = Slack::default();
    for seed in [20010916, 7, 4242, 31337] {
        let scene = wtc_scene(WtcConfig {
            lines: 256,
            samples: 16,
            seed,
            ..Default::default()
        });
        let cube = &scene.cube;
        let targets = seq::ufcls(cube, &params).result;
        let endmembers: Vec<Vec<f64>> = targets[..targets.len() - 1]
            .iter()
            .map(|t| wide(&t.spectrum))
            .collect();
        let pixels: Vec<Vec<f32>> = (0..cube.num_pixels())
            .map(|i| cube.pixel_flat(i).to_vec())
            .collect();
        grow_and_check(&endmembers, &pixels, |p| 1 + p % 3, &mut slack)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    slack.report("benchmark scene, four seeds");
    assert!(slack.worst <= 1.0);
}

/// The benchmark scene at its seed.
fn benchmark_cube() -> HyperCube {
    let scene = wtc_scene(WtcConfig {
        lines: 256,
        samples: 16,
        seed: 20010916,
        ..Default::default()
    });
    scene.cube
}

/// `seq::ufcls` at the paper's `t = 18`, on one thread as the benchmark
/// runs it (a wider pool scans one block a worker, each with a floor of
/// its own), scores 17 rounds of 4 096 pixels and evaluates at most 27 %
/// of them (measured: see docs/PERF.md).
#[test]
fn seq_ufcls_evaluates_under_a_third_of_its_pixel_rounds() {
    let cube = benchmark_cube();
    let params = AlgoParams::default();
    assert_eq!(params.num_targets, 18);
    let carry = FclsCarry::for_run(cube.lines(), cube.samples(), params.num_targets);
    let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build();
    one_thread
        .expect("one-thread pool")
        .install(|| seq::ufcls_carried(&cube, &params, &carry));
    let (evaluated, scored) = carry.pixel_rounds();
    println!("seq: {evaluated} of {scored} pixel-rounds evaluated");
    assert_eq!(scored, 17 * cube.num_pixels());
    assert!(
        100 * evaluated <= 27 * scored,
        "{evaluated} of {scored} pixel-rounds evaluated"
    );
}

/// `par` over the 16 WEA cells of `fully_heterogeneous()` and over the
/// one-line ranks of `thunderhead(256)`, and both ft drivers with and
/// without two crashes, return `seq`'s targets and evaluate fewer
/// pixel-rounds than they score.
#[test]
fn every_driver_evaluates_fewer_pixel_rounds_than_it_scores() {
    let cube = benchmark_cube();
    let params = AlgoParams::default();
    let want = seq::ufcls(&cube, &params).result;
    let check = |what: &str, algo: &UfclsChunks, output: &[DetectedTarget]| {
        let (evaluated, scored) = algo.carry().pixel_rounds();
        println!("{what}: {evaluated} of {scored} pixel-rounds evaluated");
        assert_eq!(output, want, "{what}");
        assert!(
            0 < evaluated && evaluated < scored,
            "{what}: {evaluated} of {scored}"
        );
    };
    for (name, platform) in [
        ("par fully-heterogeneous", presets::fully_heterogeneous()),
        ("par thunderhead(256)", presets::thunderhead(256)),
    ] {
        let algo = UfclsChunks::new(&cube, &params);
        let run = run_detector(&Engine::new(platform), &algo, &RunOptions::hetero());
        assert!(run.report.ok(), "{name}");
        check(name, &algo, &run.result);
    }

    type Driver<'a> = fn(&Engine, &UfclsChunks<'a>, &FtOptions) -> FtRun<Vec<DetectedTarget>>;
    let drivers: [(&str, Driver); 2] = [("self-sched", run_self_sched), ("replan", run_replan)];
    let two_crashes = || {
        FaultPlan::new()
            .crash(2, 0.02)
            .crash(4, 0.04)
            .slowdown(5, 0.0, 0.5, 2.5)
            .link_outage(0, 7, 0.01, 0.05)
    };
    for (mode, driver) in drivers {
        for (plan, crashes) in [(FaultPlan::new(), 0), (two_crashes(), 2)] {
            let algo = UfclsChunks::new(&cube, &params);
            let run = driver(&testutil::engine_with(plan), &algo, &FtOptions::default());
            assert_eq!(run.recoveries.len(), crashes, "{mode}");
            check(&format!("ft {mode}, {crashes} crashes"), &algo, &run.output);
        }
    }
}
