//! Carried rounds: ATDCA and UFCLS keep each pixel's running sums from
//! round to round (`kernels::{ProjectionCarry, FclsCarry}`) and apply
//! only the vectors a line has not seen. The contract is **bit
//! identity** with the stateless kernels, which re-derive every sum
//! from zero:
//!
//! * kernel level — carried coordinates and score bits equal the
//!   from-scratch kernel's every round, for any geometry, sub-range,
//!   pool width and round schedule, including lines that skip rounds, a
//!   dependent vector the basis drops, and a carry handed a system it
//!   has never seen (it must restart, not mis-score);
//! * driver level — `seq`, `par` and both `ft` drivers (fault-free and
//!   under crashes) return the target list of a reference loop that
//!   drives the stateless kernels round by round, and reruns repeat
//!   their `RunReport`s: the carry is host wall-clock only.

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::cube::HyperCube;
use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::ft::{run_replan, run_self_sched, FtOptions, FtRun};
use heterospec::hetero::kernels::{self, FclsCarry, ProjectionCarry, ScoredPixel};
use heterospec::hetero::sched::{AtdcaChunks, ChunkedAlgo, UfclsChunks};
use heterospec::hetero::seq::DetectedTarget;
use heterospec::hetero::{par, seq, OutputDigest};
use heterospec::linalg::lstsq::FclsProblem;
use heterospec::linalg::ortho::OrthoBasis;
use heterospec::linalg::Matrix;
use heterospec::simnet::engine::Engine;
use heterospec::simnet::{presets, FaultPlan};
use proptest::prelude::*;

const MAX_LINES: usize = 21;
const MAX_SAMPLES: usize = 6;
const MAX_BANDS: usize = 6;
const MAX_VALS: usize = MAX_LINES * MAX_SAMPLES * MAX_BANDS;
const WIDTHS: [usize; 4] = [1, 2, 3, 8];
/// Draws consumed per round: sub-range (2), pool width, growth.
const DRAWS_PER_ROUND: usize = 4;
const MAX_ROUNDS: usize = 6;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("test pool")
}

fn wide(px: &[f32]) -> Vec<f64> {
    px.iter().map(|&v| f64::from(v)).collect()
}

/// Folds raw `(lo, span)` draws into a valid line sub-range of `lines`.
fn line_range(lines: usize, lo: usize, span: usize) -> (usize, usize) {
    let lo = lo % lines;
    (lo, lo + 1 + span % (lines - lo))
}

/// Coordinates and score **bits** of a kernel result.
fn bits(best: &Option<ScoredPixel>) -> Option<(usize, usize, u64)> {
    best.as_ref().map(|b| (b.line, b.sample, b.score.to_bits()))
}

/// The spectra a round schedule grows its system from: pixels spread
/// over the cube.
fn spectra(cube: &HyperCube, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| wide(cube.pixel_flat((i * 7 + 3) % cube.num_pixels())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ATDCA: every round scans a fresh sub-range at a fresh width after
    /// the basis grew by one or two pushes (one of them a dependent
    /// vector the basis drops), so lines sit at mixed depths and jump
    /// several vectors at once. Then the same carry is handed an
    /// unrelated basis, and the original one again.
    #[test]
    fn carried_projection_equals_from_scratch_every_round(
        vals in proptest::collection::vec(0.0f32..1.0, MAX_VALS),
        lines in 1usize..=MAX_LINES,
        samples in 1usize..=MAX_SAMPLES,
        bands in 3usize..=MAX_BANDS,
        draws in proptest::collection::vec(0usize..1000, DRAWS_PER_ROUND * MAX_ROUNDS),
    ) {
        let cube = HyperCube::from_vec(
            lines, samples, bands, vals[..lines * samples * bands].to_vec());
        let mut pushes = spectra(&cube, bands);
        // Twice the first spectrum: `push` must drop it, so a round can
        // pass without the basis growing.
        let dependent: Vec<f64> = pushes[0].iter().map(|v| 2.0 * v).collect();
        pushes.insert(2, dependent);
        let mut pushes = pushes.iter();

        let mut basis = OrthoBasis::new(bands);
        let carry = ProjectionCarry::default();
        let mut dropped = false;
        for round in draws.chunks(DRAWS_PER_ROUND) {
            for _ in 0..1 + round[3] % 2 {
                if let Some(v) = pushes.next() {
                    dropped |= !basis.push(v);
                }
            }
            let range = line_range(lines, round[0], round[1]);
            let scratch = pool(1).install(|| kernels::max_projection(&cube, &basis, range));
            let carried = pool(WIDTHS[round[2] % WIDTHS.len()]).install(|| {
                kernels::max_projection_carried(&cube, &basis, range, &carry)
            });
            prop_assert_eq!(bits(&carried.0), bits(&scratch.0), "k = {}", basis.len());
            prop_assert_eq!(carried.1.to_bits(), scratch.1.to_bits());
        }
        prop_assert!(dropped, "the schedule reaches the dependent vector");

        // A basis the carry has never seen, sharing no leading vector…
        let whole = (0, lines);
        let mut other = OrthoBasis::new(bands);
        other.push(&wide(cube.pixel_flat(cube.num_pixels() - 1)).iter().map(|v| v + 0.5).collect::<Vec<_>>());
        other.push(&vec![1.0; bands]);
        // …and one sharing only the first.
        let mut forked = OrthoBasis::new(bands);
        forked.push(&wide(cube.pixel_flat(3 % cube.num_pixels())));
        forked.push(&vec![1.0; bands]);
        for handed in [&other, &basis, &forked, &basis] {
            let scratch = kernels::max_projection(&cube, handed, whole);
            let carried = kernels::max_projection_carried(&cube, handed, whole, &carry);
            prop_assert_eq!(bits(&carried.0), bits(&scratch.0));
        }
    }

    /// UFCLS: the same schedule against a growing endmember set (kept
    /// independent: a singular set has no solve to compare).
    #[test]
    fn carried_fcls_error_equals_from_scratch_every_round(
        vals in proptest::collection::vec(0.0f32..1.0, MAX_VALS),
        lines in 1usize..=MAX_LINES,
        samples in 1usize..=MAX_SAMPLES,
        bands in 4usize..=MAX_BANDS,
        draws in proptest::collection::vec(0usize..1000, DRAWS_PER_ROUND * MAX_ROUNDS),
    ) {
        let cube = HyperCube::from_vec(
            lines, samples, bands, vals[..lines * samples * bands].to_vec());
        let pushes = spectra(&cube, bands - 1);
        let mut pushes = pushes.iter();

        let mut problem =
            FclsProblem::new(Matrix::row_vector(pushes.next().expect("one spectrum"))).unwrap();
        let carry = FclsCarry::default();
        for round in draws.chunks(DRAWS_PER_ROUND) {
            let range = line_range(lines, round[0], round[1]);
            let scratch = pool(1).install(|| kernels::max_fcls_error(&cube, &problem, range));
            let carried = pool(WIDTHS[round[2] % WIDTHS.len()]).install(|| {
                kernels::max_fcls_error_carried(&cube, &problem, range, &carry)
            });
            prop_assert_eq!(
                bits(&carried.0), bits(&scratch.0), "t = {}", problem.num_endmembers());
            prop_assert_eq!(carried.1.to_bits(), scratch.1.to_bits());
            for _ in 0..1 + round[3] % 2 {
                if let Some(v) = pushes.next() {
                    problem.push(v).unwrap();
                }
            }
        }

        let whole = (0, lines);
        let other = FclsProblem::new(Matrix::from_rows(&[
            &vec![0.25; bands][..],
            &(0..bands).map(|b| 0.1 + 0.2 * b as f64).collect::<Vec<_>>()[..],
        ])).unwrap();
        for handed in [&other, &problem, &other] {
            let scratch = kernels::max_fcls_error(&cube, handed, whole);
            let carried = kernels::max_fcls_error_carried(&cube, handed, whole, &carry);
            prop_assert_eq!(bits(&carried.0), bits(&scratch.0));
        }
    }
}

fn target_at(cube: &HyperCube, best: Option<ScoredPixel>) -> DetectedTarget {
    let best = best.expect("non-empty image");
    DetectedTarget {
        line: best.line,
        sample: best.sample,
        spectrum: cube.pixel(best.line, best.sample).to_vec(),
    }
}

/// ATDCA as the paper writes it, on the stateless kernels: every round
/// re-orthonormalises all targets and re-projects every pixel from zero.
fn reference_atdca(cube: &HyperCube, num_targets: usize) -> Vec<DetectedTarget> {
    let whole = (0, cube.lines());
    let mut targets = vec![target_at(cube, kernels::brightest(cube, whole).0)];
    while targets.len() < num_targets {
        let mut basis = OrthoBasis::new(cube.bands());
        for t in &targets {
            basis.push(&wide(&t.spectrum));
        }
        targets.push(target_at(
            cube,
            kernels::max_projection(cube, &basis, whole).0,
        ));
    }
    targets
}

/// UFCLS likewise: every round rebuilds the endmember system from all
/// targets and unmixes every pixel from zero.
fn reference_ufcls(cube: &HyperCube, num_targets: usize) -> Vec<DetectedTarget> {
    let whole = (0, cube.lines());
    let mut targets = vec![target_at(cube, kernels::brightest(cube, whole).0)];
    while targets.len() < num_targets {
        let rows: Vec<Vec<f64>> = targets.iter().map(|t| wide(&t.spectrum)).collect();
        let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let problem = FclsProblem::new(Matrix::from_rows(&rows)).expect("endmembers");
        targets.push(target_at(
            cube,
            kernels::max_fcls_error(cube, &problem, whole).0,
        ));
    }
    targets
}

#[test]
fn seq_and_par_return_the_stateless_reference_targets() {
    let s = testutil::tiny_scene();
    let p = testutil::params(9, 2);
    let want_atdca = reference_atdca(&s.cube, p.num_targets).digest64();
    let want_ufcls = reference_ufcls(&s.cube, p.num_targets).digest64();
    assert_eq!(seq::atdca(&s.cube, &p).result.digest64(), want_atdca);
    assert_eq!(seq::ufcls(&s.cube, &p).result.digest64(), want_ufcls);
    for platform in [presets::fully_heterogeneous(), presets::thunderhead(256)] {
        let name = platform.name().to_string();
        let engine = Engine::new(platform);
        let options = RunOptions::hetero();
        let atdca = par::atdca::run(&engine, &s.cube, &p, &options);
        let ufcls = par::ufcls::run(&engine, &s.cube, &p, &options);
        assert_eq!(atdca.result.digest64(), want_atdca, "ATDCA on {name}");
        assert_eq!(ufcls.result.digest64(), want_ufcls, "UFCLS on {name}");
        // Host-only state: a rerun repeats the whole report.
        assert_eq!(
            par::atdca::run(&engine, &s.cube, &p, &options).report,
            atdca.report
        );
        assert_eq!(
            par::ufcls::run(&engine, &s.cube, &p, &options).report,
            ufcls.report
        );
    }
}

/// Runs `algo` under both ft drivers, twice each: the output digest is
/// `want`, every planned crash is recovered from, and the rerun repeats
/// the report and the recoveries.
fn assert_ft_matches<A>(algo: &A, want: u64, plan: fn() -> FaultPlan, crashes: usize)
where
    A: ChunkedAlgo + Sync,
    A::Output: OutputDigest + Send,
{
    let opts = FtOptions::default();
    for (mode, driver) in [
        (
            "self-sched",
            run_self_sched::<A> as fn(&Engine, &A, &FtOptions) -> FtRun<A::Output>,
        ),
        ("replan", run_replan::<A>),
    ] {
        let run = driver(&testutil::engine_with(plan()), algo, &opts);
        assert_eq!(run.output.digest64(), want, "{mode} {}", algo.name());
        assert_eq!(run.recoveries.len(), crashes, "{mode} {}", algo.name());
        let again = driver(&testutil::engine_with(plan()), algo, &opts);
        assert_eq!(
            (again.report, again.recoveries),
            (run.report, run.recoveries)
        );
    }
}

/// Both ft drivers, fault-free and under a plan that kills two workers
/// in early rounds (their carries die with them, and their chunks land
/// on workers that never scored those lines), slows a third and cuts a
/// link.
#[test]
fn ft_drivers_return_the_stateless_reference_targets_with_and_without_faults() {
    let s = testutil::tiny_scene();
    let p = testutil::params(7, 2);
    let want_atdca = reference_atdca(&s.cube, p.num_targets).digest64();
    let want_ufcls = reference_ufcls(&s.cube, p.num_targets).digest64();
    let atdca = AtdcaChunks::new(&s.cube, &p);
    let ufcls = UfclsChunks::new(&s.cube, &p);
    let faulty: fn() -> FaultPlan = || {
        FaultPlan::new()
            .crash(2, 0.02)
            .crash(4, 0.04)
            .slowdown(5, 0.0, 0.5, 2.5)
            .link_outage(0, 7, 0.01, 0.05)
    };
    for (plan, crashes) in [(FaultPlan::new as fn() -> FaultPlan, 0), (faulty, 2)] {
        assert_ft_matches(&atdca, want_atdca, plan, crashes);
        assert_ft_matches(&ufcls, want_ufcls, plan, crashes);
    }
}

/// The benchmark's scene geometry at the paper's `t = 18`, eight seeds:
/// the sequential drivers against the stateless reference (≈ 0.6 M
/// projections and as many solves per seed on each side).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "16 full t = 18 passes: run in the release profile (CI does)"
)]
fn eight_seeds_at_eighteen_targets_match_the_stateless_reference() {
    let p = AlgoParams::default();
    assert_eq!(p.num_targets, 18);
    for seed in [20010916, 1, 2, 3, 4, 5, 6, 7] {
        let scene = wtc_scene(WtcConfig {
            lines: 256,
            samples: 16,
            seed,
            ..Default::default()
        });
        let cube = &scene.cube;
        assert_eq!(
            seq::atdca(cube, &p).result.digest64(),
            reference_atdca(cube, p.num_targets).digest64(),
            "ATDCA, seed {seed}"
        );
        assert_eq!(
            seq::ufcls(cube, &p).result.digest64(),
            reference_ufcls(cube, p.num_targets).digest64(),
            "UFCLS, seed {seed}"
        );
    }
}
