//! ATDCA prunes by its carried residual: a pixel's running sum
//! `‖x‖² − Σᵢ (qᵢᵀx)²` is updated by `s −= c·c` with `c·c ≥ 0`, and
//! rounding is monotone, so it never rises, bit for bit, and its stale
//! value (clamped at 0) bounds every later score with no margin
//! (`kernels::max_projection_carried`). A scan that knows a higher score
//! skips the pixel and forms none of its dots.
//!
//! * the bound — on the benchmark scene at four seeds, grown through its
//!   own `seq::atdca` targets, every pixel's carried residual after each
//!   pushed vector is at most the one before it (`hsi_linalg::ortho`'s
//!   property test covers random, near-dependent, zero and NaN cases);
//! * the counting gate — `seq::atdca` at the paper's `t = 18` evaluates
//!   at most 25 % of its pixel-rounds, and `par` (16 WEA cells, 256
//!   one-line ranks) and both ft drivers, with and without crashes, fewer
//!   than they score (`Carry::pixel_rounds`). No stopwatch: a scan that
//!   stops pruning fails it on any host.
//!
//! That pruning moves no bit is `carried_rounds.rs`'s to show (every
//! driver against the stateless reference loop).

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::cube::HyperCube;
use heterospec::hetero::config::AlgoParams;
use heterospec::hetero::ft::{run_replan, run_self_sched, FtOptions, FtRun};
use heterospec::hetero::kernels::ProjectionCarry;
use heterospec::hetero::par::run_detector;
use heterospec::hetero::sched::AtdcaChunks;
use heterospec::hetero::seq::{self, DetectedTarget};
use heterospec::hetero::RunOptions;
use heterospec::linalg::ortho::OrthoBasis;
use heterospec::simnet::engine::Engine;
use heterospec::simnet::{presets, FaultPlan};

/// The benchmark scene (256 × 16 × 224) at `seed`.
fn benchmark_cube(seed: u64) -> HyperCube {
    let scene = wtc_scene(WtcConfig {
        lines: 256,
        samples: 16,
        seed,
        ..Default::default()
    });
    scene.cube
}

fn wide(px: &[f32]) -> Vec<f64> {
    px.iter().map(|&v| f64::from(v)).collect()
}

/// `‖x‖²`, as the scan starts a pixel from.
fn norm(x: &[f32]) -> f64 {
    x.iter().map(|&v| f64::from(v) * f64::from(v)).sum()
}

/// Every pixel's carried residual, continued through each vector the
/// basis of the scene's own ATDCA targets takes in, never rises.
#[test]
fn a_carried_residual_never_rises_on_the_benchmark_scene() {
    let params = AlgoParams::default();
    for seed in [20010916, 7, 4242, 31337] {
        let cube = benchmark_cube(seed);
        let targets = seq::atdca(&cube, &params).result;
        let pixels: Vec<&[f32]> = (0..cube.num_pixels()).map(|i| cube.pixel_flat(i)).collect();
        let mut carried: Vec<f64> = pixels.iter().map(|x| norm(x)).collect();
        let mut basis = OrthoBasis::new(cube.bands());
        let mut pushed = 0;
        for target in &targets[..targets.len() - 1] {
            let seen = basis.len();
            pushed += usize::from(basis.push(&wide(&target.spectrum)));
            let Some(q) = (seen < basis.len()).then(|| basis.vector(seen)) else {
                continue;
            };
            for (p, (x, sum)) in pixels.iter().zip(carried.iter_mut()).enumerate() {
                // The kernel's dot: products summed in band order.
                let c: f64 = x.iter().zip(q).map(|(&v, &q)| f64::from(v) * q).sum();
                let next = *sum - c * c;
                assert!(
                    next <= *sum,
                    "seed {seed}, pixel {p}, vector {seen}: {next:e} > {sum:e}"
                );
                *sum = next;
            }
        }
        assert_eq!(pushed, targets.len() - 1, "seed {seed}");
    }
}

/// `seq::atdca` at the paper's `t = 18`, on one thread as the benchmark
/// runs it (a wider pool scans one block a worker, each with a floor of
/// its own), scores 17 rounds of 4 096 pixels and evaluates at most a
/// quarter of them (measured: see docs/PERF.md).
#[test]
fn seq_atdca_evaluates_at_most_a_quarter_of_its_pixel_rounds() {
    let cube = benchmark_cube(20010916);
    let params = AlgoParams::default();
    assert_eq!(params.num_targets, 18);
    let carry = ProjectionCarry::for_run(cube.lines(), cube.samples());
    let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build();
    one_thread
        .expect("one-thread pool")
        .install(|| seq::atdca_carried(&cube, &params, &carry));
    let (evaluated, scored) = carry.pixel_rounds();
    println!("seq: {evaluated} of {scored} pixel-rounds evaluated");
    assert_eq!(scored, 17 * cube.num_pixels());
    assert!(
        4 * evaluated <= scored,
        "{evaluated} of {scored} pixel-rounds evaluated"
    );
}

/// `par` over the 16 WEA cells of `fully_heterogeneous()` and over the
/// one-line ranks of `thunderhead(256)`, and both ft drivers with and
/// without two crashes, return `seq`'s targets and evaluate fewer
/// pixel-rounds than they score.
#[test]
fn every_driver_evaluates_fewer_pixel_rounds_than_it_scores() {
    let cube = benchmark_cube(20010916);
    let params = AlgoParams::default();
    let want = seq::atdca(&cube, &params).result;
    let check = |what: &str, algo: &AtdcaChunks, output: &[DetectedTarget]| {
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
        let algo = AtdcaChunks::new(&cube, &params);
        let run = run_detector(&Engine::new(platform), &algo, &RunOptions::hetero());
        assert!(run.report.ok(), "{name}");
        check(name, &algo, &run.result);
    }

    type Driver<'a> = fn(&Engine, &AtdcaChunks<'a>, &FtOptions) -> FtRun<Vec<DetectedTarget>>;
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
            let algo = AtdcaChunks::new(&cube, &params);
            let run = driver(&testutil::engine_with(plan), &algo, &FtOptions::default());
            assert_eq!(run.recoveries.len(), crashes, "{mode}");
            check(&format!("ft {mode}, {crashes} crashes"), &algo, &run.output);
        }
    }
}
