//! The virtual clock reads the scene's shape, not its pixels.
//!
//! ATDCA and UFCLS charge every kernel analytically in the scan size, and
//! every message they send (candidates, endmembers) has a size fixed by
//! the band count, so at a fixed shape their reports — every rank's
//! ledger, the collective log, the offload counters, the failures, the
//! recoveries — must not depend on what the pixels hold. PCT and MORPH
//! charge by sizes the data decides (the unique candidate sets, the
//! class representatives), so for them the property is relative: two
//! scenes that decide the same sizes give the same reports. A scene
//! scaled by 2 is one, because a power of two leaves every spectral
//! angle's bits unchanged.
//!
//! Checked for `par` and both ft drivers, on the paper's four networks,
//! on `thunderhead(P)` and under crashes, and swept over scene seeds and
//! Thunderhead sizes (≈ 1 s in the dev profile at the default 8 cases).

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::cube::HyperCube;
use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::ft::{run_replan, run_self_sched, FtOptions, Recovery};
use heterospec::hetero::par;
use heterospec::hetero::sched::{AtdcaChunks, ChunkedAlgo, MorphChunks, PctChunks, UfclsChunks};
use heterospec::simnet::engine::Engine;
use heterospec::simnet::{presets, FaultPlan, RunReport};
use proptest::prelude::*;

/// `(lines, samples, bands)` of every scene here: four 8-line chunks.
const SHAPE: (usize, usize, usize) = (32, 16, 32);

#[derive(Debug, Clone, Copy)]
enum Algo {
    Atdca,
    Ufcls,
    Pct,
    Morph,
}

/// The WTC scene of [`SHAPE`] drawn from `seed`.
fn scene(seed: u64) -> HyperCube {
    let (lines, samples, bands) = SHAPE;
    wtc_scene(WtcConfig {
        lines,
        samples,
        bands,
        seed,
        ..Default::default()
    })
    .cube
}

/// `cube` with every sample doubled.
fn doubled(cube: &HyperCube) -> HyperCube {
    let data = cube.as_slice().iter().map(|&v| 2.0 * v).collect();
    HyperCube::from_vec(cube.lines(), cube.samples(), cube.bands(), data)
}

fn params() -> AlgoParams {
    AlgoParams {
        num_targets: 6,
        morph_iterations: 2,
        ..Default::default()
    }
}

/// One driver's report and the recoveries it made (none for `par`).
type Reports = Vec<(&'static str, RunReport<()>, Vec<Recovery>)>;

/// The reports of `algo` over `cube` on `engine`: the partitioned run
/// and both ft drivers.
fn reports(algo: Algo, engine: &Engine, cube: &HyperCube) -> Reports {
    let (p, options) = (&params(), &RunOptions::hetero());
    match algo {
        Algo::Atdca => {
            let par = par::atdca::run(engine, cube, p, options).report;
            with_ft(engine, &AtdcaChunks::new(cube, p), par)
        }
        Algo::Ufcls => {
            let par = par::ufcls::run(engine, cube, p, options).report;
            with_ft(engine, &UfclsChunks::new(cube, p), par)
        }
        Algo::Pct => {
            let par = par::pct::run(engine, cube, p, options).report;
            with_ft(engine, &PctChunks::new(cube, p), par)
        }
        Algo::Morph => {
            let par = par::morph::run(engine, cube, p, options).report;
            with_ft(engine, &MorphChunks::new(cube, p), par)
        }
    }
}

fn with_ft<A>(engine: &Engine, algo: &A, par: RunReport<()>) -> Reports
where
    A: ChunkedAlgo + Sync,
    A::Output: Send,
{
    let opts = FtOptions::default();
    let replan = run_replan(engine, algo, &opts);
    let selfsched = run_self_sched(engine, algo, &opts);
    vec![
        ("par", par, Vec::new()),
        ("ft replan", replan.report, replan.recoveries),
        ("ft selfsched", selfsched.report, selfsched.recoveries),
    ]
}

/// Asserts that `algo` reports the same on `engine` over every cube of
/// `cubes`, which must differ in content.
fn assert_same_reports(algo: Algo, engine: &Engine, cubes: &[HyperCube]) {
    let first = reports(algo, engine, &cubes[0]);
    for (i, cube) in cubes.iter().enumerate().skip(1) {
        assert_ne!(
            cube.as_slice(),
            cubes[0].as_slice(),
            "cube {i}: same pixels"
        );
        let other = reports(algo, engine, cube);
        for ((driver, a, ra), (_, b, rb)) in first.iter().zip(&other) {
            let what = format!("{algo:?} {driver} on {}, cube {i}", a.platform_name);
            assert_eq!(a.total_time.to_bits(), b.total_time.to_bits(), "{what}");
            assert!(a == b, "{what}: ledgers, collectives or offloads differ");
            assert_eq!(ra, rb, "{what}: recoveries");
        }
    }
}

/// The engines every narrow case runs on: the four networks, a
/// Thunderhead cluster, and the fully heterogeneous network losing two
/// workers.
fn engines() -> Vec<Engine> {
    let crashes = FaultPlan::new()
        .crash(2, 0.002)
        .crash(4, 0.004)
        .slowdown(5, 0.0, 0.05, 2.5);
    let mut engines: Vec<Engine> = presets::four_networks()
        .into_iter()
        .map(Engine::new)
        .collect();
    engines.push(Engine::new(presets::thunderhead(16)));
    engines.push(testutil::engine_with(crashes));
    engines
}

/// The crash plan of [`engines`] is one the ft drivers recover from
/// twice, so the recoveries compared above are not empty.
#[test]
fn the_crash_plan_loses_two_workers() {
    let engine = engines().pop().expect("the crash engine");
    for (driver, report, recoveries) in reports(Algo::Ufcls, &engine, &scene(7)) {
        assert_eq!(report.failures.len(), 2, "{driver}");
        if driver != "par" {
            assert_eq!(recoveries.len(), 2, "{driver}");
        }
    }
}

#[test]
fn detector_reports_do_not_read_the_pixels() {
    let cubes = [scene(20010916), scene(7), scene(31337)];
    for engine in engines() {
        for algo in [Algo::Atdca, Algo::Ufcls] {
            assert_same_reports(algo, &engine, &cubes);
        }
    }
}

#[test]
fn a_scene_scaled_by_two_leaves_every_report() {
    let cube = scene(20010916);
    let cubes = [doubled(&cube), cube];
    for engine in engines() {
        for algo in [Algo::Atdca, Algo::Ufcls, Algo::Pct, Algo::Morph] {
            assert_same_reports(algo, &engine, &cubes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sweep: Thunderhead clusters of 2–33 nodes (one more than
    /// the lines: an idle rank) and two scene seeds.
    #[test]
    fn reports_do_not_read_the_pixels_on_any_thunderhead(
        p in 2usize..34, a in 0u64..1_000_000, gap in 1u64..1_000_000
    ) {
        let engine = Engine::new(presets::thunderhead(p));
        let (cube_a, cube_b) = (scene(a), scene(a + gap));
        for algo in [Algo::Atdca, Algo::Ufcls] {
            assert_same_reports(algo, &engine, &[cube_a.clone(), cube_b.clone()]);
        }
        for algo in [Algo::Pct, Algo::Morph] {
            assert_same_reports(algo, &engine, &[doubled(&cube_a), cube_a.clone()]);
        }
    }
}
