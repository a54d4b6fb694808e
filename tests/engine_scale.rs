//! The engine at the paper's largest scale (Table 8 / Fig. 2: 256
//! Thunderhead nodes) and under faults: whatever order the host runs
//! the rank threads in — 256 of them on a couple of cores, with or
//! without kernel threads beside them — a run's `RunReport` and output
//! repeat exactly.
//!
//! The transport itself (per-pair FIFO, exit-after-drain, dropped mail,
//! the `PeerLost` cascade) and the one-schedule-per-key count are unit
//! tests in `simnet`; this suite drives the same machinery through the
//! real algorithm drivers.

use heterospec::hetero::config::RunOptions;
use heterospec::hetero::ft::{run_replan, run_self_sched, FtOptions, FtRun};
use heterospec::hetero::sched::{AtdcaChunks, ChunkedAlgo, MorphChunks, PctChunks, UfclsChunks};
use heterospec::hetero::{par, OutputDigest};
use heterospec::simnet::engine::Engine;
use heterospec::simnet::report::RunReport;
use heterospec::simnet::{presets, FaultPlan};

const RERUNS: usize = 5;

/// `run` on five reruns of a 1-thread-per-rank engine and once at 2:
/// every `(output digest, report)` equals the first.
fn assert_repeats(what: &str, engine: &Engine, run: impl Fn(&Engine) -> (u64, RunReport<()>)) {
    let narrow = engine.clone().with_threads_per_rank(1);
    let first = run(&narrow);
    for rerun in 1..RERUNS {
        assert_eq!(run(&narrow), first, "{what}: rerun {rerun}");
    }
    let wide = engine.clone().with_threads_per_rank(2);
    assert_eq!(run(&wide), first, "{what}: 2 kernel threads per rank");
}

#[test]
fn the_four_algorithms_repeat_exactly_on_256_ranks() {
    // One image line per rank, as in the benchmark's thunderhead-scale.
    let scene = testutil::scene(256, 8, 32);
    let cube = &scene.cube;
    let params = testutil::params(4, 2);
    let options = RunOptions::hetero();
    let engine = Engine::new(presets::thunderhead(256));
    assert_repeats("atdca", &engine, |e| {
        let run = par::atdca::run(e, cube, &params, &options);
        (run.result.digest64(), run.report)
    });
    assert_repeats("ufcls", &engine, |e| {
        let run = par::ufcls::run(e, cube, &params, &options);
        (run.result.digest64(), run.report)
    });
    assert_repeats("pct", &engine, |e| {
        let run = par::pct::run(e, cube, &params, &options);
        (run.result.digest64(), run.report)
    });
    assert_repeats("morph", &engine, |e| {
        let run = par::morph::run(e, cube, &params, &options);
        (run.result.digest64(), run.report)
    });
}

/// Both ft drivers over `algo` under a plan that kills two workers,
/// slows a third and cuts a link: both crashes are recovered from, and
/// output, recoveries and report repeat exactly.
fn assert_ft_repeats<A>(algo: &A)
where
    A: ChunkedAlgo + Sync,
    A::Output: OutputDigest + Send,
{
    let plan = FaultPlan::new()
        .crash(2, 0.02)
        .crash(4, 0.03)
        .slowdown(5, 0.0, 0.5, 2.5)
        .link_outage(0, 7, 0.01, 0.05);
    let engine = Engine::new(presets::fully_heterogeneous()).with_faults(plan);
    let opts = FtOptions::default();
    for (mode, driver) in [
        (
            "self-sched",
            run_self_sched::<A> as fn(&Engine, &A, &FtOptions) -> FtRun<A::Output>,
        ),
        ("replan", run_replan::<A>),
    ] {
        let what = format!("{mode} {}", algo.name());
        assert_repeats(&what, &engine, |e| {
            let run = driver(e, algo, &opts);
            assert_eq!(run.recoveries.len(), 2, "{what}");
            assert_eq!(run.report.failures.len(), 2, "{what}");
            (run.output.digest64(), run.report)
        });
    }
}

#[test]
fn both_ft_drivers_repeat_exactly_under_crashes_a_slowdown_and_a_link_outage() {
    let scene = testutil::tiny_scene();
    let params = testutil::params(5, 2);
    assert_ft_repeats(&AtdcaChunks::new(&scene.cube, &params));
    assert_ft_repeats(&UfclsChunks::new(&scene.cube, &params));
    assert_ft_repeats(&PctChunks::new(&scene.cube, &params));
    assert_ft_repeats(&MorphChunks::new(&scene.cube, &params));
}
