//! Memos keyed by the data, gated by **counts** (no stopwatch):
//!
//! * a detector's carry belongs to the image lines, so whichever ft
//!   worker scores a line next continues it: `ft::run_self_sched` and
//!   `ft::run_replan`, fault-free and under crashes, like one sequential
//!   pass, start each line from nothing exactly once, form no pixel's
//!   dot with a system vector twice — every dot formed is one the carry
//!   still holds — and return `seq`'s targets;
//! * a detector's carry is reserved by its owner at the size its run
//!   fills, so no line buffer grows on whichever thread scores the line:
//!   the static driver of `par` and both ft drivers under crashes, on the
//!   benchmark's scene;
//! * a detector's system is a function of the winners taken in, so a
//!   run builds one per installed round however many ranks install it:
//!   the static driver of `par` under a linear gather and a fused tree
//!   allreduce, on 16 and 64 ranks, and both ft drivers, with and
//!   without crashes;
//! * an angle belongs to its pair of input pixels, so `mei` forms one dot
//!   per unordered pair of different input pixels however many scales
//!   ask for it.
//!
//! The tallies are read-only counters of host work (`Carry::applied`,
//! `Carry::held`, `Carry::outgrown`, `DetectChunks::systems_built`,
//! `MeiResult::dots_formed`); the virtual clock never reads them.

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::cube::LabelImage;
use heterospec::hetero::config::AlgoParams;
use heterospec::hetero::ft::{run_replan, run_self_sched, FtOptions, FtRun};
use heterospec::hetero::par::{self, run_detector, run_morph};
use heterospec::hetero::sched::{AtdcaChunks, ChunkedAlgo, MorphChunks, UfclsChunks};
use heterospec::hetero::seq::{self, DetectedTarget};
use heterospec::hetero::RunOptions;
use heterospec::morpho::mei::mei;
use heterospec::morpho::StructuringElement;
use heterospec::simnet::coll::{CollAlgorithm, CollectiveConfig};
use heterospec::simnet::engine::Engine;
use heterospec::simnet::{presets, FaultPlan};
use std::sync::Arc;

/// One pass of a chunked detector with the whole image as its only
/// chunk: the line-rounds `seq` performs, through the same carry type.
fn one_chunk_pass<A: ChunkedAlgo>(algo: &A) -> A::Output {
    let (mut state, mut replica) = (algo.initial_state(), algo.replica());
    for round in 0..algo.rounds() {
        let (partial, _) = algo.run_chunk(round, &replica, 0, algo.lines());
        let (next, delta, _) = algo.reduce(round, state, vec![(0, partial)]);
        if let Some(delta) = delta {
            algo.install(round, &mut replica, Arc::new(delta));
        }
        state = next;
    }
    algo.finish(state)
}

/// `carried_rounds.rs`'s plan: two workers die in early rounds (their
/// chunks land on workers that never scored those lines), a third is
/// slowed, a link is cut.
fn two_crashes() -> FaultPlan {
    FaultPlan::new()
        .crash(2, 0.02)
        .crash(4, 0.04)
        .slowdown(5, 0.0, 0.5, 2.5)
        .link_outage(0, 7, 0.01, 0.05)
}

/// A detector run's host-work tallies: the carry's `(dots formed, lines
/// started)`, the dots its pixels hold at the end, and the systems built.
type Tally = ((usize, usize), usize, usize);

/// Requires of a run's `tally` that every line of `lines` started once,
/// every dot formed is still held — none was formed twice — and at most
/// one per pixel of `pixels` and scored system vector (`t − 1`), and one
/// system was built per target.
fn assert_no_dot_formed_twice(what: &str, tally: Tally, lines: usize, pixels: usize, t: usize) {
    let ((formed, started), held, systems) = tally;
    assert_eq!((formed, started, systems), (held, lines, t), "{what}");
    assert!(0 < formed && formed <= pixels * (t - 1), "{what}: {formed}");
}

/// Both ft drivers over a fresh `new_algo()` each, with and without
/// faults: `want`'s targets, the carry tallies of the sequential pass —
/// each line started once, no dot formed twice — and one system built per
/// round, by the master's merge — the last round's too, which no round
/// opens with.
fn assert_lines_are_continued_whoever_scores_them<A>(
    new_algo: impl Fn() -> A,
    tally: impl Fn(&A) -> Tally,
    want: &[DetectedTarget],
    (lines, pixels): (usize, usize),
) where
    A: ChunkedAlgo<Output = Vec<DetectedTarget>> + Sync,
{
    let t = want.len();
    let sequential = new_algo();
    assert_eq!(one_chunk_pass(&sequential), want);
    assert_no_dot_formed_twice("one pass", tally(&sequential), lines, pixels, t);

    type Driver<A> = fn(&Engine, &A, &FtOptions) -> FtRun<<A as ChunkedAlgo>::Output>;
    let drivers: [(&str, Driver<A>); 2] = [
        ("self-sched", run_self_sched::<A>),
        ("replan", run_replan::<A>),
    ];
    for (mode, driver) in drivers {
        for (plan, crashes) in [(FaultPlan::new as fn() -> FaultPlan, 0), (two_crashes, 2)] {
            let algo = new_algo();
            let run = driver(&testutil::engine_with(plan()), &algo, &FtOptions::default());
            let what = format!("{mode} {}, {crashes} crashes", algo.name());
            assert_eq!(run.recoveries.len(), crashes, "{what}");
            assert_eq!(run.output, want, "{what}");
            assert_no_dot_formed_twice(&what, tally(&algo), lines, pixels, t);
        }
    }
}

#[test]
fn ft_drivers_start_each_line_once_and_form_no_dot_twice() {
    let s = testutil::tiny_scene();
    let p = testutil::params(7, 2);
    let shape = (s.cube.lines(), s.cube.num_pixels());
    assert_lines_are_continued_whoever_scores_them(
        || AtdcaChunks::new(&s.cube, &p),
        |algo| {
            (
                algo.carry().applied(),
                algo.carry().held(),
                algo.systems_built(),
            )
        },
        &seq::atdca(&s.cube, &p).result,
        shape,
    );
    assert_lines_are_continued_whoever_scores_them(
        || UfclsChunks::new(&s.cube, &p),
        |algo| {
            (
                algo.carry().applied(),
                algo.carry().held(),
                algo.systems_built(),
            )
        },
        &seq::ufcls(&s.cube, &p).result,
        shape,
    );
}

/// Runs `new_algo()` under the static driver of `par` on the 16-node
/// network and under both ft drivers with two crashes, and requires
/// `outgrown` to read 0 after each.
fn assert_no_line_buffer_grows<A>(new_algo: impl Fn() -> A, outgrown: impl Fn(&A) -> usize)
where
    A: ChunkedAlgo<Output = Vec<DetectedTarget>> + Sync,
{
    type Driver<A> = fn(&Engine, &A, &FtOptions) -> FtRun<<A as ChunkedAlgo>::Output>;
    let drivers: [(&str, Driver<A>); 2] = [
        ("self-sched", run_self_sched::<A>),
        ("replan", run_replan::<A>),
    ];
    let mut seen = Vec::new();
    for (mode, driver) in drivers {
        let algo = new_algo();
        let run = driver(
            &testutil::engine_with(two_crashes()),
            &algo,
            &FtOptions::default(),
        );
        assert_eq!(run.recoveries.len(), 2, "{mode} {}", algo.name());
        assert_eq!(outgrown(&algo), 0, "{mode} {}", algo.name());
        seen.push(run.output);
    }
    assert_eq!(seen[0], seen[1]);
}

/// A detector's carry is reserved where the run is made, at the size
/// the run fills: every line's sums and UFCLS's trail arena. So on the
/// benchmark's scene (256 × 16 pixels, 224 bands, 18 targets) no line
/// buffer grows during a scan, on whichever rank thread scores it —
/// statically over 16 ranks, and under both ft drivers after two crashes.
/// Each grew on first touch, and UFCLS's dots every round, while the
/// lines were made empty (a count, no stopwatch).
#[test]
fn a_run_fills_the_carry_its_owner_reserved() {
    let s = testutil::scene(256, 16, 224);
    let p = AlgoParams::default();
    let engine = Engine::new(presets::fully_heterogeneous());
    let options = RunOptions::hetero();
    let atdca = AtdcaChunks::new(&s.cube, &p);
    assert!(run_detector(&engine, &atdca, &options).report.ok());
    assert_eq!(atdca.carry().outgrown(), 0, "par ATDCA");
    let ufcls = UfclsChunks::new(&s.cube, &p);
    assert!(run_detector(&engine, &ufcls, &options).report.ok());
    assert_eq!(ufcls.carry().outgrown(), 0, "par UFCLS");

    assert_no_line_buffer_grows(|| AtdcaChunks::new(&s.cube, &p), |a| a.carry().outgrown());
    assert_no_line_buffer_grows(|| UfclsChunks::new(&s.cube, &p), |a| a.carry().outgrown());
}

/// Every rank of a static run installs every round's winner, and the
/// run builds each round's system once, in the merge that picks the
/// winner, so no install builds one: under the linear gather, where the
/// root's broadcast hands every rank one delta, and under a fused tree
/// allreduce, where every rank merges a winner of its own.
#[test]
fn a_par_run_builds_one_detector_system_per_round() {
    let s = testutil::tiny_scene();
    let p = testutil::params(7, 2);
    let fused = RunOptions::hetero().with_collectives(CollectiveConfig {
        allreduce: CollAlgorithm::BinomialTree,
        ..CollectiveConfig::linear()
    });
    let atdca = seq::atdca(&s.cube, &p).result;
    let ufcls = seq::ufcls(&s.cube, &p).result;
    for platform in [presets::thunderhead(64), presets::fully_heterogeneous()] {
        let engine = Engine::new(platform);
        for (schedule, options) in [("linear", RunOptions::hetero()), ("fused", fused)] {
            let what = |name| format!("{name}, {schedule}, {}", engine.platform().num_procs());
            let algo = AtdcaChunks::new(&s.cube, &p);
            assert_eq!(run_detector(&engine, &algo, &options).result, atdca);
            assert_eq!(algo.systems_built(), algo.rounds(), "{}", what("ATDCA"));
            assert_eq!(algo.systems_built_by_installs(), 0, "{}", what("ATDCA"));
            let algo = UfclsChunks::new(&s.cube, &p);
            assert_eq!(run_detector(&engine, &algo, &options).result, ufcls);
            assert_eq!(algo.systems_built(), algo.rounds(), "{}", what("UFCLS"));
            assert_eq!(algo.systems_built_by_installs(), 0, "{}", what("UFCLS"));
        }
    }
}

/// Unordered pairs of different pixels a 3 × 3 element joins in a
/// `lines × samples` image: along a line, down a column, two diagonals.
fn neighbour_pairs(lines: usize, samples: usize) -> usize {
    lines * (samples - 1) + (lines - 1) * samples + 2 * (lines - 1) * (samples - 1)
}

#[test]
fn mei_measures_a_pair_of_input_pixels_once_per_call_not_once_per_scale() {
    let se = StructuringElement::square(1);
    let cube = &testutil::tiny_scene().cube;
    let first_scale = neighbour_pairs(cube.lines(), cube.samples());
    assert_eq!(first_scale, 7_418);
    assert_eq!(mei(cube, &se, 1).dots_formed().0, first_scale);
    // Five scales ask about 5 × 7 418 neighbour pairs.
    let (neighbours, extremes) = mei(cube, &se, 5).dots_formed();
    assert_eq!((neighbours, extremes), (9_641, 2_303));
    assert!(neighbours < 2 * first_scale);

    // The benchmark's geometry at the paper's five scales: 15 570 +
    // 2 396 + 1 176 + 673 + 444 dots for the 5 × 15 570 neighbour pairs
    // asked about (21 915 of them a pixel with itself). The pairs are
    // 20 477 distinct ones; 218 were first met as an earlier scale's
    // erosion–dilation pair, and the one memo had them already.
    let scene = wtc_scene(WtcConfig {
        lines: 256,
        samples: 16,
        seed: 7,
        ..Default::default()
    });
    assert_eq!(neighbour_pairs(256, 16), 15_570);
    assert_eq!(mei(&scene.cube, &se, 5).dots_formed(), (20_259, 4_555));
}

/// A MORPH run's MEI workspaces are made by its owner: the driver's
/// master reserves them on its own thread, no more than the host has
/// cores, for the largest window it hands out, and every window is
/// computed in one of them — a rank that finds them all lent out waits
/// — so no workspace grows on a rank thread. On the benchmark's scene
/// (256 × 16 pixels, 224 bands, `I_max = 5`): the static driver of `par`
/// over the 16-node network and 256 Thunderhead ranks, with the output
/// of `par::morph::run`, and both ft drivers with and without two
/// crashes (a count, no stopwatch).
#[test]
fn a_morph_run_computes_every_window_in_a_workspace_its_master_reserved() {
    let s = testutil::scene(256, 16, 224);
    let p = AlgoParams::default();
    let options = RunOptions::hetero();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for platform in [presets::fully_heterogeneous(), presets::thunderhead(256)] {
        let engine = Engine::new(platform);
        let ranks = engine.platform().num_procs();
        let algo = MorphChunks::new(&s.cube, &p);
        let run = run_morph(&engine, &algo, &options);
        assert!(run.report.ok(), "{ranks} ranks: {:?}", run.report.failures);
        let workspaces = algo.workspaces();
        assert!(
            workspaces.made() <= cores,
            "{ranks} ranks: {} made",
            workspaces.made()
        );
        assert_eq!(workspaces.outgrown(), 0, "{ranks} ranks");
        let whole = par::morph::run(&engine, &s.cube, &p, &options);
        assert_eq!(run.result, whole.result, "{ranks} ranks");
    }
    type Driver<'a> =
        fn(&Engine, &MorphChunks<'a>, &FtOptions) -> FtRun<(LabelImage, Vec<Vec<f32>>)>;
    let drivers: [(&str, Driver); 2] = [("self-sched", run_self_sched), ("replan", run_replan)];
    for (mode, driver) in drivers {
        for (plan, crashes) in [(FaultPlan::new as fn() -> FaultPlan, 0), (two_crashes, 2)] {
            let algo = MorphChunks::new(&s.cube, &p);
            let run = driver(&testutil::engine_with(plan()), &algo, &FtOptions::default());
            assert_eq!(run.recoveries.len(), crashes, "{mode}");
            let workspaces = algo.workspaces();
            assert!(workspaces.made() <= cores, "{mode}, {crashes} crashes");
            assert_eq!(workspaces.outgrown(), 0, "{mode}, {crashes} crashes");
        }
    }
}
