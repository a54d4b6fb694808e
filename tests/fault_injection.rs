//! Fault-injection acceptance suite.
//!
//! The contract of the fault-tolerant drivers (`hetero::ft` over
//! `simnet`'s deterministic fault plans):
//!
//! 1. a worker crash at **any** virtual time still completes the run
//!    with correct results on the survivors, for all four algorithms
//!    and both recovery modes;
//! 2. two runs under the **same** fault plan are bit-identical —
//!    same `RunReport`, same recoveries, same output;
//! 3. the self-scheduling mode uses a fixed chunk grid, so its output
//!    is *identical* with and without crashes (re-planning regrids the
//!    surviving partition, so only accuracy — not equality — is
//!    guaranteed there for the grid-dependent classifiers).

use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::ft::{run_replan, run_self_sched, FtOptions, FtRun};
use heterospec::hetero::par::{atdca, ufcls};
use heterospec::hetero::sched::{AtdcaChunks, ChunkedAlgo, MorphChunks, PctChunks, UfclsChunks};
use heterospec::hetero::{eval, seq, OutputDigest};
use heterospec::simnet::engine::Engine;
use heterospec::simnet::{
    presets, CollAlgorithm, CollectiveConfig, FailureCause, FaultPlan, Platform, ProcessorSpec,
};

use testutil::{coords, engine_with, tiny_scene as scene};

fn params() -> AlgoParams {
    testutil::params(5, 2)
}

/// The master records each loss once: every recovery names a rank the
/// plan crashed, no rank is recovered twice, and no loss is detected
/// before it happened.
fn assert_losses_recorded_once<O>(run: &FtRun<O>, crashed: &[usize], what: &str) {
    let mut seen = Vec::new();
    for r in &run.recoveries {
        let rank = r.rank;
        assert!(crashed.contains(&rank), "{what}: rank {rank} never crashed");
        assert!(!seen.contains(&rank), "{what}: rank {rank} recovered twice");
        assert!(r.detected_at >= r.at, "{what}: rank {rank} seen early");
        seen.push(rank);
    }
}

#[test]
fn atdca_survives_crashes_at_any_time_in_both_modes() {
    let s = scene();
    let p = params();
    let want = coords(&seq::atdca(&s.cube, &p).result);
    let algo = AtdcaChunks::new(&s.cube, &p);
    let opts = FtOptions::default();
    for &(rank, at) in &[(2usize, 0.005), (3, 0.05), (7, 0.2), (12, 5.0)] {
        let plan = || FaultPlan::new().crash(rank, at);
        let ss = run_self_sched(&engine_with(plan()), &algo, &opts);
        assert_eq!(coords(&ss.output), want, "self-sched, crash({rank}, {at})");
        let rp = run_replan(&engine_with(plan()), &algo, &opts);
        assert_eq!(coords(&rp.output), want, "replan, crash({rank}, {at})");
        assert_losses_recorded_once(&ss, &[rank], "self-sched");
        assert_losses_recorded_once(&rp, &[rank], "replan");
    }
}

#[test]
fn ufcls_survives_a_mid_run_crash_in_both_modes() {
    let s = scene();
    let p = params();
    let want = coords(&seq::ufcls(&s.cube, &p).result);
    let algo = UfclsChunks::new(&s.cube, &p);
    let opts = FtOptions::default();
    let plan = || FaultPlan::new().crash(4, 0.05);
    let ss = run_self_sched(&engine_with(plan()), &algo, &opts);
    assert_eq!(coords(&ss.output), want, "self-sched");
    let rp = run_replan(&engine_with(plan()), &algo, &opts);
    assert_eq!(coords(&rp.output), want, "replan");
}

#[test]
fn two_simultaneous_worker_losses_still_complete() {
    let s = scene();
    let p = params();
    let want = coords(&seq::atdca(&s.cube, &p).result);
    let algo = AtdcaChunks::new(&s.cube, &p);
    let opts = FtOptions::default();
    let plan = || FaultPlan::new().crash(2, 0.03).crash(9, 0.03);
    let ss = run_self_sched(&engine_with(plan()), &algo, &opts);
    assert_eq!(coords(&ss.output), want, "self-sched");
    assert_losses_recorded_once(&ss, &[2, 9], "self-sched");
    let rp = run_replan(&engine_with(plan()), &algo, &opts);
    assert_eq!(coords(&rp.output), want, "replan");
    assert_losses_recorded_once(&rp, &[2, 9], "replan");
}

#[test]
fn pct_self_sched_output_is_invariant_under_crashes() {
    let s = scene();
    let p = params();
    let algo = PctChunks::new(&s.cube, &p);
    let opts = FtOptions::default();
    let clean = run_self_sched(&engine_with(FaultPlan::new()), &algo, &opts);
    let faulty = run_self_sched(&engine_with(FaultPlan::new().crash(5, 0.02)), &algo, &opts);
    // Fixed grid: the label image and model are bit-identical whether or
    // not a worker died mid-run.
    assert_eq!(clean.output.0.as_slice(), faulty.output.0.as_slice());
    assert_eq!(clean.output.1.mean, faulty.output.1.mean);
    assert_eq!(clean.output.1.class_reps, faulty.output.1.class_reps);
    assert!(clean.recoveries.is_empty());
    assert!(!faulty.recoveries.is_empty());
}

#[test]
fn pct_replan_labels_stay_sound_after_a_crash() {
    let s = scene();
    let p = params();
    let algo = PctChunks::new(&s.cube, &p);
    let run = run_replan(
        &engine_with(FaultPlan::new().crash(3, 0.02)),
        &algo,
        &FtOptions::default(),
    );
    let (labels, _) = run.output;
    assert_eq!(labels.lines(), s.cube.lines());
    for &l in labels.as_slice() {
        assert!((l as usize) < p.num_classes);
    }
    let acc = heterospec::cube::labels::score(&labels, &s.truth).overall;
    assert!(acc > 25.0, "replan PCT accuracy after crash: {acc:.1}%");
}

#[test]
fn morph_self_sched_output_is_invariant_under_crashes() {
    let s = scene();
    let p = params();
    let algo = MorphChunks::new(&s.cube, &p);
    let opts = FtOptions::default();
    let clean = run_self_sched(&engine_with(FaultPlan::new()), &algo, &opts);
    let faulty = run_self_sched(&engine_with(FaultPlan::new().crash(6, 0.05)), &algo, &opts);
    assert_eq!(clean.output.0.as_slice(), faulty.output.0.as_slice());
    assert_eq!(clean.output.1, faulty.output.1);
}

#[test]
fn morph_replan_labels_stay_sound_after_a_crash() {
    let s = scene();
    let p = params();
    let algo = MorphChunks::new(&s.cube, &p);
    let run = run_replan(
        &engine_with(FaultPlan::new().crash(8, 0.05)),
        &algo,
        &FtOptions::default(),
    );
    let (labels, _) = run.output;
    for &l in labels.as_slice() {
        assert!((l as usize) < p.num_classes);
    }
    let acc = eval::debris_accuracy(&s, &labels, 7).overall;
    assert!(acc > 30.0, "replan MORPH accuracy after crash: {acc:.1}%");
}

#[test]
fn identical_fault_plans_give_bit_identical_runs() {
    let s = scene();
    let p = params();
    let algo = AtdcaChunks::new(&s.cube, &p);
    let opts = FtOptions::default();
    let plan = || {
        FaultPlan::new()
            .crash(2, 0.04)
            .slowdown(5, 0.0, 0.3, 2.5)
            .link_outage(0, 7, 0.01, 0.05)
    };
    let a = run_self_sched(&engine_with(plan()), &algo, &opts);
    let b = run_self_sched(&engine_with(plan()), &algo, &opts);
    assert_eq!(a.report, b.report);
    assert_eq!(a.recoveries, b.recoveries);
    assert_eq!(coords(&a.output), coords(&b.output));
    let c = run_replan(&engine_with(plan()), &algo, &opts);
    let d = run_replan(&engine_with(plan()), &algo, &opts);
    assert_eq!(c.report, d.report);
    assert_eq!(c.recoveries, d.recoveries);
}

/// A worker crashing mid-run under the **fused allreduce** winner
/// selection must degrade structurally: its whole subtree surfaces as
/// `RankFailure` records (`Crash` for the victim, `PeerLost` for the
/// relays forwarding the loss), the root keeps folding the survivors —
/// no hang, no abort — and identical plans replay bit-identically.
#[test]
fn worker_crash_mid_allreduce_degrades_structurally() {
    let s = scene();
    let p = params();
    let options = RunOptions::hetero().with_collectives(CollectiveConfig {
        allreduce: CollAlgorithm::BinomialTree,
        ..CollectiveConfig::linear()
    });
    let run = || {
        ufcls::run(
            &engine_with(FaultPlan::new().crash(8, 0.01)),
            &s.cube,
            &p,
            &options,
        )
    };
    let out = run();
    // The root completed every round over the survivors.
    assert_eq!(out.result.len(), p.num_targets);
    assert!(!out.report.ok());
    let f = out.report.failure_of(8).expect("crash recorded");
    assert_eq!(f.cause, FailureCause::Crash);
    for failure in &out.report.failures {
        assert!(
            failure.rank == 8 || matches!(failure.cause, FailureCause::PeerLost { .. }),
            "unexpected failure {failure:?}"
        );
        assert!(failure.rank != 0, "the root must survive");
    }
    let again = run();
    assert_eq!(out.report, again.report, "fused crash rerun drift");
    assert_eq!(coords(&out.result), coords(&again.result));
}

/// The same contract for a crash under the pipelined chunked broadcast,
/// whose chunks overlap on the links: structured failures, a surviving
/// root with a full target list, and bit-identical replays.
#[test]
fn worker_crash_mid_overlapped_broadcast_degrades_structurally() {
    let s = scene();
    let p = params();
    let options = RunOptions::hetero().with_collectives(CollectiveConfig {
        broadcast: CollAlgorithm::PipelinedChunked,
        ..CollectiveConfig::linear()
    });
    let run = || {
        atdca::run(
            &engine_with(FaultPlan::new().crash(5, 0.01)),
            &s.cube,
            &p,
            &options,
        )
    };
    let out = run();
    assert_eq!(out.result.len(), p.num_targets);
    assert!(!out.report.ok());
    let f = out.report.failure_of(5).expect("crash recorded");
    assert_eq!(f.cause, FailureCause::Crash);
    for failure in &out.report.failures {
        assert!(
            failure.rank == 5 || matches!(failure.cause, FailureCause::PeerLost { .. }),
            "unexpected failure {failure:?}"
        );
        assert!(failure.rank != 0, "the root must survive");
    }
    let again = run();
    assert_eq!(out.report, again.report, "overlapped crash rerun drift");
    assert_eq!(coords(&out.result), coords(&again.result));
}

#[test]
fn crashes_are_recorded_as_structured_failures() {
    let s = scene();
    let p = params();
    let algo = AtdcaChunks::new(&s.cube, &p);
    let run = run_self_sched(
        &engine_with(FaultPlan::new().crash(3, 0.05)),
        &algo,
        &FtOptions::default(),
    );
    assert!(!run.report.ok());
    let f = run.report.failure_of(3).expect("rank 3 failure recorded");
    assert_eq!(f.cause, FailureCause::Crash);
    assert!((f.at - 0.05).abs() < 1e-12);
    assert!(run.report.failure_of(1).is_none());
}

/// Crashes of the ranks that lead segments 1–3 of `fully_heterogeneous`
/// (4, 8 and 10) and of a rank inside segment 3 (13), from before the
/// first round to late in the run, singly and two together, at fractions
/// of the fault-free self-scheduled makespan T₀. Every surviving
/// contribution must reach the output: each driver returns its
/// fault-free target list, spectra included, and a rerun repeats the
/// report and the output to the bit.
#[test]
fn six_crash_plans_keep_every_contribution() {
    let s = scene();
    let p = params();
    let algo = AtdcaChunks::new(&s.cube, &p);
    let opts = FtOptions::default();
    let drive = |plan: FaultPlan, self_sched: bool| {
        if self_sched {
            run_self_sched(&engine_with(plan), &algo, &opts)
        } else {
            run_replan(&engine_with(plan), &algo, &opts)
        }
    };
    let clean_ss = drive(FaultPlan::new(), true);
    let clean_rp = drive(FaultPlan::new(), false);
    let t0 = clean_ss.report.total_time;
    let plans = [
        (vec![4], FaultPlan::new().crash(4, 1e-4)),
        (vec![4], FaultPlan::new().crash(4, 0.25 * t0)),
        (vec![8], FaultPlan::new().crash(8, 0.50 * t0)),
        (vec![10], FaultPlan::new().crash(10, 0.75 * t0)),
        (vec![13], FaultPlan::new().crash(13, 0.40 * t0)),
        (
            vec![4, 10],
            FaultPlan::new().crash(4, 0.20 * t0).crash(10, 0.55 * t0),
        ),
    ];
    for (crashed, plan) in plans {
        for (self_sched, clean) in [(true, &clean_ss), (false, &clean_rp)] {
            let what = format!("{plan:?} self-sched={self_sched}");
            let run = drive(plan.clone(), self_sched);
            assert_eq!(run.output, clean.output, "{what}: a contribution was lost");
            assert_losses_recorded_once(&run, &crashed, &what);
            let rerun = drive(plan.clone(), self_sched);
            assert_eq!(run.report, rerun.report, "{what}: rerun drift");
            assert_eq!(run.output, rerun.output, "{what}: rerun drift");
            assert_eq!(run.recoveries, rerun.recoveries, "{what}: rerun drift");
        }
    }
}

/// Five ranks in two segments, `{0, 1, 2}` and `{3, 4}`: under
/// `SegmentHierarchical` a collective's root sends to rank 3 (the leader
/// of segment 1), 1 and 2, and rank 3 relays to rank 4.
fn two_segment_platform() -> Platform {
    let cycle = [0.0058, 0.0102, 0.0026, 0.0072, 0.0131];
    let segment = |r: usize| usize::from(r >= 3);
    let procs = (0..cycle.len())
        .map(|r| ProcessorSpec {
            name: format!("p{}", r + 1),
            arch: "two-segment test node",
            cycle_time: cycle[r],
            memory_mb: 1024,
            cache_kb: 512,
            segment: segment(r),
            device: None,
        })
        .collect();
    let links = (0..cycle.len())
        .map(|i| {
            (0..cycle.len())
                .map(|j| match (i == j, segment(i) == segment(j)) {
                    (true, _) => 0.0,
                    (false, true) => 19.26,
                    (false, false) => 48.31,
                })
                .collect()
        })
        .collect();
    Platform::new("two-segments", procs, links)
}

/// One cell of the crash grid: `algo` under one driver on
/// [`two_segment_platform`], fault-free and then with each
/// worker crashed at `k/32` of the fault-free makespan for every `k` in
/// `ks`. Whatever the driver promises must hold: the fault-free output
/// when the output is grid-independent (`same_output`), `labelled`
/// otherwise; every recovery names the crashed rank, once.
fn crash_grid_cell<A>(
    algo: &A,
    self_sched: bool,
    ks: &[usize],
    same_output: bool,
    labelled: impl Fn(&A::Output) -> bool,
) where
    A: ChunkedAlgo + Sync,
    A::Output: OutputDigest + Send,
{
    let opts = FtOptions::default();
    let drive = |plan: FaultPlan| {
        let engine = Engine::new(two_segment_platform()).with_faults(plan);
        if self_sched {
            run_self_sched(&engine, algo, &opts)
        } else {
            run_replan(&engine, algo, &opts)
        }
    };
    let clean = drive(FaultPlan::new());
    assert!(clean.recoveries.is_empty() && clean.report.ok());
    let makespan = clean.report.total_time;
    for rank in 1..5 {
        for &k in ks {
            let at = makespan * k as f64 / 32.0;
            let what = format!(
                "{} {}, crash({rank}) at {k}/32",
                algo.name(),
                if self_sched { "self-sched" } else { "replan" }
            );
            let run = drive(FaultPlan::new().crash(rank, at));
            if same_output {
                assert_eq!(
                    run.output.digest64(),
                    clean.output.digest64(),
                    "{what}: output moved"
                );
            }
            assert!(labelled(&run.output), "{what}: a line went unlabelled");
            assert_losses_recorded_once(&run, &[rank], &what);
        }
    }
}

/// The crash grid on a platform with a serial link between the master's
/// segment and the next: both drivers × {ATDCA, MORPH} on
/// [`two_segment_platform`], each worker crashed at `k/32` of the
/// fault-free makespan for every `k` in `ks`. Self-scheduling promises
/// the fault-free output for both algorithms and re-planning for ATDCA;
/// re-planned MORPH regrids by timing, so there it must label every
/// pixel with a class.
fn crash_grid(ks: &[usize]) {
    let s = testutil::scene(32, 16, 32);
    let p = params();
    let atdca = AtdcaChunks::new(&s.cube, &p);
    let morph = MorphChunks::new(&s.cube, &p);
    let pixels = s.cube.lines() * s.cube.samples();
    for self_sched in [false, true] {
        crash_grid_cell(&atdca, self_sched, ks, true, |_| true);
        crash_grid_cell(&morph, self_sched, ks, self_sched, |out| {
            let labels = out.0.as_slice();
            labels.len() == pixels && labels.iter().all(|&l| usize::from(l) < p.num_classes)
        });
    }
}

#[test]
fn every_worker_crash_on_a_relay_platform_keeps_the_promised_output() {
    crash_grid(&[1, 6, 11, 16, 21, 26, 31]);
}

#[test]
#[ignore = "the dense grid, every k in 0..32: run by CI's nightly-deep job"]
fn every_worker_crash_on_a_relay_platform_keeps_the_promised_output_dense() {
    crash_grid(&(0..32).collect::<Vec<_>>());
}

/// The master opens every round by sending each surviving worker its
/// delta directly, whatever schedule `FtOptions::collectives` names:
/// under every `CollAlgorithm`, on one segment and on two and four,
/// both drivers, ATDCA and MORPH, clean and with a worker crashed
/// mid-run, must keep every rank's ledger, the makespan, the failures
/// and the recoveries of the `Linear` run to the bit.
#[test]
fn ft_fans_out_linearly_whatever_collectives_names() {
    let s = testutil::scene(32, 16, 32);
    let p = params();
    fn same_as_linear<A>(algo: &A, platform: &Platform, crashed: usize, self_sched: bool)
    where
        A: ChunkedAlgo + Sync,
        A::Output: Send,
    {
        let drive = |broadcast: CollAlgorithm, plan: FaultPlan| {
            let engine = Engine::new(platform.clone()).with_faults(plan);
            let opts = FtOptions {
                collectives: CollectiveConfig::uniform(broadcast),
                ..FtOptions::default()
            };
            if self_sched {
                run_self_sched(&engine, algo, &opts)
            } else {
                run_replan(&engine, algo, &opts)
            }
        };
        let makespan = drive(CollAlgorithm::Linear, FaultPlan::new())
            .report
            .total_time;
        for plan in [
            FaultPlan::new(),
            FaultPlan::new().crash(crashed, 0.5 * makespan),
        ] {
            let linear = drive(CollAlgorithm::Linear, plan.clone());
            for broadcast in [
                CollAlgorithm::BinomialTree,
                CollAlgorithm::SegmentHierarchical,
                CollAlgorithm::PipelinedChunked,
                CollAlgorithm::Auto,
            ] {
                let run = drive(broadcast, plan.clone());
                let what = format!(
                    "{} {broadcast:?} on {} self-sched={self_sched}",
                    algo.name(),
                    platform.name()
                );
                assert_eq!(run.report.ledgers, linear.report.ledgers, "{what}");
                assert_eq!(
                    run.report.total_time.to_bits(),
                    linear.report.total_time.to_bits(),
                    "{what}"
                );
                assert_eq!(run.report.failures, linear.report.failures, "{what}");
                assert_eq!(run.recoveries, linear.recoveries, "{what}");
            }
        }
    }
    // Each crash takes a rank that leads a segment under
    // `SegmentHierarchical` where there is more than one.
    for (platform, crashed) in [
        (presets::thunderhead(8), 5),
        (two_segment_platform(), 3),
        (presets::fully_heterogeneous(), 4),
    ] {
        for self_sched in [false, true] {
            same_as_linear(
                &AtdcaChunks::new(&s.cube, &p),
                &platform,
                crashed,
                self_sched,
            );
            same_as_linear(
                &MorphChunks::new(&s.cube, &p),
                &platform,
                crashed,
                self_sched,
            );
        }
    }
}
