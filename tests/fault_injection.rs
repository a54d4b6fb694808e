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
use heterospec::hetero::sched::{AtdcaChunks, MorphChunks, PctChunks, UfclsChunks};
use heterospec::hetero::{eval, seq};
use heterospec::simnet::{CollAlgorithm, CollectiveConfig, FailureCause, FaultPlan};

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

/// Epoch-stamped tree mode: the round state travels down the survivor
/// tree instead of the linear master fan-out. An interior relay (a
/// segment leader) crashing at any point — before the round, mid state
/// distribution, mid compute — must leave the fixed-grid self-sched
/// output untouched and the replan output correct, bump the membership
/// epoch exactly once per observed loss, and replay bit-identically.
#[test]
fn tree_mode_interior_relay_crashes_keep_every_contribution() {
    let s = scene();
    let p = params();
    let want = coords(&seq::atdca(&s.cube, &p).result);
    let algo = AtdcaChunks::new(&s.cube, &p);
    let opts = FtOptions {
        collectives: CollectiveConfig::uniform(CollAlgorithm::SegmentHierarchical),
        ..FtOptions::default()
    };
    // Ranks 4 and 10 lead segments 1 and 3 of `fully_heterogeneous` —
    // both relay the round state onward in the segment-hierarchical
    // tree. The times span barrier-phase and compute-phase crashes.
    for &(rank, at) in &[(4usize, 0.0001), (4, 0.05), (10, 0.01), (10, 0.2)] {
        let plan = || FaultPlan::new().crash(rank, at);
        let ss = run_self_sched(&engine_with(plan()), &algo, &opts);
        assert_eq!(
            coords(&ss.output),
            want,
            "tree self-sched crash({rank},{at})"
        );
        let rp = run_replan(&engine_with(plan()), &algo, &opts);
        assert_eq!(coords(&rp.output), want, "tree replan crash({rank},{at})");
        assert_losses_recorded_once(&ss, &[rank], "tree self-sched");
        assert_losses_recorded_once(&rp, &[rank], "tree replan");
        if at <= 0.05 {
            assert!(!ss.recoveries.is_empty(), "crash({rank},{at}) must be seen");
        }
        let ss2 = run_self_sched(&engine_with(plan()), &algo, &opts);
        assert_eq!(ss.report, ss2.report, "tree self-sched rerun drift");
        assert_eq!(coords(&ss2.output), want);
        let rp2 = run_replan(&engine_with(plan()), &algo, &opts);
        assert_eq!(rp.report, rp2.report, "tree replan rerun drift");
    }
}

/// Tree mode under the cost-model selector: `Auto` must resolve to a
/// concrete schedule per round and still survive a relay crash.
#[test]
fn tree_mode_auto_survives_a_relay_crash() {
    let s = scene();
    let p = params();
    let want = coords(&seq::atdca(&s.cube, &p).result);
    let algo = AtdcaChunks::new(&s.cube, &p);
    let opts = FtOptions {
        collectives: CollectiveConfig::uniform(CollAlgorithm::Auto),
        ..FtOptions::default()
    };
    let run = run_self_sched(&engine_with(FaultPlan::new().crash(8, 0.02)), &algo, &opts);
    assert_eq!(coords(&run.output), want);
    assert_losses_recorded_once(&run, &[8], "tree auto");
}
