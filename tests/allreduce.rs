//! Conformance suite for the fused `simnet::coll::allreduce`: every
//! backend must deliver the same folded payload to **every** rank on
//! any platform and rank count; the `Linear` schedule must be bit- and
//! timing-identical to the legacy split (gather → rank-order fold →
//! broadcast); the analytic cost replay must equal the measured virtual
//! time exactly on every schedule; crashed contributors must surface as
//! skipped subtrees, not hangs; and the fused ATDCA/UFCLS
//! winner-selection path must match the legacy outputs while running
//! strictly faster on the paper's fully heterogeneous network.

use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::par::{atdca, ufcls};
use heterospec::simnet::engine::{Engine, WireVec};
use heterospec::simnet::{
    coll, presets, CollAlgorithm, CollOp, CollectiveConfig, FaultPlan, Platform,
};
use testutil::{coords, random_platform as platform, tiny_scene, BACKENDS, RANK_COUNTS};

/// Allreduce of each rank's `[rank, rank², …]` vector under `backend`,
/// folded with elementwise wrapping addition (associative and
/// commutative, as hierarchical trees require). Returns every rank's
/// delivered result.
fn fold_everywhere(platform: &Platform, backend: CollAlgorithm, len: usize) -> Vec<Vec<u32>> {
    let cfg = CollectiveConfig {
        allreduce: backend,
        ..CollectiveConfig::linear()
    };
    let engine = Engine::new(platform.clone());
    let report = engine.run(|ctx| {
        let r = ctx.rank() as u32;
        let own: Vec<u32> = (0..len as u32).map(|i| r.wrapping_mul(i + 1)).collect();
        coll::allreduce(
            ctx,
            &cfg,
            0,
            WireVec(own),
            |a, b| {
                WireVec(
                    a.0.iter()
                        .zip(&b.0)
                        .map(|(x, y)| x.wrapping_add(*y))
                        .collect(),
                )
            },
            (len * 32) as u64,
        )
        .expect("valid allreduce")
        .0
    });
    (0..platform.num_procs())
        .map(|r| report.result(r).clone())
        .collect()
}

/// The sequential reference: elementwise sum over all ranks.
fn sequential_fold(p: usize, len: usize) -> Vec<u32> {
    (0..len as u32)
        .map(|i| {
            (0..p as u32)
                .map(|r| r.wrapping_mul(i + 1))
                .fold(0u32, u32::wrapping_add)
        })
        .collect()
}

#[test]
fn every_backend_agrees_with_the_sequential_fold_across_rank_counts() {
    for p in RANK_COUNTS {
        let platform = platform(p);
        let expect = sequential_fold(p, 96);
        for backend in BACKENDS {
            let results = fold_everywhere(&platform, backend, 96);
            for (r, got) in results.iter().enumerate() {
                assert_eq!(
                    *got, expect,
                    "{backend} at p={p}: rank {r} got a wrong fold"
                );
            }
        }
    }
}

#[test]
fn every_backend_agrees_with_the_sequential_fold_on_the_paper_networks() {
    for network in presets::four_networks() {
        let expect = sequential_fold(network.num_procs(), 257);
        for backend in BACKENDS {
            let results = fold_everywhere(&network, backend, 257);
            for (r, got) in results.iter().enumerate() {
                assert_eq!(
                    *got,
                    expect,
                    "{backend} on {}: rank {r} got a wrong fold",
                    network.name()
                );
            }
        }
    }
}

/// The `Linear` allreduce must replay the legacy split schedule
/// message-for-message: same per-rank payloads **and** the same virtual
/// clocks as an explicit linear gather, a rank-order fold at the root,
/// and a linear broadcast of the result. The fold is deliberately
/// non-commutative/non-associative (`a·31 + b`), so any deviation from
/// the star's left-to-right rank order changes the payload.
#[test]
fn linear_allreduce_is_bit_and_timing_identical_to_gather_plus_broadcast() {
    let cfg = CollectiveConfig::linear();
    let fold = |a: WireVec<u32>, b: WireVec<u32>| {
        WireVec(
            a.0.iter()
                .zip(&b.0)
                .map(|(x, y)| x.wrapping_mul(31).wrapping_add(*y))
                .collect::<Vec<u32>>(),
        )
    };
    for network in presets::four_networks() {
        let bits = (64 * 32) as u64;
        let fused = Engine::new(network.clone()).run(|ctx| {
            let own: Vec<u32> = (0..64).map(|i| ctx.rank() as u32 + i).collect();
            let out =
                coll::allreduce(ctx, &cfg, 0, WireVec(own), fold, bits).expect("valid allreduce");
            (out.0, ctx.elapsed())
        });
        let split = Engine::new(network.clone()).run(|ctx| {
            let own: Vec<u32> = (0..64).map(|i| ctx.rank() as u32 + i).collect();
            let folded = coll::gather(ctx, &cfg, 0, WireVec(own), bits)
                .expect("valid gather")
                .map(|entries| {
                    entries
                        .into_iter()
                        .filter_map(coll::GatherEntry::into_msg)
                        .reduce(fold)
                        .expect("root folds its own contribution at least")
                });
            let out = coll::broadcast(ctx, &cfg, 0, folded, bits).expect("valid broadcast");
            (out.0, ctx.elapsed())
        });
        for r in 0..network.num_procs() {
            assert_eq!(
                fused.result(r).0,
                split.result(r).0,
                "payload drift at rank {r} on {}",
                network.name()
            );
            assert!(
                (fused.result(r).1 - split.result(r).1).abs() < 1e-12,
                "clock drift at rank {r} on {}: fused {} vs split {}",
                network.name(),
                fused.result(r).1,
                split.result(r).1
            );
        }
        assert!((fused.total_time - split.total_time).abs() < 1e-12);
    }
}

/// The analytic replay (`coll::predict`) must equal the measured
/// virtual time of an isolated allreduce **exactly** on every concrete
/// schedule and every paper network — the same contract the broadcast/
/// gather models satisfy, extended to the fused up+down schedule
/// sharing one serial-link ledger.
#[test]
fn predicted_allreduce_cost_equals_measured_virtual_time() {
    let concrete = [
        CollAlgorithm::Linear,
        CollAlgorithm::BinomialTree,
        CollAlgorithm::SegmentHierarchical,
    ];
    for network in presets::four_networks() {
        for alg in concrete {
            for len in [32usize, 4_032] {
                let bits = (len * 32) as u64;
                let cfg = CollectiveConfig {
                    allreduce: alg,
                    ..CollectiveConfig::linear()
                };
                let report = Engine::new(network.clone()).run(|ctx| {
                    let own = vec![ctx.rank() as u32; len];
                    coll::allreduce(
                        ctx,
                        &cfg,
                        0,
                        WireVec(own),
                        |a, b| {
                            WireVec(
                                a.0.iter()
                                    .zip(&b.0)
                                    .map(|(x, y)| x.wrapping_add(*y))
                                    .collect(),
                            )
                        },
                        bits,
                    )
                    .expect("valid allreduce")
                    .0
                    .len()
                });
                let predicted = coll::predict(
                    &network,
                    network.msg_latency_s(),
                    CollOp::Allreduce,
                    alg,
                    0,
                    bits,
                );
                assert!(
                    (predicted - report.total_time).abs() < 1e-9,
                    "{alg} on {} at {bits} bits: predicted {predicted} vs measured {}",
                    network.name(),
                    report.total_time
                );
                // The logged choice carries the same prediction.
                assert!(
                    (report.collectives[0].predicted_secs - report.total_time).abs() < 1e-9,
                    "{alg} on {}: logged prediction drifts from measurement",
                    network.name()
                );
            }
        }
    }
}

#[test]
fn auto_allreduce_is_never_dominated_on_the_mini_grid() {
    let concrete = [
        CollAlgorithm::Linear,
        CollAlgorithm::BinomialTree,
        CollAlgorithm::SegmentHierarchical,
    ];
    let time = |platform: &Platform, backend: CollAlgorithm, len: usize| {
        let cfg = CollectiveConfig {
            allreduce: backend,
            ..CollectiveConfig::linear()
        };
        Engine::new(platform.clone())
            .run(|ctx| {
                let own = vec![ctx.rank() as u32; len];
                coll::allreduce(
                    ctx,
                    &cfg,
                    0,
                    WireVec(own),
                    |a, b| {
                        WireVec(
                            a.0.iter()
                                .zip(&b.0)
                                .map(|(x, y)| x.wrapping_add(*y))
                                .collect(),
                        )
                    },
                    (len * 32) as u64,
                )
                .expect("valid allreduce")
                .0
                .len()
            })
            .total_time
    };
    for platform in [
        presets::fully_heterogeneous(),
        presets::partially_homogeneous(),
    ] {
        for len in [228usize, 4_032] {
            let auto = time(&platform, CollAlgorithm::Auto, len);
            let best = concrete
                .iter()
                .map(|&a| time(&platform, a, len))
                .fold(f64::INFINITY, f64::min);
            assert!(
                auto <= best + 1e-9,
                "auto {auto} dominated by best {best} on {} at {len} words",
                platform.name()
            );
        }
    }
}

/// A contributor crashing before the allreduce removes its whole
/// subtree (its relay parent dies of `PeerLost` forwarding it), and the
/// root folds the survivors — no hang, no abort, and the surviving
/// ranks all receive the degraded result.
#[test]
fn crashed_contributor_degrades_to_a_skipped_subtree() {
    let cfg = CollectiveConfig {
        allreduce: CollAlgorithm::BinomialTree,
        ..CollectiveConfig::linear()
    };
    let engine =
        Engine::new(presets::fully_heterogeneous()).with_faults(FaultPlan::new().crash(3, 0.0));
    let report = engine.run(|ctx| {
        coll::allreduce(
            ctx,
            &cfg,
            0,
            WireVec(vec![1u32 << ctx.rank()]),
            |a, b| WireVec(vec![a.0[0] | b.0[0]]),
            32,
        )
        .expect("valid allreduce")
        .0[0]
    });
    // Rank 3 crashed; its binomial parent (rank 2) dies forwarding the
    // loss. Everyone else folds the 14 survivors.
    assert_eq!(report.failures.len(), 2, "failures: {:?}", report.failures);
    assert!(report.failure_of(3).is_some());
    assert!(report.failure_of(2).is_some());
    let expect = (0u32..16).map(|r| 1 << r).sum::<u32>() & !(1 << 2) & !(1 << 3);
    for r in 0..16 {
        match report.results[r] {
            Some(got) => assert_eq!(got, expect, "rank {r} fold"),
            None => assert!(r == 2 || r == 3, "rank {r} unexpectedly failed"),
        }
    }
}

// ---------------------------------------------------------------------
// Fused winner selection in the algorithms
// ---------------------------------------------------------------------

fn fused_cfg() -> CollectiveConfig {
    CollectiveConfig {
        allreduce: CollAlgorithm::BinomialTree,
        ..CollectiveConfig::linear()
    }
}

#[test]
fn fused_ufcls_matches_legacy_outputs_and_is_strictly_faster() {
    let s = tiny_scene();
    let params = AlgoParams {
        num_targets: 6,
        ..Default::default()
    };
    let engine = Engine::new(presets::fully_heterogeneous());
    let legacy = ufcls::run(&engine, &s.cube, &params, &RunOptions::hetero());
    let fused = ufcls::run(
        &engine,
        &s.cube,
        &params,
        &RunOptions::hetero().with_collectives(fused_cfg()),
    );
    assert_eq!(coords(&legacy.result), coords(&fused.result));
    for (a, b) in legacy.result.iter().zip(&fused.result) {
        assert_eq!(a.spectrum, b.spectrum, "spectrum drift under fusion");
    }
    assert!(
        fused.report.total_time < legacy.report.total_time,
        "fused {} !< legacy {}",
        fused.report.total_time,
        legacy.report.total_time
    );
    // One allreduce decision per detection round; the legacy run never
    // issues an allreduce at all.
    assert_eq!(
        fused.report.choices_of(CollOp::Allreduce).count(),
        params.num_targets
    );
    assert_eq!(legacy.report.choices_of(CollOp::Allreduce).count(), 0);
}

#[test]
fn fused_atdca_matches_legacy_outputs_and_is_strictly_faster() {
    let s = tiny_scene();
    let params = AlgoParams {
        num_targets: 8,
        ..Default::default()
    };
    let engine = Engine::new(presets::fully_heterogeneous());
    let legacy = atdca::run(&engine, &s.cube, &params, &RunOptions::hetero());
    let fused = atdca::run(
        &engine,
        &s.cube,
        &params,
        &RunOptions::hetero().with_collectives(fused_cfg()),
    );
    assert_eq!(coords(&legacy.result), coords(&fused.result));
    assert!(
        fused.report.total_time < legacy.report.total_time,
        "fused {} !< legacy {}",
        fused.report.total_time,
        legacy.report.total_time
    );
    assert_eq!(
        fused.report.choices_of(CollOp::Allreduce).count(),
        params.num_targets
    );
}

/// Fused reruns are bit-identical, recorded choices included.
#[test]
fn fused_runs_are_deterministic_across_reruns() {
    let s = tiny_scene();
    let params = AlgoParams {
        num_targets: 5,
        ..Default::default()
    };
    let engine = Engine::new(presets::fully_heterogeneous());
    let options = RunOptions::hetero().with_collectives(CollectiveConfig {
        allreduce: CollAlgorithm::Auto,
        ..CollectiveConfig::linear()
    });
    let a = ufcls::run(&engine, &s.cube, &params, &options);
    let b = ufcls::run(&engine, &s.cube, &params, &options);
    assert_eq!(a.report, b.report, "rerun drift under fused Auto selection");
    for choice in a.report.choices_of(CollOp::Allreduce) {
        assert_eq!(choice.requested, CollAlgorithm::Auto);
        assert_ne!(choice.algorithm, CollAlgorithm::Auto);
    }
}
