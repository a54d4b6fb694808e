//! Integration suite for `simnet::coll`: every collective algorithm
//! must be **payload-identical** to the linear baseline on any platform
//! and any rank count, deterministic across reruns (reports compare
//! bit-identically, the recorded algorithm choices included), and
//! well-behaved under link-fault plans. The `Auto` selector must never
//! pick a strictly-dominated algorithm on the mini-grid swept here
//! (the full grid is the `ablation_collectives` gate).

use heterospec::simnet::engine::{Engine, WireVec};
use heterospec::simnet::{
    coll, presets, CollAlgorithm, CollectiveConfig, FaultPlan, GatherEntry, Platform,
};
use testutil::links::{serial_link_overlaps, serial_link_uses, LinkUse};
use testutil::{random_platform as platform, BACKENDS, RANK_COUNTS};

/// Broadcast + gather under `backend`, returning every rank's received
/// broadcast payload and the root's gathered entries. One wire type
/// (`WireVec<u32>`) for both, since a `Ctx` is monomorphic per run.
type Exchange = (Vec<Vec<u32>>, Vec<u32>);

fn exchange(platform: &Platform, backend: CollAlgorithm) -> Exchange {
    let cfg = CollectiveConfig::uniform(backend);
    let engine = Engine::new(platform.clone());
    let payload: Vec<u32> = (0..300).collect();
    let report = engine.run(|ctx| {
        let msg = if ctx.is_root() {
            Some(WireVec(payload.clone()))
        } else {
            None
        };
        let bcast = coll::broadcast(ctx, &cfg, 0, msg, (300 * 32) as u64)
            .expect("valid broadcast")
            .0;
        let tag = WireVec(vec![ctx.rank() as u32 + 10]);
        let gathered = coll::gather(ctx, &cfg, 0, tag, 32)
            .expect("valid gather")
            .map(|entries| {
                entries
                    .into_iter()
                    .map(|e| e.into_msg().expect("healthy run").0[0])
                    .collect::<Vec<u32>>()
            });
        (bcast, gathered)
    });
    let p = platform.num_procs();
    let bcasts: Vec<Vec<u32>> = (0..p).map(|r| report.result(r).0.clone()).collect();
    let gathered = report.result(0).1.clone().expect("root gathers");
    (bcasts, gathered)
}

#[test]
fn every_backend_is_payload_identical_to_linear_across_rank_counts() {
    for p in RANK_COUNTS {
        let platform = platform(p);
        let baseline = exchange(&platform, CollAlgorithm::Linear);
        assert_eq!(
            baseline.1,
            (0..p as u32).map(|r| r + 10).collect::<Vec<_>>()
        );
        for backend in BACKENDS {
            let out = exchange(&platform, backend);
            assert_eq!(out, baseline, "{backend} differs from linear at p={p}");
        }
    }
}

#[test]
fn every_backend_is_payload_identical_on_the_paper_networks() {
    for network in presets::four_networks() {
        let baseline = exchange(&network, CollAlgorithm::Linear);
        for backend in BACKENDS {
            let out = exchange(&network, backend);
            assert_eq!(
                out,
                baseline,
                "{backend} differs from linear on {}",
                network.name()
            );
        }
    }
}

#[test]
fn reruns_are_bit_identical_including_choice_log() {
    let run_once = |backend: CollAlgorithm| {
        let cfg = CollectiveConfig::uniform(backend);
        let engine = Engine::new(presets::fully_heterogeneous());
        engine.run(|ctx| {
            let msg = if ctx.is_root() {
                Some(WireVec(vec![7u8; 16_128]))
            } else {
                None
            };
            let b = coll::broadcast(ctx, &cfg, 0, msg, 129_024).expect("valid broadcast");
            let g = coll::gather(ctx, &cfg, 0, WireVec(vec![ctx.rank() as u8]), 8)
                .expect("valid gather");
            (b.0.len(), g.map(|e| e.len()), ctx.elapsed())
        })
    };
    for backend in BACKENDS {
        let a = run_once(backend);
        let b = run_once(backend);
        assert_eq!(a, b, "rerun drift under {backend}");
        assert!(
            !a.collectives.is_empty(),
            "choices must be recorded under {backend}"
        );
        if backend == CollAlgorithm::Auto {
            // Auto resolved to something concrete, deterministically.
            for choice in &a.collectives {
                assert_eq!(choice.requested, CollAlgorithm::Auto);
                assert_ne!(choice.algorithm, CollAlgorithm::Auto);
            }
        }
    }
}

#[test]
fn link_outage_delays_but_never_corrupts_collectives() {
    let payload: Vec<u32> = (0..4032).collect();
    let run_once = |outage: bool, backend: CollAlgorithm| {
        let cfg = CollectiveConfig::uniform(backend);
        let mut engine = Engine::new(presets::fully_heterogeneous());
        if outage {
            // Segment 0 <-> 1 link down for the first 50 virtual ms —
            // squarely across the broadcast's cross-segment sends.
            engine = engine.with_faults(FaultPlan::new().link_outage(0, 1, 0.0, 0.05));
        }
        let engine = engine;
        engine.run(|ctx| {
            let msg = if ctx.is_root() {
                Some(WireVec(payload.clone()))
            } else {
                None
            };
            let out = coll::broadcast(ctx, &cfg, 0, msg, (4032 * 32) as u64)
                .expect("valid broadcast")
                .0;
            (out, ctx.elapsed())
        })
    };
    for backend in [CollAlgorithm::Linear, CollAlgorithm::SegmentHierarchical] {
        let healthy = run_once(false, backend);
        let degraded = run_once(true, backend);
        // Same payload everywhere, later (or equal) finish, no failures.
        assert!(degraded.ok(), "{backend}: outage must not fail ranks");
        for r in 0..16 {
            assert_eq!(
                degraded.result(r).0,
                healthy.result(r).0,
                "{backend}: rank {r} payload corrupted by outage"
            );
        }
        assert!(
            degraded.total_time >= healthy.total_time,
            "{backend}: outage cannot speed the run up ({} < {})",
            degraded.total_time,
            healthy.total_time
        );
        // Determinism under the identical fault plan.
        let again = run_once(true, backend);
        assert_eq!(degraded, again, "{backend}: fault-plan rerun drift");
    }
}

#[test]
fn gather_marks_crashed_rank_as_lost_hole() {
    let cfg = CollectiveConfig::linear();
    let engine =
        Engine::new(presets::fully_heterogeneous()).with_faults(FaultPlan::new().crash(3, 0.0));
    let report = engine.run(|ctx| {
        // Rank 3's plan crashes it at t=0: the engine converts its send
        // into a failure marker and the root sees an explicit hole.
        coll::gather(ctx, &cfg, 0, ctx.rank() as u64, 64)
            .expect("valid gather")
            .map(|entries| {
                entries
                    .iter()
                    .map(GatherEntry::is_lost)
                    .collect::<Vec<bool>>()
            })
    });
    let holes = report.result(0).as_ref().expect("root gathers");
    for (r, lost) in holes.iter().enumerate() {
        assert_eq!(*lost, r == 3, "rank {r} lost={lost}");
    }
}

#[test]
fn auto_is_never_dominated_on_the_mini_grid() {
    let concrete = [
        CollAlgorithm::Linear,
        CollAlgorithm::BinomialTree,
        CollAlgorithm::SegmentHierarchical,
        CollAlgorithm::PipelinedChunked,
    ];
    let bcast_time = |platform: &Platform, backend: CollAlgorithm, bits: u64| {
        let cfg = CollectiveConfig::uniform(backend);
        let engine = Engine::new(platform.clone());
        engine
            .run(|ctx| {
                let msg = if ctx.is_root() {
                    Some(WireVec(vec![0u8; (bits / 8) as usize]))
                } else {
                    None
                };
                coll::broadcast(ctx, &cfg, 0, msg, bits)
                    .expect("valid broadcast")
                    .0
                    .len()
            })
            .total_time
    };
    for platform in [
        presets::fully_heterogeneous(),
        presets::partially_homogeneous(),
    ] {
        for bits in [7_168u64, 129_024] {
            let auto = bcast_time(&platform, CollAlgorithm::Auto, bits);
            let best = concrete
                .iter()
                .map(|&a| bcast_time(&platform, a, bits))
                .fold(f64::INFINITY, f64::min);
            assert!(
                auto <= best + 1e-9,
                "auto {auto} dominated by best {best} on {} at {bits} bits",
                platform.name()
            );
        }
    }
}

// ---------------------------------------------------------------------
// ROADMAP 1b, first cut: no two transfers overlap on one serial link
// ---------------------------------------------------------------------

/// Broadcast of 30 000 words then a gather of 2 000 words a rank on the
/// paper's four-segment network, traced: `(cross-segment transfers,
/// overlapping pairs)`.
fn serial_link_census(backend: CollAlgorithm) -> (usize, Vec<(LinkUse, LinkUse)>) {
    let platform = presets::fully_heterogeneous();
    let cfg = CollectiveConfig::uniform(backend);
    let (report, trace) = Engine::new(platform.clone()).run_traced(|ctx| {
        let msg = ctx.is_root().then(|| WireVec(vec![7u32; 30_000]));
        let down = coll::broadcast(ctx, &cfg, 0, msg, 30_000 * 32).expect("valid broadcast");
        assert_eq!(down.0.len(), 30_000);
        let up = WireVec(vec![ctx.rank() as u32; 2_000]);
        coll::gather(ctx, &cfg, 0, up, 2_000 * 32)
            .expect("valid gather")
            .map(|entries| entries.len())
    });
    assert!(report.ok());
    let uses = serial_link_uses(&platform, &trace);
    let overlaps = serial_link_overlaps(&uses);
    (uses.len(), overlaps)
}

#[test]
fn linear_collectives_never_overlap_on_a_serial_link() {
    // Every transfer has the root at one end, and the root reserves.
    let (transfers, overlaps) = serial_link_census(CollAlgorithm::Linear);
    assert_eq!(transfers, 24, "12 remote ranks, down and up");
    assert!(overlaps.is_empty(), "{overlaps:#?}");
}

#[test]
fn segment_hierarchical_collectives_never_overlap_on_a_serial_link() {
    // Only segment leaders cross, and only to or from the root.
    let (transfers, overlaps) = serial_link_census(CollAlgorithm::SegmentHierarchical);
    assert_eq!(transfers, 15);
    assert!(overlaps.is_empty(), "{overlaps:#?}");
}

#[test]
#[ignore = "ROADMAP 1c: worker↔worker transfers do not reserve serial links"]
fn binomial_tree_collectives_never_overlap_on_a_serial_link() {
    // Fails today: 5 of the 22 transfers start on a link another still
    // holds, because the tree relays worker to worker across segments at
    // the raw duration — rank 8 feeds ranks 12 and 10 over link s2–s3 at
    // once, and both send their subtrees' entries back the same way.
    let (transfers, overlaps) = serial_link_census(CollAlgorithm::BinomialTree);
    assert_eq!(transfers, 22);
    let first = overlaps.first().map(|(a, b)| {
        format!(
            "link s{}–s{} carries {}→{} over [{:.5}, {:.5}) s and {}→{} over [{:.5}, {:.5}) s",
            a.link.0, a.link.1, a.src, a.dst, a.start, a.end, b.src, b.dst, b.start, b.end
        )
    });
    assert!(
        overlaps.is_empty(),
        "{} transfers start on a serial link another still holds, first: {}",
        overlaps.len(),
        first.unwrap_or_default()
    );
}

#[test]
#[ignore = "ROADMAP 1c: outage tested at the requested start"]
fn no_transfer_is_granted_a_start_inside_an_outage_of_its_link() {
    // Fails today: `contention::charge` applies the fault plan before
    // the reservation. Root on segment 0, worker on segment 1, a
    // 1 000 ms/Mbit link that is out over [1.5, 3.0) s, three
    // back-to-back 1 Mbit root sends. None is *requested* inside the
    // outage, so none is moved; the queue then grants them
    // [0.0002, 1.0002), [1.0002, 2.0002) and [2.0002, 3.0002) — the
    // third starts on a link that is down.
    let procs = [0, 1]
        .iter()
        .map(|&segment| heterospec::simnet::ProcessorSpec {
            name: format!("s{segment}"),
            arch: "x",
            cycle_time: 0.01,
            memory_mb: 64,
            cache_kb: 0,
            segment,
            device: None,
        })
        .collect();
    let platform = Platform::new("outage", procs, vec![vec![0.0, 1000.0], vec![1000.0, 0.0]]);
    let (from, until) = (1.5, 3.0);
    let plan = FaultPlan::new().link_outage(0, 1, from, until);
    let (report, trace) = Engine::new(platform.clone())
        .with_faults(plan)
        .run_traced(|ctx| {
            for _ in 0..3 {
                if ctx.is_root() {
                    ctx.send_bits(1, 0u64, 1_000_000);
                } else {
                    ctx.recv(0);
                }
            }
        });
    assert!(report.ok());
    let uses = serial_link_uses(&platform, &trace);
    assert_eq!(uses.len(), 3);
    assert!(serial_link_overlaps(&uses).is_empty(), "{uses:#?}");
    let down: Vec<&LinkUse> = uses
        .iter()
        .filter(|u| from <= u.start && u.start < until)
        .collect();
    assert!(
        down.is_empty(),
        "granted a start inside the [{from}, {until}) s outage of link s0–s1: {down:#?}"
    );
}
