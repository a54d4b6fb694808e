//! Epoch-stamped membership acceptance suite.
//!
//! The contract of the survivor-view collectives
//! (`simnet::coll::{Membership, *_over}`):
//!
//! 1. a collective scheduled over the survivor view routes *around* a
//!    crashed interior relay: every surviving member completes with a
//!    payload bit-identical to a healthy run over the same member set —
//!    no `PeerLost` cascade, no lost contributions;
//! 2. reruns under identical fault plans are bit-identical;
//! 3. ranks outside the view are rejected structurally
//!    (`CollError::NotAMember`) before any traffic.

use heterospec::simnet::engine::{Ctx, Engine, WireVec};
use heterospec::simnet::{
    coll, presets, CollAlgorithm, CollError, CollectiveConfig, FailureCause, FaultPlan, Membership,
    RunReport,
};
use testutil::engine_with;

const P: usize = 16;
const PAYLOAD: usize = 512;

/// The post-crash view: rank 4 — segment 1's leader in the
/// segment-hierarchical tree of [`presets::fully_heterogeneous`], the
/// relay for ranks 5..=7 — has been observed dead, so the epoch is 1.
fn survivor_view() -> Membership {
    let survivors: Vec<usize> = (0..P).filter(|&r| r != 4).collect();
    Membership::from_survivors(1, P, &survivors)
}

fn cfg() -> CollectiveConfig {
    CollectiveConfig::uniform(CollAlgorithm::SegmentHierarchical)
}

/// Root broadcast of a recognizable payload over the survivor view.
/// Rank 4 plays the crashed relay: under a fault plan it burns compute
/// until the scheduled crash kills it; in the healthy baseline it just
/// exits without participating.
fn broadcast_survivors(engine: &Engine) -> RunReport<Option<Vec<f32>>> {
    engine.run(|ctx: &mut Ctx<WireVec<f32>>| {
        if ctx.rank() == 4 {
            if ctx.fault_plan().crash_time(4).is_some() {
                ctx.compute_par(1e9); // run into the scheduled crash
            }
            return None;
        }
        let view = survivor_view();
        let msg = ctx
            .is_root()
            .then(|| WireVec((0..PAYLOAD).map(|i| i as f32 * 0.5).collect()));
        let got = coll::broadcast_over(ctx, &cfg(), 0, &view, msg, (PAYLOAD * 32) as u64)
            .expect("surviving members complete the broadcast");
        Some(got.0)
    })
}

/// Elementwise-sum allreduce of per-rank contributions over the
/// survivor view; same rank-4 arrangement as [`broadcast_survivors`].
fn allreduce_survivors(engine: &Engine) -> RunReport<Option<Vec<f32>>> {
    engine.run(|ctx: &mut Ctx<WireVec<f32>>| {
        if ctx.rank() == 4 {
            if ctx.fault_plan().crash_time(4).is_some() {
                ctx.compute_par(1e9);
            }
            return None;
        }
        let view = survivor_view();
        let own = WireVec(vec![(ctx.rank() + 1) as f32; PAYLOAD]);
        let got = coll::allreduce_over(
            ctx,
            &cfg(),
            0,
            &view,
            own,
            |a, b| WireVec(a.0.iter().zip(&b.0).map(|(x, y)| x + y).collect()),
            (PAYLOAD * 32) as u64,
        )
        .expect("surviving members complete the allreduce");
        Some(got.0)
    })
}

fn crashed_engine() -> Engine {
    // 0.003 s lands mid-broadcast on this platform: headers are out,
    // the tree is streaming.
    engine_with(FaultPlan::new().crash(4, 0.003))
}

#[test]
fn broadcast_over_routes_around_a_dead_interior_relay() {
    let healthy = broadcast_survivors(&Engine::new(presets::fully_heterogeneous()));
    let crashed = broadcast_survivors(&crashed_engine());
    assert!(!crashed.ok());
    let f = crashed.failure_of(4).expect("rank 4 crash recorded");
    assert_eq!(f.cause, FailureCause::Crash);
    for r in (0..P).filter(|&r| r != 4) {
        assert_eq!(
            crashed.result(r),
            healthy.result(r),
            "rank {r}: survivor payload must match the healthy run over the same member set"
        );
        assert!(crashed.failure_of(r).is_none(), "no PeerLost cascade");
    }
    let again = broadcast_survivors(&crashed_engine());
    assert_eq!(crashed, again, "crash-plan rerun drift");
}

#[test]
fn allreduce_over_keeps_every_survivor_contribution() {
    let healthy = allreduce_survivors(&Engine::new(presets::fully_heterogeneous()));
    let crashed = allreduce_survivors(&crashed_engine());
    // Exactly the survivor contributions, summed: ranks 0..16 minus 4
    // contribute rank+1 each ⇒ Σ = 136 − 5.
    let want = vec![131.0f32; PAYLOAD];
    for r in (0..P).filter(|&r| r != 4) {
        assert_eq!(
            crashed.result(r).as_deref(),
            Some(want.as_slice()),
            "rank {r}: allreduce must fold all 15 survivor contributions"
        );
        assert_eq!(crashed.result(r), healthy.result(r), "rank {r}");
    }
    let again = allreduce_survivors(&crashed_engine());
    assert_eq!(crashed, again, "crash-plan rerun drift");
}

#[test]
fn non_members_are_rejected_before_any_traffic() {
    let report = Engine::new(presets::fully_heterogeneous()).run(|ctx: &mut Ctx<WireVec<f32>>| {
        let view = survivor_view();
        let msg = ctx.is_root().then(|| WireVec(vec![1.0f32; 8]));
        let out = coll::broadcast_over(ctx, &cfg(), 0, &view, msg, 8 * 32);
        match out {
            Ok(v) => (true, v.0.len()),
            Err(CollError::NotAMember { rank }) => (false, rank),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    });
    assert_eq!(*report.result(4), (false, 4), "rank 4 is outside the view");
    for r in (0..P).filter(|&r| r != 4) {
        assert_eq!(*report.result(r), (true, 8), "rank {r} completes");
    }
}
