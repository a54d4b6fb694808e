//! Zero-copy shared payloads: `Arc`-backed wire messages must be
//! *invisible* to the simulation. A run whose payloads travel as
//! `Arc<M>` refcount bumps must be bit-identical — ledgers, virtual
//! times, payload contents, and the recorded collective-choice log — to
//! the same run shipping owned `M` values, on every network shape and
//! rank count. Only the host-side copy telemetry (`CopyStats`, excluded
//! from the report's `PartialEq` contract) may differ. That telemetry
//! reports what each payload type's `Wire::deep_copy_bits` declares, so
//! the sharing itself is checked by pointer identity: after a broadcast
//! of a `Msg::Delta`, every rank holds the root's body, not a copy.

use heterospec::hetero::msg::Msg;
use heterospec::simnet::engine::{Ctx, Engine, WireVec};
use heterospec::simnet::{coll, presets, CollAlgorithm, CollectiveConfig, Platform, Wire};
use proptest::prelude::*;
use std::sync::Arc;
use testutil::{random_platform as platform, BACKENDS, RANK_COUNTS};

/// Broadcasts `words` u32s from rank 0 with an **owned** payload,
/// returning the run report (results are each rank's received payload).
fn broadcast_owned(
    platform: &Platform,
    backend: CollAlgorithm,
    words: usize,
) -> heterospec::simnet::RunReport<Vec<u32>> {
    let cfg = CollectiveConfig::uniform(backend);
    let engine = Engine::new(platform.clone());
    let bits = (words * 32) as u64;
    engine.run(move |ctx| {
        let msg = ctx
            .is_root()
            .then(|| WireVec((0..words as u32).collect::<Vec<u32>>()));
        coll::broadcast(ctx, &cfg, 0, msg, bits)
            .expect("valid broadcast")
            .0
    })
}

/// The same broadcast with the payload behind an `Arc`.
fn broadcast_shared(
    platform: &Platform,
    backend: CollAlgorithm,
    words: usize,
) -> heterospec::simnet::RunReport<Vec<u32>> {
    let cfg = CollectiveConfig::uniform(backend);
    let engine = Engine::new(platform.clone());
    let bits = (words * 32) as u64;
    let payload: Arc<WireVec<u32>> = Arc::new(WireVec((0..words as u32).collect()));
    engine.run(move |ctx| {
        let msg = ctx.is_root().then(|| Arc::clone(&payload));
        coll::broadcast(ctx, &cfg, 0, msg, bits)
            .expect("valid broadcast")
            .0
            .clone()
    })
}

#[test]
fn arc_wire_size_matches_pointee_and_deep_copies_nothing() {
    let m = WireVec((0..300u32).collect::<Vec<u32>>());
    let shared = Arc::new(m.clone());
    assert_eq!(shared.size_bits(), m.size_bits());
    assert_eq!(m.deep_copy_bits(), m.size_bits(), "owned Vec deep-copies");
    assert_eq!(shared.deep_copy_bits(), 0, "Arc clone is a refcount bump");

    let slab: Arc<[f32]> = vec![0.0f32; 128].into();
    assert_eq!(slab.size_bits(), 128 * 32);
    assert_eq!(slab.deep_copy_bits(), 0);
}

#[test]
fn shared_broadcast_is_bit_identical_on_the_paper_networks() {
    for network in presets::four_networks() {
        for backend in BACKENDS {
            let owned = broadcast_owned(&network, backend, 300);
            let shared = broadcast_shared(&network, backend, 300);
            // `RunReport::eq` covers ledgers, results, total_time and
            // the collective-choice log; copy telemetry is excluded by
            // contract.
            assert_eq!(
                owned,
                shared,
                "owned vs shared diverged under {backend} on {}",
                network.name()
            );
            assert_eq!(owned.collectives, shared.collectives);
            // Every schedule, chunked ones included: the fan-out sites
            // are counted, owned bodies copy at them, shared ones don't.
            assert!(owned.copies.bytes_deep_copied > 0, "{backend}");
            assert_eq!(shared.copies.bytes_deep_copied, 0, "{backend}");
        }
    }
}

#[test]
fn shared_broadcast_is_bit_identical_across_rank_counts() {
    for p in RANK_COUNTS {
        let platform = platform(p);
        for backend in BACKENDS {
            let owned = broadcast_owned(&platform, backend, 97);
            let shared = broadcast_shared(&platform, backend, 97);
            assert_eq!(owned, shared, "{backend} diverged at p={p}");
            for r in 0..p {
                assert_eq!(
                    owned.result(r),
                    shared.result(r),
                    "payload drift at rank {r}, p={p}"
                );
            }
        }
    }
}

/// Broadcasts a `Msg::Delta` of `words` u32s from rank 0 under
/// `backend` and returns the address of the root's body with the address
/// of the body each rank holds afterwards. The root's body outlives the
/// run, so no copy can be allocated at its address.
fn delta_body_addresses(
    platform: &Platform,
    backend: CollAlgorithm,
    words: usize,
) -> (usize, Vec<Option<usize>>) {
    let cfg = CollectiveConfig::uniform(backend);
    let bits = (words * 32) as u64;
    let body = Arc::new(WireVec((0..words as u32).collect::<Vec<u32>>()));
    let report = Engine::new(platform.clone()).run(|ctx: &mut Ctx<Msg<(), WireVec<u32>>>| {
        let msg = ctx.is_root().then(|| Msg::Delta(Arc::clone(&body)));
        let delta = coll::broadcast(ctx, &cfg, 0, msg, bits)
            .expect("valid broadcast")
            .into_delta()
            .expect("a delta arrives");
        Arc::as_ptr(&delta) as usize
    });
    (Arc::as_ptr(&body) as usize, report.results)
}

#[test]
fn every_rank_of_a_delta_broadcast_holds_the_roots_body() {
    for network in presets::four_networks() {
        for backend in BACKENDS {
            let (root, held) = delta_body_addresses(&network, backend, 300);
            for (r, address) in held.iter().enumerate() {
                assert_eq!(
                    *address,
                    Some(root),
                    "{backend} on {}: rank {r} holds a copy",
                    network.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any payload size × backend × rank count: the shared-payload run
    /// replays the owned-payload run exactly, never deep-copies, and a
    /// delta broadcast leaves every rank holding the root's body.
    #[test]
    fn shared_equals_owned_for_any_payload(
        words in 1usize..600,
        backend_index in 0usize..BACKENDS.len(),
        p in 2usize..17,
    ) {
        let backend = BACKENDS[backend_index];
        let platform = platform(p);
        let owned = broadcast_owned(&platform, backend, words);
        let shared = broadcast_shared(&platform, backend, words);
        prop_assert_eq!(&owned, &shared);
        prop_assert_eq!(shared.copies.bytes_deep_copied, 0);
        prop_assert!((owned.total_time - shared.total_time).abs() == 0.0);
        let (root, held) = delta_body_addresses(&platform, backend, words);
        prop_assert!(held.iter().all(|&address| address == Some(root)));
    }
}
