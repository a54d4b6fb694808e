//! Zero-copy shared payloads: `Arc`-backed wire messages must be
//! *invisible* to the simulation. A run whose payloads travel as
//! `Arc<M>` refcount bumps must be bit-identical — ledgers, virtual
//! times, payload contents, and the recorded collective-choice log — to
//! the same run shipping owned `M` values, on every network shape and
//! rank count. Only the host-side copy telemetry (`CopyStats`, excluded
//! from the report's `PartialEq` contract) may differ: owned payloads
//! deep-copy at every fan-out clone, shared ones never do.

use heterospec::hetero::config::RunOptions;
use heterospec::hetero::par;
use heterospec::simnet::engine::{Engine, WireVec};
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
            assert!(shared.copies.bytes_owned_baseline > 0, "{backend}");
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

#[test]
fn owned_fanouts_copy_the_baseline_and_shared_fanouts_copy_nothing() {
    for network in presets::four_networks() {
        for backend in [CollAlgorithm::Linear, CollAlgorithm::BinomialTree] {
            let owned = broadcast_owned(&network, backend, 300);
            let shared = broadcast_shared(&network, backend, 300);
            // Owned payloads: every tracked fan-out clone deep-copies
            // the full message, so measured == baseline, and a 16-rank
            // tree definitely fans out.
            assert!(owned.copies.bytes_owned_baseline > 0);
            assert_eq!(
                owned.copies.bytes_deep_copied, owned.copies.bytes_owned_baseline,
                "owned run must copy exactly the baseline ({backend})"
            );
            assert!(owned.copies.allocs_on_hot_path > 0);
            // Shared payloads: same schedule (same baseline), zero
            // deep copies.
            assert_eq!(
                shared.copies.bytes_owned_baseline,
                owned.copies.bytes_owned_baseline
            );
            assert_eq!(shared.copies.bytes_deep_copied, 0, "{backend}");
            assert_eq!(shared.copies.allocs_on_hot_path, 0, "{backend}");
        }
    }
}

/// ATDCA and UFCLS end to end on the paper's networks: with the
/// `Arc`-backed message bodies a run deep-copies at most half of what
/// owned bodies would have copied at the same fan-out sites, and that
/// baseline is not trivially zero. The counters are a function of the
/// platform model and the payload types only, so this holds or fails
/// identically on any host.
#[test]
fn detectors_deep_copy_at_most_half_their_owned_baseline() {
    let scene = testutil::tiny_scene();
    let (params, options) = (testutil::params(6, 2), RunOptions::hetero());
    for network in presets::four_networks() {
        let engine = Engine::new(network);
        for report in [
            par::atdca::run(&engine, &scene.cube, &params, &options).report,
            par::ufcls::run(&engine, &scene.cube, &params, &options).report,
        ] {
            let (copied, baseline) = (
                report.copies.bytes_deep_copied,
                report.copies.bytes_owned_baseline,
            );
            assert!(
                baseline > 0 && 2 * copied <= baseline,
                "on {}: deep-copied {copied} B of a {baseline} B baseline",
                report.platform_name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any payload size × backend × rank count: the shared-payload run
    /// replays the owned-payload run exactly, and never deep-copies.
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
    }
}
