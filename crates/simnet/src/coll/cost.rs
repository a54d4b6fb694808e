//! Analytic cost model for collective schedules.
//!
//! [`predict`] replays a collective's communication schedule over the
//! platform model *arithmetically* — the same per-message sender latency
//! and `transfer_secs` link charges the engine applies, each message
//! charged by the call the engine makes ([`crate::contention::charge`],
//! on a ledger of the replay's own), in the same program order — and
//! returns the virtual time at which the last rank finishes. For a
//! healthy (fault-free) run rooted at rank 0 that starts with aligned
//! clocks, the prediction equals the engine's measured virtual time
//! exactly; this is what lets the `Auto` selector guarantee it never
//! picks a strictly-dominated algorithm (asserted by the
//! `ablation_collectives` gate).
//!
//! Fault plans are not replayed (predictions assume nominal link and
//! processor speeds), and for roots other than rank 0 the receiver-side
//! FIFO interleaving at rank 0 is not replayed (no algorithm in this
//! repository roots a collective away from rank 0).

use super::schedule::{self, Tree};
use super::{split_chunks, CollAlgorithm, CollOp, PIPELINE_CHUNKS};
use crate::contention::{charge, LinkLedger};
use crate::faults::FaultPlan;
use crate::platform::Platform;

/// Predicted virtual completion time (seconds) of one collective of
/// `bits` payload bits under `algorithm` (which must be concrete, not
/// [`CollAlgorithm::Auto`]), rooted at `root`, with all rank clocks at
/// zero. `latency_s` is the per-message sender overhead; a
/// [`CollAlgorithm::PipelinedChunked`] broadcast streams in
/// [`PIPELINE_CHUNKS`] chunks. A [`CollOp::Scatter`] is priced as the
/// broadcast of `bits` down the same tree: under
/// [`CollAlgorithm::Linear`], the one schedule a scatter runs, that is a
/// scatter of `bits`-sized items.
///
/// # Panics
/// On [`CollAlgorithm::Auto`] with more than one rank: resolve it first.
pub fn predict(
    platform: &Platform,
    latency_s: f64,
    op: CollOp,
    algorithm: CollAlgorithm,
    root: usize,
    bits: u64,
) -> f64 {
    // Unreachable from this workspace: `coll::resolve` prices only
    // `choose`'s candidates and its result, all concrete, and every other
    // caller (the chaos oracle, the tests) names a concrete algorithm.
    debug_assert!(
        algorithm != CollAlgorithm::Auto,
        "predict: resolve Auto first"
    );
    if platform.num_procs() <= 1 {
        return 0.0;
    }
    let mut replay = Replay {
        platform,
        latency_s,
        tree: &schedule::build(algorithm, root, platform),
        faults: FaultPlan::new(),
        links: LinkLedger::new(),
    };
    let chunks = if algorithm == CollAlgorithm::PipelinedChunked && op == CollOp::Broadcast {
        split_chunks(bits, PIPELINE_CHUNKS as usize)
    } else {
        vec![bits]
    };
    let clocks = match op {
        CollOp::Broadcast | CollOp::Scatter => {
            replay.down(vec![0.0; platform.num_procs()], &chunks)
        }
        CollOp::Gather => replay.up(bits, false),
        // Fused: a folding upward phase, then the broadcast's downward
        // phase from the clocks it left, over the **same** tree and
        // ledger — the root's downward sends reserve the serial links
        // *after* its upward receives, exactly the engine's program order
        // at rank 0. The fold itself is free (host-side), so a
        // size-preserving fold makes this exact.
        CollOp::Allreduce => {
            let folded = replay.up(bits, true);
            replay.down(folded, &chunks)
        }
    };
    clocks.into_iter().fold(0.0, f64::max)
}

/// One schedule being replayed: the tree, the link ledger its messages
/// share, and the plan they are charged under — empty until ROADMAP 1d
/// hands in the run's.
struct Replay<'a> {
    platform: &'a Platform,
    latency_s: f64,
    tree: &'a Tree,
    faults: FaultPlan,
    links: LinkLedger,
}

impl Replay<'_> {
    /// The upward phase (gather, allreduce) from aligned clocks, children
    /// before parents: a relay receives every message of each
    /// gather-order child's subtree, then relays them (one message per
    /// subtree rank — or a single folded partial when `reduce`) to its
    /// parent. Messages to the root are charged in its receive order,
    /// matching the engine's lazy resolve. Returns every rank's clock.
    fn up(&mut self, bits: u64, reduce: bool) -> Vec<f64> {
        let (platform, faults, links) = (self.platform, &self.faults, &mut self.links);
        // When each message to a parent was sent, and each rank's run of them.
        let mut sent: Vec<f64> = Vec::new();
        let mut runs = vec![0..0; platform.num_procs()];
        let mut clocks = vec![0.0f64; platform.num_procs()];
        for r in self.tree.postorder_gather() {
            let mut clock = 0.0f64;
            for &child in self.tree.children_gather(r) {
                let dur = platform.transfer_secs(child, r, bits);
                for &sent_at in &sent[runs[child].clone()] {
                    let landed = charge(platform, faults, || &mut *links, child, r, sent_at, dur);
                    clock = clock.max(landed.arrival);
                }
            }
            if self.tree.parent(r).is_some() {
                let first = sent.len();
                let n_msgs = if reduce { 1 } else { self.tree.subtree_size(r) };
                for _ in 0..n_msgs {
                    clock += self.latency_s;
                    sent.push(clock);
                }
                runs[r] = first..sent.len();
            }
            clocks[r] = clock;
        }
        clocks
    }

    /// The downward phase (broadcast) from the given clocks: each node
    /// receives chunk `c` from its parent, then forwards it to every
    /// broadcast-order child before receiving chunk `c + 1` — which is
    /// exactly the pipelining the executor implements. Returns every
    /// rank's clock.
    fn down(&mut self, mut clocks: Vec<f64>, chunks: &[u64]) -> Vec<f64> {
        let (platform, faults, links) = (self.platform, &self.faults, &mut self.links);
        // Chunk `c` lands at rank `r` at `arrivals[r * chunks.len() + c]`.
        let mut arrivals = vec![0.0f64; clocks.len() * chunks.len()];
        for r in self.tree.preorder_bcast() {
            let mut clock = clocks[r];
            for (c, &chunk_bits) in chunks.iter().enumerate() {
                if r != self.tree.root() {
                    clock = clock.max(arrivals[r * chunks.len() + c]);
                }
                for &child in self.tree.children_bcast(r) {
                    clock += self.latency_s;
                    let dur = platform.transfer_secs(r, child, chunk_bits);
                    let landed = charge(platform, faults, || &mut *links, r, child, clock, dur);
                    arrivals[child * chunks.len() + c] = landed.arrival;
                }
            }
            clocks[r] = clock;
        }
        clocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::DEFAULT_MSG_LATENCY_S;
    use crate::presets;

    const L: f64 = DEFAULT_MSG_LATENCY_S;

    #[test]
    fn single_rank_costs_nothing() {
        let platform = crate::platform::Platform::uniform("one", 1, 0.01, 64, 1.0);
        for alg in [
            CollAlgorithm::Linear,
            CollAlgorithm::BinomialTree,
            CollAlgorithm::SegmentHierarchical,
        ] {
            assert_eq!(
                predict(&platform, L, CollOp::Broadcast, alg, 0, 1_000_000),
                0.0
            );
        }
    }

    #[test]
    fn linear_broadcast_cost_on_uniform_platform() {
        // 4 ranks, 10 ms/Mbit, 1 Mbit: root pays 3 latencies; transfers
        // overlap (single switched segment, no FIFO): last arrival is
        // 3L + 0.01.
        let platform = crate::platform::Platform::uniform("u4", 4, 0.01, 64, 10.0);
        let t = predict(
            &platform,
            L,
            CollOp::Broadcast,
            CollAlgorithm::Linear,
            0,
            1_000_000,
        );
        assert!((t - (3.0 * L + 0.01)).abs() < 1e-12, "got {t}");
    }

    #[test]
    fn linear_gather_cost_on_uniform_platform() {
        // Every worker sends at its own L; transfers overlap; the root's
        // clock ends at the last arrival L + 0.01.
        let platform = crate::platform::Platform::uniform("u4", 4, 0.01, 64, 10.0);
        let t = predict(
            &platform,
            L,
            CollOp::Gather,
            CollAlgorithm::Linear,
            0,
            1_000_000,
        );
        assert!((t - (L + 0.01)).abs() < 1e-12, "got {t}");
    }

    #[test]
    fn hierarchical_beats_linear_broadcast_on_heterogeneous_network() {
        // The ISSUE gate, at the model level: an endmember-matrix-sized
        // payload (18 × 224 × 32 bits) on the paper's fully heterogeneous
        // network.
        let platform = presets::fully_heterogeneous();
        let bits = 18 * 224 * 32;
        let lin = predict(
            &platform,
            L,
            CollOp::Broadcast,
            CollAlgorithm::Linear,
            0,
            bits,
        );
        let hier = predict(
            &platform,
            L,
            CollOp::Broadcast,
            CollAlgorithm::SegmentHierarchical,
            0,
            bits,
        );
        assert!(
            hier < lin,
            "hierarchical {hier} must beat linear {lin} on fully_heterogeneous"
        );
    }

    #[test]
    fn hierarchical_equals_linear_on_single_segment() {
        let platform = presets::partially_heterogeneous();
        for op in [CollOp::Broadcast, CollOp::Gather] {
            let lin = predict(&platform, L, op, CollAlgorithm::Linear, 0, 129_024);
            let hier = predict(
                &platform,
                L,
                op,
                CollAlgorithm::SegmentHierarchical,
                0,
                129_024,
            );
            assert!(
                (lin - hier).abs() < 1e-12,
                "{op:?}: single-segment hierarchical ({hier}) == linear ({lin})"
            );
        }
    }

    #[test]
    fn binomial_broadcast_wins_at_small_sizes_on_uniform_platform() {
        // Latency-dominated regime: log-depth beats the root's P−1
        // serialized send overheads.
        let platform = crate::platform::Platform::uniform("u16", 16, 0.01, 64, 1.0);
        let lin = predict(
            &platform,
            L,
            CollOp::Broadcast,
            CollAlgorithm::Linear,
            0,
            64,
        );
        let bin = predict(
            &platform,
            L,
            CollOp::Broadcast,
            CollAlgorithm::BinomialTree,
            0,
            64,
        );
        assert!(bin < lin, "binomial {bin} < linear {lin} for tiny payloads");
    }

    #[test]
    fn fused_allreduce_beats_gather_plus_broadcast_on_heterogeneous_network() {
        // The PR 4 gate at the model level: one candidate-sized payload
        // folded up and fanned back down a single tree must beat a full
        // linear gather followed by a full linear broadcast.
        let platform = presets::fully_heterogeneous();
        let bits = (32 + 32 + 64 + 224 * 32) as u64; // one scored candidate
        let split = predict(&platform, L, CollOp::Gather, CollAlgorithm::Linear, 0, bits)
            + predict(
                &platform,
                L,
                CollOp::Broadcast,
                CollAlgorithm::Linear,
                0,
                bits,
            );
        for alg in [
            CollAlgorithm::BinomialTree,
            CollAlgorithm::SegmentHierarchical,
        ] {
            let fused = predict(&platform, L, CollOp::Allreduce, alg, 0, bits);
            assert!(
                fused < split,
                "{alg}: fused {fused} must beat split gather+bcast {split}"
            );
        }
    }

    #[test]
    fn allreduce_single_segment_hierarchical_equals_linear() {
        let platform = presets::partially_heterogeneous();
        let lin = predict(
            &platform,
            L,
            CollOp::Allreduce,
            CollAlgorithm::Linear,
            0,
            7_296,
        );
        let hier = predict(
            &platform,
            L,
            CollOp::Allreduce,
            CollAlgorithm::SegmentHierarchical,
            0,
            7_296,
        );
        assert!((lin - hier).abs() < 1e-12, "lin {lin} vs hier {hier}");
    }

    #[test]
    fn allreduce_is_at_least_the_broadcast_cost() {
        for platform in presets::four_networks() {
            for alg in [
                CollAlgorithm::Linear,
                CollAlgorithm::BinomialTree,
                CollAlgorithm::SegmentHierarchical,
            ] {
                let bcast = predict(&platform, L, CollOp::Broadcast, alg, 0, 7_296);
                let all = predict(&platform, L, CollOp::Allreduce, alg, 0, 7_296);
                assert!(
                    all >= bcast - 1e-15,
                    "{}/{alg}: allreduce {all} < broadcast {bcast}",
                    platform.name()
                );
            }
        }
    }

    #[test]
    fn pipelined_chunks_queue_on_one_serial_hop() {
        // Root and one worker on two segments: every chunk crosses the
        // same serial link, each chunk outlasts a send latency, so the
        // chunks queue FIFO back to back and the pipelined broadcast
        // lands exactly when the unchunked one does.
        let node = |segment| crate::platform::ProcessorSpec {
            name: format!("n{segment}"),
            arch: "test",
            cycle_time: 0.01,
            memory_mb: 64,
            cache_kb: 64,
            segment,
            device: None,
        };
        let platform = crate::platform::Platform::new(
            "hop",
            vec![node(0), node(1)],
            vec![vec![0.0, 10.0], vec![10.0, 0.0]],
        );
        let bits = 129_024;
        assert!(platform.transfer_secs(0, 1, bits / u64::from(PIPELINE_CHUNKS)) > L);
        let piped = predict(
            &platform,
            L,
            CollOp::Broadcast,
            CollAlgorithm::PipelinedChunked,
            0,
            bits,
        );
        let hier = predict(
            &platform,
            L,
            CollOp::Broadcast,
            CollAlgorithm::SegmentHierarchical,
            0,
            bits,
        );
        assert!(
            (piped - hier).abs() < 1e-12,
            "pipelined {piped} vs hierarchical {hier}"
        );
    }
}
