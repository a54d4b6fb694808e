//! Master/worker plumbing shared by the four parallel algorithms.
//!
//! The root (rank 0) also acts as a worker on its own partition, as in
//! the paper's setup (16 processors, 16 partitions); its extra duties —
//! WEA, candidate selection, eigendecomposition, set merging — are the
//! SEQ component of Table 6.

use crate::config::{PartitionStrategy, RunOptions};
use crate::msg::{Candidate, Msg};
use crate::par::{best_candidate, better_candidate};
use crate::wea::{self, RowAssignment, RowCost};
use hsi_cube::{HyperCube, LabelImage};
use simnet::coll::{self, CollAlgorithm, CollectiveConfig, GatherEntry, ScatterMode};
use simnet::engine::Engine;
use simnet::report::RunReport;
use simnet::Ctx;

/// A rank's local share of the image.
#[derive(Debug, Clone)]
pub struct LocalBlock {
    /// First global line owned by this rank.
    pub first_line: usize,
    /// Number of owned lines (may be zero on tiny images).
    pub n_lines: usize,
    /// Halo lines prepended before the owned region.
    pub pre: usize,
    /// The block, halo included. On the host it is a window on the
    /// root's image (shared storage, nothing copied; a write would copy
    /// the window out first), while the virtual network was charged the
    /// block's full size for shipping it.
    pub cube: HyperCube,
}

impl LocalBlock {
    /// Local line range of the **owned** region, `(lo, hi)`.
    pub fn own_range(&self) -> (usize, usize) {
        (self.pre, self.pre + self.n_lines)
    }
}

/// Computes workload fractions for a strategy.
pub fn plan_fractions(
    platform: &simnet::Platform,
    strategy: PartitionStrategy,
    cost: RowCost,
) -> Vec<f64> {
    match strategy {
        PartitionStrategy::Heterogeneous(cfg) => wea::hetero_fractions(platform, cost, cfg),
        PartitionStrategy::Homogeneous => wea::homo_fractions(platform),
    }
}

/// Computes the per-rank row assignments for a run. When the scatter is
/// free (pre-staged data), the WEA sees zero staging cost per row and
/// reduces to pure speed proportionality.
pub fn plan_assignments(
    platform: &simnet::Platform,
    cube: &HyperCube,
    options: &RunOptions,
    mut cost: RowCost,
) -> Vec<RowAssignment> {
    if options.scatter_mode == ScatterMode::Free {
        cost.mbits_per_row = 0.0;
    }
    let row_bytes = cube.samples() * cube.bands() * 4;
    // With offloading enabled, partition against *effective* node
    // speeds: a device-bearing node that would offload an even-split
    // partition reads proportionally faster, so the WEA hands it more
    // rows. The engine still runs on the real platform — only fraction
    // computation sees the folded speeds (memory bounds are unchanged).
    let effective;
    let platform = if options.offload == crate::offload::OffloadPolicy::Never {
        platform
    } else {
        let rep_lines = cube.lines().div_ceil(platform.num_procs().max(1)).max(1);
        let rep = crate::offload::ChunkCost::new(
            cost.mflops_per_row * rep_lines as f64 + cost.fixed_mflops,
            ((rep_lines * row_bytes) as u64, 0),
        );
        effective = crate::offload::effective_platform(platform, options.offload, &rep);
        &effective
    };
    let fractions = plan_fractions(platform, options.strategy, cost);
    let cfg = match options.strategy {
        PartitionStrategy::Heterogeneous(cfg) => cfg,
        PartitionStrategy::Homogeneous => wea::WeaConfig {
            respect_memory: false,
            ..Default::default()
        },
    };
    wea::assignments(platform, cube.lines(), row_bytes, &fractions, cfg)
        .expect("platform memory cannot hold the image")
}

/// Algorithm 2/3/4/5 step 1: the root carves the image into partitions
/// (optionally with overlap halos) and ships them; every rank returns
/// its [`LocalBlock`].
///
/// The `cube` reference is only dereferenced on the root, mirroring the
/// real system where only the master holds the full image. Each
/// partition is a window on `cube`'s storage: the scatter charges the
/// virtual network every bit of every block, and the host holds the
/// image once however many ranks there are.
pub fn distribute(
    ctx: &mut Ctx<Msg>,
    cube: &HyperCube,
    assignments: &[RowAssignment],
    overlap: usize,
    mode: ScatterMode,
) -> LocalBlock {
    assert_eq!(assignments.len(), ctx.num_ranks());
    let items = if ctx.is_root() {
        Some(
            assignments
                .iter()
                .map(|a| {
                    let (block, pre) =
                        cube.extract_lines_with_overlap(a.first_line, a.n_lines, overlap);
                    Msg::partition(a.first_line, a.n_lines, pre, block)
                })
                .collect(),
        )
    } else {
        None
    };
    let (first_line, n_lines, pre, cube) = coll::scatter(ctx, 0, items, mode)
        .expect("distribute: scatter misuse")
        .into_partition()
        .expect("distribute: protocol violation");
    LocalBlock {
        first_line,
        n_lines,
        pre,
        cube,
    }
}

/// Final step of the classification algorithms: every rank sends the
/// labels of its owned lines; the root assembles the full label image.
/// Contributions of failed ranks are skipped, leaving their lines
/// unlabeled (an explicit hole rather than an abort).
pub fn gather_labels(
    ctx: &mut Ctx<Msg>,
    cfg: &CollectiveConfig,
    block: &LocalBlock,
    labels: Vec<u16>,
    image_lines: usize,
    image_samples: usize,
) -> Option<LabelImage> {
    assert_eq!(labels.len(), block.n_lines * image_samples);
    // Rank-uniform size hint (drives `Auto` selection only): every rank
    // carries ~lines/P owned lines of u16 labels.
    let bits = 32 + (image_lines.div_ceil(ctx.num_ranks()) * image_samples * 16) as u64;
    let msg = Msg::Labels {
        first_line: block.first_line as u32,
        labels,
    };
    coll::gather(ctx, cfg, 0, msg, bits).map(|entries| {
        let mut out = LabelImage::unlabeled(image_lines, image_samples);
        for msg in entries.into_iter().filter_map(GatherEntry::into_msg) {
            let (first, labs) = msg
                .into_labels()
                .expect("gather_labels: protocol violation");
            for (i, &l) in labs.iter().enumerate() {
                out.set(first + i / image_samples, i % image_samples, l);
            }
        }
        out
    })
}

/// Outcome of a parallel run: the root's result plus the timing report.
#[derive(Debug, Clone)]
pub struct ParallelRun<T> {
    /// The analysis result (targets or label image).
    pub result: T,
    /// Timing/imbalance report of the run.
    pub report: RunReport<()>,
}

/// Runs `program` on the engine and extracts the root's result.
///
/// # Panics
/// Panics if the root's closure returns `None`.
pub fn run_rooted<T: Send>(
    engine: &Engine,
    program: impl Fn(&mut Ctx<Msg>) -> Option<T> + Sync,
) -> ParallelRun<T> {
    let (result, report) = engine.run(program).into_root();
    ParallelRun {
        result: result
            .unwrap_or_else(|| panic!("root produced no result (failures: {:?})", report.failures)),
        report,
    }
}

/// Megabits needed to stage one image row (the WEA staging term).
pub fn row_mbits(cube: &HyperCube) -> f64 {
    (cube.samples() * cube.bands() * 32) as f64 / 1.0e6
}

/// One ATDCA/UFCLS winner-selection round: every rank contributes its
/// local `candidate`; every rank returns the round's global winner.
///
/// Two schedules, selected by `options.collectives.allreduce`:
///
/// * `Linear` (the default) — the legacy split path, bit- and
///   timing-identical to the historic code: gather `Msg::Candidate`s to
///   the root, re-score there (`rescore_flops` per surviving candidate,
///   charged sequential), broadcast the winning spectrum. Workers get a
///   zero-coordinate stand-in carrying the winning spectrum, exactly as
///   the historic per-algorithm code built it. When
///   `options.bcast_overlap` is set, the broadcast goes through
///   [`coll::broadcast_overlap`] and `post_mflops` is charged in
///   per-chunk slices as endmember bytes arrive.
/// * any tree algorithm — one fused [`coll::allreduce`] over the
///   candidates with the [`better_candidate`] fold. Scores travel with
///   the candidates, so the master re-scoring pass disappears and every
///   rank (workers included) learns the winner's real coordinates in a
///   single tree traversal. `post_mflops` is charged whole after the
///   collective: chunk overlap does not compose with the fused schedule
///   (see docs/COMMS.md).
///
/// `post_mflops` is the round's follow-up parallel compute (ATDCA's
/// basis growth, UFCLS's next-round Gram rebuild); pass `0.0` for none.
pub(crate) fn select_winner(
    ctx: &mut Ctx<Msg>,
    options: &RunOptions,
    candidate: Candidate,
    cand_bits: u64,
    u_row_bits: u64,
    rescore_flops: f64,
    post_mflops: f64,
) -> Candidate {
    if options.collectives.allreduce != CollAlgorithm::Linear {
        let winner = coll::allreduce(
            ctx,
            &options.collectives,
            0,
            Msg::candidate(candidate),
            |a, b| {
                Msg::candidate(better_candidate(
                    a.into_candidate()
                        .expect("select_winner: protocol violation"),
                    b.into_candidate()
                        .expect("select_winner: protocol violation"),
                ))
            },
            cand_bits,
        )
        .into_candidate()
        .expect("select_winner: protocol violation");
        if post_mflops > 0.0 {
            ctx.compute_par(post_mflops);
        }
        return winner;
    }
    let best = coll::gather(
        ctx,
        &options.collectives,
        0,
        Msg::candidate(candidate),
        cand_bits,
    )
    .map(|entries| {
        let cands: Vec<Candidate> = entries
            .into_iter()
            .filter_map(GatherEntry::into_msg)
            .map(|m| {
                m.into_candidate()
                    .expect("select_winner: protocol violation")
            })
            .collect();
        ctx.compute_seq(crate::flops::mflop(rescore_flops * cands.len() as f64));
        best_candidate(cands)
    });
    let selected = best
        .as_ref()
        .map(|b| Msg::spectra(vec![b.spectrum.clone()]));
    let delivered = if options.bcast_overlap {
        coll::broadcast_overlap(
            ctx,
            &options.collectives,
            0,
            selected,
            u_row_bits,
            |ctx, _chunk, k| {
                if post_mflops > 0.0 {
                    ctx.compute_par(post_mflops / k as f64);
                }
            },
        )
    } else {
        let d = coll::broadcast(ctx, &options.collectives, 0, selected, u_row_bits);
        if post_mflops > 0.0 {
            ctx.compute_par(post_mflops);
        }
        d
    };
    let spectrum = delivered
        .expect("select_winner: broadcast misuse")
        .into_spectra()
        .expect("select_winner: protocol violation")
        .remove(0);
    best.unwrap_or(Candidate {
        line: 0,
        sample: 0,
        score: 0.0,
        spectrum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgoParams;
    use hsi_cube::synth::{wtc_scene, WtcConfig};
    use simnet::presets;

    fn scene() -> hsi_cube::synth::SyntheticScene {
        wtc_scene(WtcConfig::tiny())
    }

    fn cost(cube: &HyperCube) -> RowCost {
        RowCost {
            mflops_per_row: cube.samples() as f64 * 1e-3,
            mbits_per_row: row_mbits(cube),
            fixed_mflops: 0.0,
        }
    }

    /// "Memory proportional to one cube", in the form any host can
    /// check: the rank's block is a window inside the root's own buffer.
    fn lies_inside(block: &HyperCube, root: &HyperCube) -> bool {
        let (block, root) = (
            block.as_slice().as_ptr_range(),
            root.as_slice().as_ptr_range(),
        );
        root.start <= block.start && block.end <= root.end
    }

    #[test]
    fn distribute_reconstructs_the_image() {
        let s = scene();
        let cube = s.cube.clone();
        let platform = presets::fully_heterogeneous();
        let options = RunOptions::hetero();
        let assignments = plan_assignments(&platform, &cube, &options, cost(&cube));
        let engine = Engine::new(platform);
        let report = engine.run(|ctx: &mut Ctx<Msg>| {
            let block = distribute(ctx, &cube, &assignments, 0, ScatterMode::Free);
            // Every owned pixel must equal the original image pixel.
            for l in 0..block.n_lines {
                for smp in 0..cube.samples() {
                    let local = block.cube.pixel(block.pre + l, smp);
                    let global = cube.pixel(block.first_line + l, smp);
                    assert_eq!(local, global);
                }
            }
            assert!(lies_inside(&block.cube, &cube), "rank {}", ctx.rank());
            block.n_lines
        });
        let total: usize = report.results.iter().map(|r| r.unwrap()).sum();
        assert_eq!(total, cube.lines());
    }

    #[test]
    fn distribute_with_overlap_has_halo() {
        let s = scene();
        let cube = s.cube.clone();
        let platform = presets::thunderhead(4);
        let options = RunOptions::homo();
        let assignments = plan_assignments(&platform, &cube, &options, cost(&cube));
        let engine = Engine::new(platform);
        let report = engine.run(|ctx: &mut Ctx<Msg>| {
            let block = distribute(ctx, &cube, &assignments, 2, ScatterMode::Free);
            // The halo block starts at the root's own line `first - pre`.
            assert!(lies_inside(&block.cube, &cube), "rank {}", ctx.rank());
            assert!(std::ptr::eq(
                block.cube.pixel(0, 0).as_ptr(),
                cube.pixel(block.first_line - block.pre, 0).as_ptr()
            ));
            (block.pre, block.cube.lines() - block.pre - block.n_lines)
        });
        // Interior ranks get halo on both sides; rank 0 has none above.
        assert_eq!(report.result(0).0, 0);
        assert_eq!(report.result(0).1, 2);
        assert_eq!(report.result(1).0, 2);
        assert_eq!(report.result(3).1, 0);
    }

    #[test]
    fn gather_labels_assembles_full_image() {
        let s = scene();
        let cube = s.cube.clone();
        let platform = presets::thunderhead(3);
        let options = RunOptions::homo();
        let assignments = plan_assignments(&platform, &cube, &options, cost(&cube));
        let engine = Engine::new(platform);
        let lines = cube.lines();
        let samples = cube.samples();
        let run = run_rooted(&engine, |ctx| {
            let block = distribute(ctx, &cube, &assignments, 0, ScatterMode::Free);
            // Label every pixel with its global line number.
            let labels: Vec<u16> = (0..block.n_lines * samples)
                .map(|i| (block.first_line + i / samples) as u16)
                .collect();
            gather_labels(
                ctx,
                &CollectiveConfig::linear(),
                &block,
                labels,
                lines,
                samples,
            )
        });
        for l in 0..lines {
            for smp in 0..samples {
                assert_eq!(run.result.get(l, smp), l as u16);
            }
        }
        assert!(run.report.total_time > 0.0);
    }

    #[test]
    fn local_block_own_range() {
        let block = LocalBlock {
            first_line: 100,
            n_lines: 10,
            pre: 3,
            cube: HyperCube::zeros(16, 4, 2),
        };
        assert_eq!(block.own_range(), (3, 13));
    }

    #[test]
    fn hetero_assignments_favor_fast_nodes() {
        let s = scene();
        let cube = s.cube.clone();
        let platform = presets::fully_heterogeneous();
        let asg_het = plan_assignments(&platform, &cube, &RunOptions::hetero(), cost(&cube));
        let asg_hom = plan_assignments(&platform, &cube, &RunOptions::homo(), cost(&cube));
        // p3 (fastest) gets more rows under WEA than equal split.
        assert!(asg_het[2].n_lines > asg_hom[2].n_lines);
        // p10 (UltraSparc) gets fewer.
        assert!(asg_het[9].n_lines < asg_hom[9].n_lines);
        let _ = AlgoParams::default();
    }
}
