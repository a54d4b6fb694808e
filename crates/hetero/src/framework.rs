//! Master/worker plumbing of the partitioned runs: WEA assignments, the
//! partition scatter, and the run wrapper.
//!
//! The root (rank 0) also acts as a worker on its own partition, as in
//! the paper's setup (16 processors, 16 partitions); its extra duties —
//! WEA, candidate selection, eigendecomposition, set merging — are the
//! SEQ component of Table 6.

use crate::config::{PartitionStrategy, RunOptions};
use crate::msg::Msg;
use crate::wea::{self, RowAssignment, RowCost};
use hsi_cube::HyperCube;
use simnet::coll::{self, ScatterMode};
use simnet::engine::Engine;
use simnet::report::RunReport;
use simnet::{Ctx, Wire};

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

/// Algorithm 2/3/4/5 step 1: the root ships every rank its partition —
/// its lines plus `overlap` halo lines a side, clipped at the image
/// border — and every rank returns its `(first_line, n_lines)`.
///
/// The scatter charges each partition's header and window at their wire
/// size, but no image data moves on the host: every rank reads the one
/// `cube`, which only the root dereferences here, to size the windows.
pub fn distribute<P: Wire + Sync + Clone, D: Wire + Sync>(
    ctx: &mut Ctx<Msg<P, D>>,
    cube: &HyperCube,
    assignments: &[RowAssignment],
    overlap: usize,
    mode: ScatterMode,
) -> (usize, usize) {
    assert_eq!(assignments.len(), ctx.num_ranks());
    let items = ctx
        .is_root()
        .then(|| partitions(cube, assignments, overlap));
    coll::scatter(ctx, 0, items, mode)
        .expect("distribute: scatter misuse")
        .into_partition()
        .expect("distribute: protocol violation")
}

/// The root's partition messages, one per assignment: each is sized by
/// the window of its lines with `overlap` halo lines a side.
fn partitions<P: Clone, D>(
    cube: &HyperCube,
    assignments: &[RowAssignment],
    overlap: usize,
) -> Vec<Msg<P, D>> {
    assignments
        .iter()
        .map(|a| {
            let (window, _) = cube.extract_lines_with_overlap(a.first_line, a.n_lines, overlap);
            Msg::partition(a.first_line, a.n_lines, window.as_slice().len())
        })
        .collect()
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
pub fn run_rooted<M: Wire, T: Send>(
    engine: &Engine,
    program: impl Fn(&mut Ctx<M>) -> Option<T> + Sync,
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

    #[test]
    fn distribute_ships_each_rank_its_lines_and_charges_its_clipped_window() {
        let cube = scene().cube;
        let platform = presets::thunderhead(4);
        let assignments = plan_assignments(&platform, &cube, &RunOptions::homo(), cost(&cube));
        let engine = Engine::new(platform);
        // 12 of the 48 lines each; a line is 40 samples of 64 bands.
        let line_bits = 40 * 64 * 32;
        for (overlap, lines) in [(0, [12, 12, 12]), (2, [14, 16, 14])] {
            let report = engine.run(|ctx: &mut Ctx<Msg>| {
                distribute(ctx, &cube, &assignments, overlap, ScatterMode::Charged)
            });
            for rank in 0..4 {
                assert_eq!(*report.result(rank), (12 * rank, 12), "overlap {overlap}");
            }
            // The first, a middle and the last partition: the halo is
            // clipped at the image border.
            let items: Vec<Msg> = partitions(&cube, &assignments, overlap);
            for (rank, lines) in [0, 1, 3].into_iter().zip(lines) {
                let bits = items[rank].size_bits();
                assert_eq!(
                    bits,
                    5 * 32 + lines * line_bits,
                    "rank {rank}, overlap {overlap}"
                );
            }
        }
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
