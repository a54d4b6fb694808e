//! Hetero-UFCLS (paper Algorithm 3).
//!
//! Shares ATDCA's master/worker skeleton (the first target is the
//! brightest pixel), but grows the target set by fully-constrained
//! least-squares error: each round, every rank unmixes its pixels
//! against the current endmember set `U` (sum-to-one + non-negativity)
//! and nominates the pixel with the largest reconstruction error; the
//! master picks the global winner and broadcasts it.

use crate::config::{AlgoParams, RunOptions};
use crate::flops;
use crate::framework::{
    distribute, plan_assignments, row_mbits, run_rooted, select_winner, ParallelRun,
};
use crate::kernels::{self, FclsCarry};
use crate::par::empty_candidate;
use crate::seq::{grow_endmembers, DetectedTarget};
use crate::wea::RowCost;
use hsi_cube::HyperCube;
use simnet::engine::Engine;

/// Estimated per-row resource demand (drives the WEA fractions).
pub fn row_cost(cube: &HyperCube, params: &AlgoParams) -> RowCost {
    let n = cube.bands();
    let per_pixel: f64 = flops::brightness(n)
        + (1..params.num_targets)
            .map(|t| flops::fcls(n, t))
            .sum::<f64>();
    RowCost {
        mflops_per_row: flops::mflop(per_pixel * cube.samples() as f64),
        mbits_per_row: row_mbits(cube),
        fixed_mflops: 0.0,
    }
}

/// Runs parallel UFCLS on the engine's platform.
pub fn run(
    engine: &Engine,
    cube: &HyperCube,
    params: &AlgoParams,
    options: &RunOptions,
) -> ParallelRun<Vec<DetectedTarget>> {
    let assignments = plan_assignments(engine.platform(), cube, options, row_cost(cube, params));
    run_rooted(engine, |ctx| {
        if ctx.is_root() {
            ctx.compute_seq(flops::mflop(20.0 * ctx.num_ranks() as f64));
        }
        let block = distribute(ctx, cube, &assignments, 0, options.scatter_mode);
        let n = block.cube.bands();
        // Every rank mirrors the target list and grows its FCLS problem
        // from it each round (the broadcast of U in the paper).
        let mut targets: Vec<DetectedTarget> = Vec::new();
        let mut system = None;
        // Host-side only: this rank's pixels keep their endmember dots
        // between rounds; the charge below stays the full unmixing.
        let mut carry = FclsCarry::default();
        // Rank-uniform size hints for `Auto` selection.
        let cand_bits = 128 + 32 * n as u64;
        let u_row_bits = 32 * n as u64;
        // Bytes a device stages to unmix this rank's partition: the
        // owned pixel block in, one candidate out.
        let block_bytes = (block.n_lines * block.cube.samples() * n * 4) as u64;

        for k in 0..params.num_targets {
            let (cand, mflops) = if k == 0 {
                kernels::brightest(&block.cube, block.own_range())
            } else {
                // The Gram rebuild for this round was charged as the
                // previous round's follow-up compute (so the endmember
                // broadcast can overlap it); the host only adds the new
                // target's row here.
                grow_endmembers(&mut system, &targets);
                let problem = system.as_ref().expect("ufcls: one target at least");
                kernels::max_fcls_error_carried(&block.cube, problem, block.own_range(), &mut carry)
            };
            let cost = crate::offload::ChunkCost::new(
                mflops,
                (block_bytes + (k * n * 4) as u64, (n * 4 + 16) as u64),
            );
            crate::offload::charge_chunk(ctx, options.offload, &cost);
            let candidate = match cand {
                Some(p) => p.to_candidate(&block.cube, block.first_line, block.pre),
                None => empty_candidate(n),
            };

            // Winner selection (gather → master re-score → broadcast,
            // or one fused allreduce — see `select_winner`), with the
            // next round's Gram rebuild as the overlappable follow-up.
            let next_gram = if k + 1 < params.num_targets {
                flops::mflop(flops::gram(n, k + 1))
            } else {
                0.0
            };
            let winner = select_winner(
                ctx,
                options,
                candidate,
                cand_bits,
                u_row_bits,
                flops::fcls(n, k.max(1)),
                next_gram,
            );
            targets.push(DetectedTarget {
                line: winner.line as usize,
                sample: winner.sample as usize,
                spectrum: winner.spectrum,
            });
        }
        if ctx.is_root() {
            Some(targets)
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi_cube::synth::{wtc_scene, WtcConfig};
    use simnet::presets;

    fn scene() -> hsi_cube::synth::SyntheticScene {
        wtc_scene(WtcConfig::tiny())
    }

    fn params() -> AlgoParams {
        AlgoParams {
            num_targets: 6,
            ..Default::default()
        }
    }

    #[test]
    fn parallel_matches_sequential_targets() {
        let s = scene();
        let seq = crate::seq::ufcls(&s.cube, &params());
        let engine = Engine::new(presets::fully_heterogeneous());
        let par = run(&engine, &s.cube, &params(), &RunOptions::hetero());
        let seq_coords: Vec<_> = seq.result.iter().map(|t| (t.line, t.sample)).collect();
        let par_coords: Vec<_> = par
            .result
            .iter()
            .map(|t| (t.line, t.sample))
            .collect::<Vec<_>>();
        assert_eq!(seq_coords, par_coords);
    }

    #[test]
    fn first_target_is_brightest_pixel() {
        let s = scene();
        let engine = Engine::new(presets::thunderhead(4));
        let par = run(&engine, &s.cube, &params(), &RunOptions::homo());
        let ((bl, bs), _) = s.cube.brightest_pixel().unwrap();
        assert_eq!((par.result[0].line, par.result[0].sample), (bl, bs));
    }

    #[test]
    fn ufcls_cheaper_than_atdca_in_virtual_time() {
        // Table 5: UFCLS (51-56 s) runs faster than ATDCA (84-89 s).
        let s = scene();
        let engine = Engine::new(presets::fully_heterogeneous());
        let p = AlgoParams {
            num_targets: 8,
            ..Default::default()
        };
        let u = run(&engine, &s.cube, &p, &RunOptions::hetero());
        let a = crate::par::atdca::run(&engine, &s.cube, &p, &RunOptions::hetero());
        assert!(
            u.report.total_time < a.report.total_time,
            "UFCLS {} !< ATDCA {}",
            u.report.total_time,
            a.report.total_time
        );
    }
}
