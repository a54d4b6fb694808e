//! Hetero-ATDCA (paper Algorithm 2).
//!
//! Master/worker iterative target detection:
//!
//! 1. WEA partitions the cube; the master scatters the partitions.
//! 2. Every rank finds its brightest local pixel; candidates are
//!    gathered and the master selects the global brightest `t⁽¹⁾`.
//! 3. The master broadcasts the (new row of the) target matrix `U`.
//! 4. Every rank finds its local maximiser of the orthogonal-projection
//!    score `(P_U^⊥ x)ᵀ(P_U^⊥ x)`; the master selects the winner and
//!    grows `U`. Repeat until `t` targets are found.
//!
//! Workers keep the projector as an incrementally grown orthonormal
//! basis (`O(tN)` apply instead of the `O(N²)` explicit matrix — see
//! `hsi_linalg::ortho`).

use crate::config::{AlgoParams, RunOptions};
use crate::flops;
use crate::framework::{
    distribute, plan_assignments, row_mbits, run_rooted, select_winner, ParallelRun,
};
use crate::kernels::{self, ProjectionCarry};
use crate::par::empty_candidate;
use crate::seq::{spectrum_f64, DetectedTarget};
use crate::wea::RowCost;
use hsi_cube::HyperCube;
use hsi_linalg::ortho::OrthoBasis;
use simnet::engine::Engine;

/// Estimated per-row resource demand (drives the WEA fractions).
pub fn row_cost(cube: &HyperCube, params: &AlgoParams) -> RowCost {
    let n = cube.bands();
    let per_pixel: f64 = (0..params.num_targets)
        .map(|k| flops::projection_score(n, k))
        .sum();
    RowCost {
        mflops_per_row: flops::mflop(per_pixel * cube.samples() as f64),
        mbits_per_row: row_mbits(cube),
        fixed_mflops: 0.0,
    }
}

/// Runs parallel ATDCA on the engine's platform.
pub fn run(
    engine: &Engine,
    cube: &HyperCube,
    params: &AlgoParams,
    options: &RunOptions,
) -> ParallelRun<Vec<DetectedTarget>> {
    let assignments = plan_assignments(engine.platform(), cube, options, row_cost(cube, params));
    run_rooted(engine, |ctx| {
        // Root's WEA planning (Algorithm 1): trivial arithmetic over P
        // processors, charged as sequential work.
        if ctx.is_root() {
            ctx.compute_seq(flops::mflop(20.0 * ctx.num_ranks() as f64));
        }
        let block = distribute(ctx, cube, &assignments, 0, options.scatter_mode);
        let n = block.cube.bands();
        let mut basis = OrthoBasis::new(n);
        // Host-side only: this rank's pixels keep their running residuals
        // between rounds; the charge below stays the full re-projection.
        let mut carry = ProjectionCarry::default();
        let mut targets: Vec<DetectedTarget> = Vec::new();
        // Bytes a device stages to score this rank's partition: the
        // owned pixel block in, one candidate out.
        let block_bytes = (block.n_lines * block.cube.samples() * n * 4) as u64;
        // Rank-uniform size hints for `Auto` selection (see docs/COMMS.md):
        // a Candidate is 128 header bits + an n-band f32 spectrum; a
        // broadcast row of `U` is one n-band f32 spectrum.
        let cand_bits = 128 + 32 * n as u64;
        let u_row_bits = 32 * n as u64;

        for k in 0..params.num_targets {
            // Local candidate (step 2 for k = 0, step 4 otherwise).
            let (cand, mflops) = if k == 0 {
                kernels::brightest(&block.cube, block.own_range())
            } else {
                kernels::max_projection_carried(&block.cube, &basis, block.own_range(), &mut carry)
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

            // Winner selection (steps 3/5): gather → master re-score →
            // broadcast of the new target row of U, or one fused
            // allreduce — see `select_winner`. The basis-growth charge
            // is the round's overlappable follow-up compute.
            let winner = select_winner(
                ctx,
                options,
                candidate,
                cand_bits,
                u_row_bits,
                flops::projection_score(n, k),
                flops::mflop(flops::basis_push(n, k)),
            );
            if ctx.is_root() {
                targets.push(DetectedTarget {
                    line: winner.line as usize,
                    sample: winner.sample as usize,
                    spectrum: winner.spectrum.clone(),
                });
            }

            // All ranks grow their local orthonormal basis (host-side;
            // its flops were charged inside `select_winner`).
            basis.push(&spectrum_f64(&winner.spectrum));
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
            num_targets: 8,
            ..Default::default()
        }
    }

    #[test]
    fn parallel_matches_sequential_targets() {
        let s = scene();
        let seq = crate::seq::atdca(&s.cube, &params());
        for platform in [presets::fully_heterogeneous(), presets::thunderhead(5)] {
            let engine = Engine::new(platform);
            let par = run(&engine, &s.cube, &params(), &RunOptions::hetero());
            let seq_coords: Vec<_> = seq.result.iter().map(|t| (t.line, t.sample)).collect();
            let par_coords: Vec<_> = par.result.iter().map(|t| (t.line, t.sample)).collect();
            assert_eq!(
                seq_coords, par_coords,
                "parallel ATDCA must equal sequential on {}",
                par.report.platform_name
            );
        }
    }

    #[test]
    fn homo_strategy_also_matches_sequential() {
        let s = scene();
        let seq = crate::seq::atdca(&s.cube, &params());
        let engine = Engine::new(presets::fully_heterogeneous());
        let par = run(&engine, &s.cube, &params(), &RunOptions::homo());
        assert_eq!(par.result.len(), seq.result.len());
        for (a, b) in par.result.iter().zip(&seq.result) {
            assert_eq!((a.line, a.sample), (b.line, b.sample));
        }
    }

    #[test]
    fn hetero_beats_homo_on_heterogeneous_platform() {
        let s = scene();
        let engine = Engine::new(presets::fully_heterogeneous());
        let het = run(&engine, &s.cube, &params(), &RunOptions::hetero());
        let hom = run(&engine, &s.cube, &params(), &RunOptions::homo());
        assert!(
            het.report.total_time < hom.report.total_time,
            "hetero {} !< homo {}",
            het.report.total_time,
            hom.report.total_time
        );
    }

    #[test]
    fn report_decomposition_is_consistent() {
        let s = scene();
        let engine = Engine::new(presets::fully_heterogeneous());
        let out = run(&engine, &s.cube, &params(), &RunOptions::hetero());
        let d = out.report.decomposition();
        assert!(d.com >= 0.0 && d.seq > 0.0 && d.par > 0.0);
        assert!((d.com + d.seq + d.par - d.total).abs() < 1e-9);
        let imb = out.report.imbalance();
        assert!(imb.d_all >= 1.0 && imb.d_minus >= 1.0);
    }
}
