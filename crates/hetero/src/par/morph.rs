//! Hetero-MORPH (paper Algorithm 5).
//!
//! Spatial/spectral morphological classification:
//!
//! 1. WEA partitions the cube **with overlap borders** (redundant
//!    computation instead of halo communication — the paper's explicit
//!    design trade);
//! 2. every rank iterates erosion/dilation to build its MEI map and
//!    nominates its `c` highest-MEI pixels;
//! 3. the master merges the nominations into a unique spectral set of
//!    `p ≤ c` representatives;
//! 4. every rank labels its pixels by SAD to the representatives;
//! 5. the master assembles the classification map.
//!
//! MORPH is a windowing algorithm with almost no sequential or
//! communication component, which is why it shows the best load balance
//! (Table 7) and the best Thunderhead scaling (Figure 2) despite its
//! redundant overlap computation.

use crate::config::{AlgoParams, RunOptions};
use crate::flops;
use crate::framework::{
    distribute, gather_labels, plan_assignments, row_mbits, run_rooted, ParallelRun,
};
use crate::kernels;
use crate::msg::Msg;
use crate::wea::RowCost;
use hsi_cube::{HyperCube, LabelImage};
use hsi_morpho::StructuringElement;
use simnet::coll::{self, GatherEntry};
use simnet::engine::Engine;

/// Estimated per-row resource demand (drives the WEA fractions).
pub fn row_cost(cube: &HyperCube, params: &AlgoParams) -> RowCost {
    let n = cube.bands();
    let se_len = (2 * params.se_radius + 1).pow(2);
    let per_pixel = flops::mei_iteration(1, n, se_len) * params.morph_iterations as f64
        + flops::sad_classify(n, params.num_classes);
    // Every partition also pays MEI over its halo lines — a fixed
    // per-node cost the makespan allocator must see, or it starves
    // fast nodes whose tiny partitions would be all halo.
    let halo_pixels = 2 * params.se_radius * cube.samples();
    let fixed = flops::mei_iteration(halo_pixels, n, se_len) * params.morph_iterations as f64;
    RowCost {
        mflops_per_row: flops::mflop(per_pixel * cube.samples() as f64),
        mbits_per_row: row_mbits(cube),
        fixed_mflops: flops::mflop(fixed),
    }
}

/// Runs parallel MORPH classification on the engine's platform.
pub fn run(
    engine: &Engine,
    cube: &HyperCube,
    params: &AlgoParams,
    options: &RunOptions,
) -> ParallelRun<(LabelImage, Vec<Vec<f32>>)> {
    let assignments = plan_assignments(engine.platform(), cube, options, row_cost(cube, params));
    let lines = cube.lines();
    let samples = cube.samples();
    let se = StructuringElement::square(params.se_radius);
    let overlap = options
        .morph_overlap
        .halo_lines(params.se_radius, params.morph_iterations);
    run_rooted(engine, |ctx| {
        if ctx.is_root() {
            ctx.compute_seq(flops::mflop(20.0 * ctx.num_ranks() as f64));
        }
        // Step 1: scatter with overlap borders.
        let block = distribute(ctx, cube, &assignments, overlap, options.scatter_mode);

        // Step 2: local MEI + top-c candidates (halo pixels included in
        // the compute charge — that's the redundant work).
        let (top, mflops) = kernels::mei_top(
            &block.cube,
            &se,
            params.morph_iterations,
            block.own_range(),
            params.num_classes,
            params.sad_threshold,
        );
        // A device stages the full halo-padded block for the MEI step
        // and at most `c` scored candidates back.
        let nb = block.cube.bands();
        let padded_bytes = (block.cube.lines() * block.cube.samples() * nb * 4) as u64;
        crate::offload::charge_chunk(
            ctx,
            options.offload,
            &crate::offload::ChunkCost::new(
                mflops,
                (
                    padded_bytes,
                    params.num_classes as u64 * (nb as u64 * 4 + 8),
                ),
            ),
        );
        let cands: Vec<crate::msg::Candidate> = top
            .iter()
            .map(|p| p.to_candidate(&block.cube, block.first_line, block.pre))
            .collect();

        // Step 3: master merges nominations into p <= c representatives.
        // Rank-uniform size hints for `Auto` selection: each rank
        // nominates at most `c` candidates; at most `c` reps come back.
        let n = block.cube.bands();
        let cands_bits = params.num_classes as u64 * crate::msg::candidate_bits(n);
        let reps_bits = (params.num_classes * n * 32) as u64;
        let entries = coll::gather(
            ctx,
            &options.collectives,
            0,
            Msg::candidates(cands),
            cands_bits,
        );
        let merged = entries.map(|entries| {
            let mut scored: Vec<(Vec<f32>, f64)> = Vec::new();
            for msg in entries.into_iter().filter_map(GatherEntry::into_msg) {
                for cand in msg.into_candidates().expect("morph: protocol violation") {
                    scored.push((cand.spectrum, cand.score));
                }
            }
            let (reps, mflops) =
                crate::seq::reduce_candidates(&scored, params.sad_threshold, params.num_classes);
            ctx.compute_seq(mflops);
            Msg::spectra(reps)
        });
        let reps: Vec<Vec<f32>> = coll::broadcast(ctx, &options.collectives, 0, merged, reps_bits)
            .expect("morph: broadcast misuse")
            .into_spectra()
            .expect("morph: protocol violation");

        // Step 4: SAD labelling of the owned lines.
        let (labels, mflops) = kernels::sad_label(&block.cube, block.own_range(), &reps);
        crate::offload::charge_chunk(
            ctx,
            options.offload,
            &crate::offload::ChunkCost::new(
                mflops,
                (
                    (block.n_lines * block.cube.samples() * n * 4) as u64
                        + (reps.len() * n * 4) as u64,
                    (block.n_lines * block.cube.samples() * 2) as u64,
                ),
            ),
        );

        // Step 5: assemble at the master.
        let image = gather_labels(ctx, &options.collectives, &block, labels, lines, samples);
        image.map(|img| (img, reps))
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
            morph_iterations: 2,
            ..Default::default()
        }
    }

    #[test]
    fn labels_all_pixels_with_bounded_classes() {
        let s = scene();
        let engine = Engine::new(presets::fully_heterogeneous());
        let par = run(&engine, &s.cube, &params(), &RunOptions::hetero());
        let (labels, reps) = &par.result;
        assert!(!reps.is_empty() && reps.len() <= params().num_classes);
        for &l in labels.as_slice() {
            assert!((l as usize) < reps.len());
        }
    }

    #[test]
    fn accuracy_close_to_sequential() {
        let s = scene();
        let seq = crate::seq::morph(&s.cube, &params());
        let seq_acc = hsi_cube::labels::score(&seq.result.0, &s.truth).overall;
        let engine = Engine::new(presets::thunderhead(4));
        let par = run(&engine, &s.cube, &params(), &RunOptions::homo());
        let par_acc = hsi_cube::labels::score(&par.result.0, &s.truth).overall;
        assert!(
            (seq_acc - par_acc).abs() < 15.0,
            "seq {seq_acc} vs par {par_acc}"
        );
    }

    #[test]
    fn morph_balances_better_than_pct() {
        // Table 7: Hetero-MORPH achieves D_all closest to 1.
        let s = scene();
        let engine = Engine::new(presets::fully_heterogeneous());
        let m = run(&engine, &s.cube, &params(), &RunOptions::hetero());
        let p = crate::par::pct::run(&engine, &s.cube, &params(), &RunOptions::hetero());
        let im = m.report.imbalance();
        let ip = p.report.imbalance();
        assert!(
            im.d_all <= ip.d_all + 0.15,
            "MORPH D_all {} vs PCT D_all {}",
            im.d_all,
            ip.d_all
        );
    }

    #[test]
    fn seq_share_is_small() {
        // Table 6: MORPH's SEQ is the smallest of the four algorithms.
        let s = scene();
        let engine = Engine::new(presets::fully_heterogeneous());
        let par = run(&engine, &s.cube, &params(), &RunOptions::hetero());
        let d = par.report.decomposition();
        assert!(
            d.seq / d.total < 0.2,
            "MORPH SEQ share too large: {}",
            d.seq / d.total
        );
    }
}
