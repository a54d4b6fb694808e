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

use super::run_morph;
use crate::config::{AlgoParams, RunOptions};
use crate::flops;
use crate::framework::{row_mbits, ParallelRun};
use crate::sched::MorphChunks;
use crate::wea::RowCost;
use hsi_cube::{HyperCube, LabelImage};
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

/// Runs parallel MORPH classification on the engine's platform, halos
/// sized by [`RunOptions::morph_overlap`].
pub fn run(
    engine: &Engine,
    cube: &HyperCube,
    params: &AlgoParams,
    options: &RunOptions,
) -> ParallelRun<(LabelImage, Vec<Vec<f32>>)> {
    let algo = MorphChunks::new(cube, params).with_overlap(options.morph_overlap);
    run_morph(engine, &algo, options)
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
