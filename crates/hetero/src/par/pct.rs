//! Hetero-PCT (paper Algorithm 4).
//!
//! Principal-component classification with the paper's parallel
//! decomposition:
//!
//! * steps 2–3 — workers build local unique spectral sets; the master
//!   merges them into `c` class representatives;
//! * steps 4–6 — workers accumulate mean/covariance partial sums over
//!   their partitions; the master merges them (the covariance is the
//!   merge of the per-partition accumulators);
//! * step 7 — the master eigendecomposes the covariance **sequentially**
//!   (the paper notes this step's data dependency), yielding the
//!   transform `T`;
//! * steps 8–9 — workers transform and classify their partitions; the
//!   master assembles the label image.
//!
//! The heavy sequential eigen step is why PCT exhibits the largest SEQ
//! component in Table 6 and the worst Thunderhead scaling in Figure 2.

use super::run_static;
use crate::config::{AlgoParams, RunOptions};
use crate::flops;
use crate::framework::{plan_assignments, row_mbits, ParallelRun};
use crate::sched::PctChunks;
use crate::seq::PctModel;
use crate::wea::RowCost;
use hsi_cube::{HyperCube, LabelImage};
use simnet::engine::Engine;

/// Estimated per-row resource demand (drives the WEA fractions).
pub fn row_cost(cube: &HyperCube, params: &AlgoParams) -> RowCost {
    let n = cube.bands();
    let c = params.num_classes;
    let per_pixel = flops::covariance_accumulate(n)
        + flops::pct_transform(n, c)
        + flops::pct_classify(c, c)
        + (4 * c) as f64 * flops::sad(n);
    RowCost {
        mflops_per_row: flops::mflop(per_pixel * cube.samples() as f64),
        mbits_per_row: row_mbits(cube),
        fixed_mflops: 0.0,
    }
}

/// Runs parallel PCT classification on the engine's platform.
pub fn run(
    engine: &Engine,
    cube: &HyperCube,
    params: &AlgoParams,
    options: &RunOptions,
) -> ParallelRun<(LabelImage, PctModel)> {
    let algo = PctChunks::new(cube, params);
    let assignments = plan_assignments(engine.platform(), cube, options, row_cost(cube, params));
    run_static(engine, cube, &algo, &assignments, options, 0)
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
        AlgoParams::default()
    }

    #[test]
    fn parallel_accuracy_close_to_sequential() {
        let s = scene();
        let seq = crate::seq::pct(&s.cube, &params());
        let seq_acc = hsi_cube::labels::score(&seq.result.0, &s.truth).overall;
        let engine = Engine::new(presets::fully_heterogeneous());
        let par = run(&engine, &s.cube, &params(), &RunOptions::hetero());
        let par_acc = hsi_cube::labels::score(&par.result.0, &s.truth).overall;
        // Parallel unique-set construction differs from sequential (the
        // paper's algorithm is defined per-partition and the 16-worker
        // candidate pool is richer), so demand closeness, not equality.
        assert!(
            (seq_acc - par_acc).abs() < 25.0,
            "seq {seq_acc} vs par {par_acc}"
        );
        assert!(par_acc > 25.0, "par accuracy {par_acc}");
    }

    #[test]
    fn every_pixel_labeled() {
        let s = scene();
        let engine = Engine::new(presets::thunderhead(6));
        let par = run(&engine, &s.cube, &params(), &RunOptions::homo());
        assert_eq!(par.result.0.lines(), s.cube.lines());
        for &l in par.result.0.as_slice() {
            assert!(l < params().num_classes as u16);
        }
    }

    #[test]
    fn seq_component_is_large() {
        // Table 6: PCT has the largest SEQ share of the four algorithms
        // (the sequential eigendecomposition).
        let s = scene();
        let engine = Engine::new(presets::fully_heterogeneous());
        let pct = run(&engine, &s.cube, &params(), &RunOptions::hetero());
        let atdca = crate::par::atdca::run(&engine, &s.cube, &params(), &RunOptions::hetero());
        let d_pct = pct.report.decomposition();
        let d_atdca = atdca.report.decomposition();
        assert!(
            d_pct.seq / d_pct.total > d_atdca.seq / d_atdca.total,
            "PCT SEQ share {} !> ATDCA SEQ share {}",
            d_pct.seq / d_pct.total,
            d_atdca.seq / d_atdca.total
        );
    }
}
