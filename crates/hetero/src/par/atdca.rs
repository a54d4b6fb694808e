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

use super::{detector_row_cost, run_detector};
use crate::config::{AlgoParams, RunOptions};
use crate::detect::Osp;
use crate::framework::ParallelRun;
use crate::sched::AtdcaChunks;
use crate::seq::DetectedTarget;
use crate::wea::RowCost;
use hsi_cube::HyperCube;
use simnet::engine::Engine;

/// Estimated per-row resource demand (drives the WEA fractions).
pub fn row_cost(cube: &HyperCube, params: &AlgoParams) -> RowCost {
    detector_row_cost::<Osp>(cube, params)
}

/// Runs parallel ATDCA on the engine's platform.
pub fn run(
    engine: &Engine,
    cube: &HyperCube,
    params: &AlgoParams,
    options: &RunOptions,
) -> ParallelRun<Vec<DetectedTarget>> {
    run_detector(engine, &AtdcaChunks::new(cube, params), options)
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
