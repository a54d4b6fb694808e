//! Hetero-UFCLS (paper Algorithm 3).
//!
//! Shares ATDCA's master/worker skeleton (the first target is the
//! brightest pixel), but grows the target set by fully-constrained
//! least-squares error: each round, every rank unmixes its pixels
//! against the current endmember set `U` (sum-to-one + non-negativity)
//! and nominates the pixel with the largest reconstruction error; the
//! master picks the global winner and broadcasts it.

use super::{detector_row_cost, run_detector};
use crate::config::{AlgoParams, RunOptions};
use crate::detect::Fcls;
use crate::framework::ParallelRun;
use crate::sched::UfclsChunks;
use crate::seq::DetectedTarget;
use crate::wea::RowCost;
use hsi_cube::HyperCube;
use simnet::engine::Engine;

/// Estimated per-row resource demand (drives the WEA fractions).
pub fn row_cost(cube: &HyperCube, params: &AlgoParams) -> RowCost {
    detector_row_cost::<Fcls>(cube, params)
}

/// Runs parallel UFCLS on the engine's platform.
pub fn run(
    engine: &Engine,
    cube: &HyperCube,
    params: &AlgoParams,
    options: &RunOptions,
) -> ParallelRun<Vec<DetectedTarget>> {
    run_detector(engine, &UfclsChunks::new(cube, params), options)
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
