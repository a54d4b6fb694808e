//! The parallel heterogeneous algorithms (paper Algorithms 2–5).
//!
//! Each submodule exposes `run(engine, cube, params, options)` returning
//! a [`crate::framework::ParallelRun`] with the root's analysis result
//! and the timing report. The Hetero-X / Homo-X pairs of the paper's
//! tables are selected through
//! [`crate::config::RunOptions::strategy`].
//!
//! [`atdca`] and [`ufcls`] are one master/worker program,
//! `run_detector`, over the two detectors described in `crate::detect`
//! (state, host operations, cost table): a new detector is an impl
//! there, not a module here.

pub mod atdca;
pub mod morph;
pub mod pct;
pub mod ufcls;

use crate::config::{AlgoParams, RunOptions};
use crate::detect::{round_bytes, Detector};
use crate::framework::{
    distribute, plan_assignments, row_mbits, run_rooted, select_winner, ParallelRun,
};
use crate::msg::{candidate_bits, Candidate};
use crate::offload::{charge_chunk, ChunkCost};
use crate::seq::DetectedTarget;
use crate::wea::RowCost;
use crate::{flops, kernels};
use hsi_cube::HyperCube;
use simnet::engine::Engine;

/// A detector's estimated per-row resource demand (drives the WEA
/// fractions).
fn detector_row_cost<D: Detector>(cube: &HyperCube, params: &AlgoParams) -> RowCost {
    let per_pixel = D::run_per_pixel(cube.bands(), params.num_targets);
    RowCost {
        mflops_per_row: flops::mflop(per_pixel * cube.samples() as f64),
        mbits_per_row: row_mbits(cube),
        fixed_mflops: 0.0,
    }
}

/// Algorithms 2–3 on the engine's platform: the master/worker loop the
/// [`atdca`] and [`ufcls`] module docs walk through, with `D`'s score
/// and `D`'s charges.
fn run_detector<D: Detector>(
    engine: &Engine,
    cube: &HyperCube,
    params: &AlgoParams,
    options: &RunOptions,
) -> ParallelRun<Vec<DetectedTarget>> {
    let row_cost = detector_row_cost::<D>(cube, params);
    let assignments = plan_assignments(engine.platform(), cube, options, row_cost);
    let t = params.num_targets;
    run_rooted(engine, |ctx| {
        // Root's WEA planning (Algorithm 1): trivial arithmetic over P
        // processors, charged as sequential work.
        if ctx.is_root() {
            ctx.compute_seq(flops::mflop(20.0 * ctx.num_ranks() as f64));
        }
        let block = distribute(ctx, cube, &assignments, 0, options.scatter_mode);
        let n = block.cube.bands();
        let own_pixels = block.n_lines * block.cube.samples();
        // The carry is this rank's own: a static partition never hands a
        // line to another rank, so nothing is gained by sharing it and no
        // two ranks ever meet on a line lock. Host-side only: what it
        // keeps of this rank's pixels never shortens a charge below.
        let (mut detector, carry) = (D::new(n), D::Carry::default());
        let mut targets: Vec<DetectedTarget> = Vec::new();

        for k in 0..t {
            // Local candidate (step 2 for k = 0, step 4 otherwise).
            let (cand, mflops) = if k == 0 {
                kernels::brightest(&block.cube, block.own_range())
            } else {
                detector.nominate(&block.cube, block.own_range(), &carry)
            };
            let cost = ChunkCost::new(mflops, round_bytes(own_pixels, n, k));
            charge_chunk(ctx, options.offload, &cost);
            let candidate = match cand {
                Some(p) => p.to_candidate(&block.cube, block.first_line, block.pre),
                None => empty_candidate(n),
            };

            // Winner selection: gather → master re-score → broadcast of
            // the new target row of U, or one fused allreduce — see
            // `select_winner`. The size hints are rank-uniform (see
            // docs/COMMS.md): a candidate, and one n-band f32 row of U.
            let winner = select_winner(
                ctx,
                options,
                candidate,
                candidate_bits(n),
                32 * n as u64,
                D::rescore(n, k),
                D::follow_up(n, k, t),
            );
            // Every rank mirrors the master's target set (host-side; its
            // flops were the follow-up charged inside `select_winner`).
            detector.admit(&winner.spectrum);
            if ctx.is_root() {
                targets.push(DetectedTarget {
                    line: winner.line as usize,
                    sample: winner.sample as usize,
                    spectrum: winner.spectrum,
                });
            }
        }
        ctx.is_root().then_some(targets)
    })
}

/// The winner order: highest score, ties to the lowest `(line, sample)`
/// — a total order on candidates with distinct coordinates, which is
/// what makes the pairwise fold of [`better_candidate`] associative and
/// commutative (so tree allreduces agree bit-for-bit with a sequential
/// scan).
fn candidate_order(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    a.score
        .partial_cmp(&b.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| (b.line, b.sample).cmp(&(a.line, a.sample)))
}

/// Deterministically selects the winning candidate: highest score, ties
/// to the lowest `(line, sample)` — the same order a sequential scan of
/// the whole image would produce.
pub(crate) fn best_candidate(cands: Vec<Candidate>) -> Candidate {
    cands
        .into_iter()
        .max_by(candidate_order)
        .expect("best_candidate: no candidates")
}

/// The pairwise max under [`candidate_order`] — the fold ATDCA/UFCLS
/// hand to `simnet::coll::allreduce`. Folding any grouping/ordering of
/// distinct-coordinate candidates with this equals [`best_candidate`]
/// over the same set.
pub(crate) fn better_candidate(a: Candidate, b: Candidate) -> Candidate {
    if candidate_order(&a, &b) == std::cmp::Ordering::Greater {
        a
    } else {
        b
    }
}

/// A sentinel candidate that never wins (sent by ranks with empty
/// partitions so the gather pattern stays uniform).
pub(crate) fn empty_candidate(bands: usize) -> Candidate {
    Candidate {
        line: u32::MAX,
        sample: u32::MAX,
        score: f64::NEG_INFINITY,
        spectrum: vec![0.0; bands],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(line: u32, sample: u32, score: f64) -> Candidate {
        Candidate {
            line,
            sample,
            score,
            spectrum: vec![],
        }
    }

    #[test]
    fn best_candidate_picks_highest_score() {
        let best = best_candidate(vec![cand(0, 0, 1.0), cand(1, 1, 3.0), cand(2, 2, 2.0)]);
        assert_eq!((best.line, best.sample), (1, 1));
    }

    #[test]
    fn ties_resolve_to_lowest_coordinates() {
        let best = best_candidate(vec![cand(5, 5, 2.0), cand(1, 9, 2.0), cand(1, 2, 2.0)]);
        assert_eq!((best.line, best.sample), (1, 2));
    }

    #[test]
    fn sentinel_never_wins() {
        let best = best_candidate(vec![empty_candidate(4), cand(3, 3, -1.0)]);
        assert_eq!((best.line, best.sample), (3, 3));
    }

    #[test]
    fn pairwise_fold_agrees_with_best_candidate_for_any_grouping() {
        let cands = [
            cand(5, 5, 2.0),
            cand(1, 9, 2.0),
            cand(0, 0, -1.0),
            cand(1, 2, 2.0),
            cand(7, 7, 1.5),
        ];
        let best = best_candidate(cands.to_vec());
        // Left fold, right fold, and a tree grouping all agree.
        let left = cands
            .iter()
            .cloned()
            .reduce(better_candidate)
            .expect("nonempty");
        let right = cands
            .iter()
            .rev()
            .cloned()
            .reduce(better_candidate)
            .expect("nonempty");
        let tree = better_candidate(
            better_candidate(cands[0].clone(), cands[1].clone()),
            better_candidate(
                cands[2].clone(),
                better_candidate(cands[3].clone(), cands[4].clone()),
            ),
        );
        for (label, got) in [("left", left), ("right", right), ("tree", tree)] {
            assert_eq!(
                (got.line, got.sample),
                (best.line, best.sample),
                "{label} fold"
            );
        }
    }
}
