//! The parallel heterogeneous algorithms (paper Algorithms 2–5).
//!
//! Each submodule exposes `run(engine, cube, params, options)` returning
//! a [`crate::framework::ParallelRun`] with the root's analysis result
//! and the timing report. The Hetero-X / Homo-X pairs of the paper's
//! tables are selected through
//! [`crate::config::RunOptions::strategy`].
//!
//! There is one program, the static master/worker driver here, run over
//! each algorithm's description in [`crate::sched`] — the same
//! [`ChunkedAlgo`] impl the fault-tolerant drivers of [`crate::ft`] run.
//! It is that description on a static grid of one cell per rank:
//!
//! 1. the root charges WEA's planning (Algorithm 1) and scatters the
//!    partitions ([`distribute`]; MORPH's carry their overlap borders).
//!    The host plans before any rank starts, so the working memory the
//!    ranks will share for their cells is made there, on the caller's
//!    thread ([`ChunkedAlgo::reserve`]: MORPH's MEI workspaces);
//! 2. every round, every rank — the root included — computes its own
//!    cell and charges what the kernel reports, on the host or its
//!    device ([`charge_chunk`]);
//! 3. the partials are gathered to the root, which merges them, charging
//!    each named step sequentially; the merge's delta is broadcast and
//!    every rank installs it. A round whose new state no rank reads
//!    broadcasts nothing, and its ranks go straight on to the next round
//!    before the gather (PCT's unique set and covariance both run before
//!    either is gathered). The root merges on a kernel pool as wide as
//!    the host, not its share of it: every worker is blocked on the
//!    merge's result, and every kernel gives the same bits at any width.
//!    That is where PCT's covariance shards are summed (see
//!    [`crate::sched::PctChunks`]);
//! 4. where the merge is an associative fold (the detectors' winner) and
//!    the run's allreduce schedule is not `Linear`, gather → merge →
//!    broadcast is one fused allreduce instead: scores travel with the
//!    partials, so the master's re-score disappears and every rank
//!    learns the winner's real coordinates in one tree traversal. Every
//!    rank merges there, so each keeps its share of the host.
//!
//! Every collective carries a rank-uniform size hint for `Auto`
//! selection: a partial of ⌈lines/P⌉ lines, and the delta's bound.

pub mod atdca;
pub mod morph;
pub mod pct;
pub mod ufcls;

use crate::config::{AlgoParams, RunOptions};
use crate::detect::Detector;
use crate::flops;
use crate::framework::{distribute, plan_assignments, row_mbits, run_rooted, ParallelRun};
use crate::msg::Msg;
use crate::offload::charge_chunk;
use crate::sched::{reduce_on_every_core, ChunkedAlgo, DetectChunks, MorphChunks};
use crate::seq::DetectedTarget;
use crate::wea::{RowAssignment, RowCost};
use hsi_cube::{HyperCube, LabelImage};
use simnet::coll::{self, CollAlgorithm};
use simnet::engine::Engine;
use simnet::Ctx;
use std::sync::Arc;

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

/// Runs the detector `algo` describes, as [`atdca::run`] and
/// [`ufcls::run`] do, over a description the caller keeps: its host-work
/// tallies stay readable after the run.
#[doc(hidden)]
pub fn run_detector<D: Detector>(
    engine: &Engine,
    algo: &DetectChunks<'_, D>,
    options: &RunOptions,
) -> ParallelRun<Vec<DetectedTarget>> {
    let (cube, params) = algo.inputs();
    let cost = detector_row_cost::<D>(cube, params);
    let assignments = plan_assignments(engine.platform(), cube, options, cost);
    run_static(engine, cube, algo, &assignments, options, 0)
}

/// Runs MORPH as [`morph::run`] does, over a description the caller
/// keeps: its host-work tallies stay readable after the run.
#[doc(hidden)]
pub fn run_morph(
    engine: &Engine,
    algo: &MorphChunks<'_>,
    options: &RunOptions,
) -> ParallelRun<(LabelImage, Vec<Vec<f32>>)> {
    let (cube, params) = algo.inputs();
    let cost = morph::row_cost(cube, params);
    let assignments = plan_assignments(engine.platform(), cube, options, cost);
    run_static(engine, cube, algo, &assignments, options, algo.halo())
}

/// Runs `algo` over `cube` on the engine's platform, one WEA cell of
/// `assignments` per rank, each partition shipped with `overlap` halo
/// lines a side (see the module docs).
fn run_static<A>(
    engine: &Engine,
    cube: &HyperCube,
    algo: &A,
    assignments: &[RowAssignment],
    options: &RunOptions,
    overlap: usize,
) -> ParallelRun<A::Output>
where
    A: ChunkedAlgo + Sync,
    A::Output: Send,
{
    // Every cell is known before any rank starts: what they are computed
    // in is made here, on the caller's thread.
    let largest = assignments.iter().map(|a| a.n_lines).max().unwrap_or(0);
    for round in 0..algo.rounds() {
        algo.reserve(round, largest);
    }
    let cfg = &options.collectives;
    let fold = algo
        .fold()
        .filter(|_| cfg.allreduce != CollAlgorithm::Linear);
    run_rooted(engine, |ctx: &mut Ctx<Msg<A::Partial, A::Delta>>| {
        // Root's WEA planning (Algorithm 1): trivial arithmetic over P
        // processors, charged as sequential work.
        if ctx.is_root() {
            ctx.compute_seq(flops::mflop(20.0 * ctx.num_ranks() as f64));
        }
        // The scatter is what shipping the partitions costs; the
        // description reads the rank's lines from `cube` itself.
        let (first, n) = distribute(ctx, cube, assignments, overlap, options.scatter_mode);
        let hint_lines = algo.lines().div_ceil(ctx.num_ranks());
        // The root's state is the master's; a worker's moves only in
        // fused rounds, where every rank merges the folded partial.
        let (mut state, mut replica) = (algo.initial_state(), algo.replica());
        let mut ungathered = Vec::new();
        for round in 0..algo.rounds() {
            let (partial, charge) = algo.run_chunk(round, &replica, first, n);
            charge_chunk(ctx, options.offload, &charge);
            let delta = if let Some(fold) = fold {
                let merged = coll::allreduce(
                    ctx,
                    cfg,
                    0,
                    Msg::partial(partial),
                    |a, b| Msg::partial(fold(decode(a), decode(b))),
                    algo.partial_hint(round, hint_lines),
                )
                .expect("par: allreduce misuse");
                // The fold was the merge: nothing is left to charge.
                let (next, delta, _) = algo.reduce(round, state, vec![(first, decode(merged))]);
                state = next;
                delta.map(Arc::new)
            } else {
                ungathered.push((round, partial));
                let delta_hint = algo.delta_hint(round);
                if delta_hint.is_none() && round + 1 < algo.rounds() {
                    continue;
                }
                let gathered: Vec<_> = ungathered
                    .drain(..)
                    .map(|(r, p)| {
                        let hint = algo.partial_hint(r, hint_lines);
                        let entries = coll::gather(ctx, cfg, 0, Msg::partial(p), hint)
                            .expect("par: gather misuse");
                        (r, entries)
                    })
                    .collect();
                let mut delta = None;
                for (r, entries) in gathered {
                    let Some(entries) = entries else { continue };
                    // Lost ranks' partials are skipped: their lines stay
                    // holes rather than abort the run.
                    let partials = entries
                        .into_iter()
                        .zip(assignments)
                        .filter_map(|(e, a)| Some((a.first_line, decode(e.into_msg()?))))
                        .collect();
                    let (next, d, steps) = reduce_on_every_core(algo, r, state, partials);
                    for mflops in steps {
                        ctx.compute_seq(mflops);
                    }
                    (state, delta) = (next, d);
                }
                delta_hint.map(|bits| {
                    coll::broadcast(ctx, cfg, 0, delta.map(|d| Msg::Delta(Arc::new(d))), bits)
                        .expect("par: broadcast misuse")
                        .into_delta()
                        .expect("par: protocol violation")
                })
            };
            if let Some(delta) = delta {
                let mflops = algo.install(round, &mut replica, delta);
                if mflops > 0.0 {
                    ctx.compute_par(mflops);
                }
            }
        }
        ctx.is_root().then(|| algo.finish(state))
    })
}

/// A partial off the wire.
fn decode<P: Clone, D>(msg: Msg<P, D>) -> P {
    msg.into_partial().expect("par: protocol violation")
}
