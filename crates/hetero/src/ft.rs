//! Fault-tolerant master/worker drivers.
//!
//! The paper's §5 names fault tolerance as the open problem of
//! heterogeneous remote-sensing clusters: a static WEA partition is only
//! optimal while every processor survives. This module runs any
//! [`ChunkedAlgo`] — the same description `crate::par` runs on a static
//! grid — under `simnet`'s deterministic fault plans in two recovery
//! modes:
//!
//! * [`run_replan`] — **static WEA with re-planning**: each round is cut
//!   into one batch per worker, sized by relative speed (the WEA
//!   apportionment of [`crate::wea::apportion_rows`]). The master awaits
//!   the batches in dispatch order, each until its partial or its
//!   worker's failure marker arrives: a slowed worker is late, never
//!   presumed dead. When a failure marker surfaces, every unfinished
//!   batch of that worker is re-apportioned over the survivors and
//!   re-dispatched. Recovery cost scales with the *lost partition*.
//! * [`run_self_sched`] — **chunked self-scheduling**: rounds are cut
//!   into fixed-size chunks handed to whichever worker is free; a dead
//!   worker's only in-flight chunk goes back on the queue. What is lost
//!   is a *single chunk* and the dead worker's throughput for the rest
//!   of the run (experiment A5 measures both modes).
//!
//! Rank 0 is a **coordinator only** — unlike [`crate::par`], where the
//! root also works a partition. A dedicated master keeps the dispatch
//! loop deterministic (it never has to interleave its own compute with
//! polling) and survives every plan that crashes workers only. It merges
//! a round on a kernel pool as wide as the host, not its share of it:
//! every worker is idle until the next round opens, and every kernel
//! gives the same bits at any width (PCT's covariance shards are summed
//! there, see [`crate::sched::PctChunks`]).
//!
//! **State distribution: a star.** Each round opens with the previous
//! round's delta ([`ChunkedAlgo::Delta`] — a new row of `U`, the class
//! set, the model — or nothing), which every worker installs into its
//! replica, paying the install's charge once per round. The master —
//! the only party that tracks which ranks are alive — sends every
//! surviving worker one `Open { round, delta }` directly, in ascending
//! rank order, and nothing else: the master's fan-out of the one-port
//! master–worker model. No worker sends to another, so every wait in
//! the protocol is master↔worker, and each ends in a message or a
//! failure marker: a worker waits only on the master, which cannot
//! crash (such plans are rejected at startup) and sends `Finish` last;
//! the master waits only on a worker that owes it a `Partial`, which
//! arrives unless the worker's failure marker does first. An opener to
//! a dead worker is dropped; the loss surfaces at the first order it
//! leaves unanswered.
//!
//! **Determinism.** All scheduling decisions are functions of virtual
//! time: the re-planning master waits for each batch's outcome, the
//! self-scheduling master polls its workers in rank order at fixed
//! intervals ([`POLL_INTERVAL_S`]), and `simnet` delivers messages and
//! failure markers at cost-model times. Two runs with the same fault
//! plan produce bit-identical [`RunReport`]s and outputs (asserted by the
//! `fault_injection` integration suite).

use crate::offload::{self, ChunkCost, OffloadPolicy};
use crate::sched::{reduce_on_every_core, ChunkedAlgo};
use crate::wea::apportion_rows;
use simnet::coll::CollectiveConfig;
use simnet::engine::{Engine, Wire};
use simnet::report::RunReport;
use simnet::{Ctx, Platform, RankFailure, RecvError};
use std::collections::VecDeque;
use std::sync::Arc;

/// Idle poll interval (seconds) of the self-scheduling master.
pub const POLL_INTERVAL_S: f64 = 0.02;

/// Knobs of the fault-tolerant drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtOptions {
    /// Chunk size (lines) of the self-scheduling mode.
    pub chunk_lines: usize,
    /// Not read: the master opens every round by sending each surviving
    /// worker its delta directly, whatever schedule this names (see the
    /// module docs). Kept so that callers which set it still build.
    pub collectives: CollectiveConfig,
    /// When workers offload chunks to their node's accelerator (see
    /// [`crate::offload`]). Affects time accounting and batch sizing
    /// only — chunk outputs are bit-identical under every policy.
    pub offload: OffloadPolicy,
}

impl Default for FtOptions {
    fn default() -> Self {
        FtOptions {
            chunk_lines: 8,
            collectives: CollectiveConfig::linear(),
            offload: OffloadPolicy::Never,
        }
    }
}

/// Why a fault-tolerant run produced no output: rejected before the
/// engine spun up any rank (the first two variants), or abandoned
/// mid-run once nothing was left to compute on (the last two).
#[derive(Debug, Clone, PartialEq)]
pub enum FtError {
    /// The fault plan crashes rank 0 — the coordinator. The ft
    /// protocol has a single dispatch loop on rank 0 and no master
    /// re-election, so such a run can only end in every worker dying of
    /// `PeerLost` with no result; it is rejected at startup instead.
    MasterCrashScheduled {
        /// Virtual time of the scheduled coordinator crash.
        at: f64,
    },
    /// The platform has fewer than two processors (a master and at
    /// least one worker are required).
    TooFewRanks {
        /// Processors in the platform.
        num_procs: usize,
    },
    /// The master observed the failure marker of its last surviving
    /// worker with work still outstanding: no rank is left to compute
    /// the remaining lines.
    AllWorkersLost {
        /// Round in which the last worker was lost.
        round: usize,
        /// Every rank failure of the run, as the engine reported them.
        failures: Vec<RankFailure>,
    },
    /// Rank 0 left the run without an output although no coordinator
    /// crash was scheduled (it was unwound by a panic or a lost peer —
    /// see the rank-0 entry of `failures`).
    MasterFailed {
        /// Every rank failure of the run, as the engine reported them.
        failures: Vec<RankFailure>,
    },
}

impl std::fmt::Display for FtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtError::MasterCrashScheduled { at } => write!(
                f,
                "ft: fault plan crashes rank 0 (the coordinator) at {at:.6}s; \
                 the ft drivers have no master re-election, so the run cannot complete"
            ),
            FtError::TooFewRanks { num_procs } => write!(
                f,
                "ft: need a master and at least one worker (platform has {num_procs} processor(s))"
            ),
            FtError::AllWorkersLost { round, failures } => write!(
                f,
                "ft: all workers lost in round {round} (failures: {failures:?})"
            ),
            FtError::MasterFailed { failures } => {
                write!(f, "ft: master produced no result (failures: {failures:?})")
            }
        }
    }
}

impl std::error::Error for FtError {}

/// One detected worker loss and the work it orphaned.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// The lost worker's rank.
    pub rank: usize,
    /// Virtual time the worker actually failed.
    pub at: f64,
    /// Virtual time the master observed the failure.
    pub detected_at: f64,
    /// Image lines that were re-dispatched.
    pub lines: usize,
    /// Round in which the loss was detected.
    pub round: usize,
}

/// Outcome of a fault-tolerant run.
#[derive(Debug, Clone)]
pub struct FtRun<O> {
    /// The analysis result, complete despite any worker losses.
    pub output: O,
    /// Every detected loss, in detection order.
    pub recoveries: Vec<Recovery>,
    /// Timing report (failures of crashed workers included).
    pub report: RunReport<()>,
}

/// Master/worker wire protocol. Headers are a few machine words; deltas
/// and partials carry their payloads' wire sizes.
enum FtMsg<D, P> {
    /// Round opener, master → every surviving worker directly: the
    /// previous round's `delta` (the round number rides along for the
    /// install; each `Assign` carries its own). Shared — every send of
    /// `delta` is a refcount bump, not a copy.
    Open { round: usize, delta: Option<Arc<D>> },
    /// Work order for lines `[first, first + n)`.
    Assign {
        round: usize,
        first: usize,
        n: usize,
    },
    /// A chunk's result. A worker answers its orders in arrival order,
    /// one `Partial` each, so the master pairs a `Partial` with the
    /// oldest order it has outstanding at that worker (the
    /// self-scheduler keeps at most one).
    Partial { data: P },
    /// No more rounds; the worker exits.
    Finish,
}

impl<D: Wire + Sync, P: Wire> Wire for FtMsg<D, P> {
    fn size_bits(&self) -> u64 {
        match self {
            FtMsg::Open { delta, .. } => 96 + delta.as_ref().map_or(0, |d| d.size_bits()),
            // Round, first line and count.
            FtMsg::Assign { .. } => 192,
            // The first line and count a worker returns with its data.
            FtMsg::Partial { data } => 128 + data.size_bits(),
            FtMsg::Finish => 8,
        }
    }
}

/// The recovery mode of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Replan,
    SelfSched,
}

/// Runs `algo` with static speed-proportional batches, re-planning the
/// orphaned lines over the survivors when a worker is lost.
///
/// # Panics
/// Panics with the [`FtError`] message if the run cannot produce an
/// output: fewer than two processors or a scheduled rank-0 crash
/// (detected at startup, before any rank spins up), or every worker
/// lost mid-run. Use [`try_run_replan`] for the structured error.
pub fn run_replan<A>(engine: &Engine, algo: &A, opts: &FtOptions) -> FtRun<A::Output>
where
    A: ChunkedAlgo + Sync,
    A::Output: Send,
{
    match try_run_replan(engine, algo, opts) {
        Ok(run) => run,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`run_replan`]: structurally doomed runs
/// (coordinator crash scheduled, too few ranks) are rejected before the
/// engine starts, and a run that loses every worker ends with
/// [`FtError::AllWorkersLost`] — never a panic.
pub fn try_run_replan<A>(
    engine: &Engine,
    algo: &A,
    opts: &FtOptions,
) -> Result<FtRun<A::Output>, FtError>
where
    A: ChunkedAlgo + Sync,
    A::Output: Send,
{
    run_mode(engine, algo, opts, Mode::Replan)
}

/// Runs `algo` with fixed-size chunk self-scheduling, re-queueing a
/// lost worker's in-flight chunk.
///
/// The chunk grid is fixed by [`FtOptions::chunk_lines`], so the output
/// is identical whichever workers compute which chunks — crashed or
/// not (asserted by the `fault_injection` suite).
///
/// # Panics
/// Panics with the [`FtError`] message if the run cannot produce an
/// output: fewer than two processors or a scheduled rank-0 crash
/// (detected at startup, before any rank spins up), or every worker
/// lost mid-run. Use [`try_run_self_sched`] for the structured error.
pub fn run_self_sched<A>(engine: &Engine, algo: &A, opts: &FtOptions) -> FtRun<A::Output>
where
    A: ChunkedAlgo + Sync,
    A::Output: Send,
{
    match try_run_self_sched(engine, algo, opts) {
        Ok(run) => run,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`run_self_sched`]: structurally doomed runs
/// (coordinator crash scheduled, too few ranks) are rejected before the
/// engine starts, and a run that loses every worker ends with
/// [`FtError::AllWorkersLost`] — never a panic.
pub fn try_run_self_sched<A>(
    engine: &Engine,
    algo: &A,
    opts: &FtOptions,
) -> Result<FtRun<A::Output>, FtError>
where
    A: ChunkedAlgo + Sync,
    A::Output: Send,
{
    run_mode(engine, algo, opts, Mode::SelfSched)
}

fn run_mode<A>(
    engine: &Engine,
    algo: &A,
    opts: &FtOptions,
    mode: Mode,
) -> Result<FtRun<A::Output>, FtError>
where
    A: ChunkedAlgo + Sync,
    A::Output: Send,
{
    let num_procs = engine.platform().num_procs();
    if num_procs < 2 {
        return Err(FtError::TooFewRanks { num_procs });
    }
    // Fail fast on a doomed run: the coordinator has no stand-in, so a
    // planned rank-0 crash means no rank can ever produce the output —
    // catch it here instead of spinning up P threads that all die of
    // cascading PeerLost.
    if let Some(at) = engine.faults().crash_time(0) {
        return Err(FtError::MasterCrashScheduled { at });
    }
    let (root, report) = engine
        .run(|ctx: &mut Ctx<FtMsg<A::Delta, A::Partial>>| {
            if ctx.is_root() {
                Some(master(ctx, algo, opts, mode))
            } else {
                worker_loop(ctx, algo, opts.offload);
                None
            }
        })
        .into_root();
    match root {
        Some(Ok((output, recoveries))) => Ok(FtRun {
            output,
            recoveries,
            report,
        }),
        Some(Err(AllWorkersLost { round })) => Err(FtError::AllWorkersLost {
            round,
            failures: report.failures,
        }),
        None => Err(FtError::MasterFailed {
            failures: report.failures,
        }),
    }
}

/// Worker side of both recovery modes: take each round's `Open`er and
/// install its delta into the worker's replica, then obey `Assign`
/// orders until the next opener or `Finish`. A chunk is charged what
/// [`ChunkedAlgo::run_chunk`] reports, through the offload `policy` —
/// host or device per [`offload::decide`] — while the chunk itself
/// always runs the host kernel (bit-identical outputs).
fn worker_loop<A: ChunkedAlgo>(
    ctx: &mut Ctx<FtMsg<A::Delta, A::Partial>>,
    algo: &A,
    policy: OffloadPolicy,
) {
    // The replica lives as long as the worker does and dies with a
    // crash — which is why it holds only what the modelled node would (a
    // handle on a detector's system, which the algorithm builds once per
    // round for every worker); what an algorithm remembers about the
    // image lines it keeps itself, for whichever worker scores them next.
    let mut replica = algo.replica();
    loop {
        let (round, delta) = match ctx.recv(0) {
            FtMsg::Open { round, delta } => (round, delta),
            FtMsg::Assign { round, first, n } => {
                let (data, charge) = algo.run_chunk(round, &replica, first, n);
                offload::charge_chunk(ctx, policy, &charge);
                ctx.send(0, FtMsg::Partial { data });
                continue;
            }
            FtMsg::Finish => break,
            // Unreachable: `master`'s sends are `Open`, `Assign` and
            // `Finish`, and a worker hears from the master alone.
            FtMsg::Partial { .. } => unreachable!("ft: the master sends no Partial"),
        };
        // A round opens with the delta of the round before it.
        if let Some(delta) = delta {
            let mflops = algo.install(round - 1, &mut replica, delta);
            if mflops > 0.0 {
                ctx.compute_par(mflops);
            }
        }
    }
}

/// Master-side bookkeeping shared by both recovery modes.
struct Roster {
    /// The alive set, by rank. Rank 0 — the master itself — never
    /// leaves it.
    alive: Vec<bool>,
    /// Every detected loss, in detection order.
    recoveries: Vec<Recovery>,
}

impl Roster {
    /// Every rank of a `p`-rank run alive.
    fn new(p: usize) -> Self {
        Roster {
            alive: vec![true; p],
            recoveries: Vec::new(),
        }
    }

    /// The surviving workers, ascending.
    fn workers(&self) -> Vec<usize> {
        (1..self.alive.len()).filter(|&r| self.alive[r]).collect()
    }

    /// Records the loss of worker `f.rank`, observed now in `round` with
    /// `lines` image lines orphaned: the rank leaves the alive set and
    /// the recovery span covers crash → detection — the window the
    /// master spent waiting on a dead rank, which is the recovery cost
    /// the profiler attributes.
    fn lose<M: Wire>(&mut self, ctx: &mut Ctx<M>, f: &RankFailure, round: usize, lines: usize) {
        let detected_at = ctx.elapsed();
        self.alive[f.rank] = false;
        self.recoveries.push(Recovery {
            rank: f.rank,
            at: f.at,
            detected_at,
            lines,
            round,
        });
        ctx.mark_recovery(f.at, f.rank);
    }

    /// `Err` once the alive set holds the master alone, i.e. nobody is
    /// left to take the lines `round` still owes.
    fn ensure_workers(&self, round: usize) -> Result<(), AllWorkersLost> {
        if self.alive[1..].contains(&true) {
            Ok(())
        } else {
            Err(AllWorkersLost { round })
        }
    }
}

/// The master's verdict that no worker survives to take the lines still
/// outstanding in `round`; [`run_mode`] pairs it with the engine's
/// failure list as [`FtError::AllWorkersLost`].
struct AllWorkersLost {
    round: usize,
}

/// Splits lines `[first, first + n)` over the surviving `workers`
/// (non-empty — callers go through [`Roster::ensure_workers`]) in
/// proportion to their speed on `platform`; returns `(first, n, worker)`
/// slices.
fn split_lines(
    first: usize,
    n: usize,
    workers: &[usize],
    platform: &Platform,
) -> Vec<(usize, usize, usize)> {
    let speed = |w: usize| platform.proc(w).speed();
    let total: f64 = workers.iter().map(|&w| speed(w)).sum();
    let fractions: Vec<f64> = workers.iter().map(|&w| speed(w) / total).collect();
    let rows = apportion_rows(&fractions, n);
    let mut out = Vec::new();
    let mut f = first;
    for (i, &w) in workers.iter().enumerate() {
        if rows[i] > 0 {
            out.push((f, rows[i], w));
            f += rows[i];
        }
    }
    out
}

/// The coordinator of both recovery modes: per round, send every
/// surviving worker the previous round's delta, run the mode's
/// dispatch/collect policy to a full set of partials, merge them in line
/// order, charging each step; finally release the workers. Gives up —
/// with every worker already dead, so nobody is left waiting on rank 0 —
/// as soon as a round has lines outstanding and no survivor to take
/// them.
fn master<A: ChunkedAlgo>(
    ctx: &mut Ctx<FtMsg<A::Delta, A::Partial>>,
    algo: &A,
    opts: &FtOptions,
    mode: Mode,
) -> Result<(A::Output, Vec<Recovery>), AllWorkersLost> {
    let p = ctx.num_ranks();
    let mut roster = Roster::new(p);
    let (mut state, mut delta) = (algo.initial_state(), None);

    for round in 0..algo.rounds() {
        for w in roster.workers() {
            ctx.send(
                w,
                FtMsg::Open {
                    round,
                    delta: delta.clone(),
                },
            );
        }
        let mut partials = match mode {
            Mode::Replan => collect_replan(ctx, algo, &state, opts, &mut roster, round),
            Mode::SelfSched => collect_self_sched(ctx, algo, opts, &mut roster, round),
        }?;
        partials.sort_by_key(|&(first, _)| first);
        let (next, next_delta, steps) = reduce_on_every_core(algo, round, state, partials);
        for mflops in steps {
            ctx.compute_seq(mflops);
        }
        (state, delta) = (next, next_delta.map(Arc::new));
    }

    for w in 1..p {
        // Dead workers drop the message silently.
        ctx.send(w, FtMsg::Finish);
    }
    Ok((algo.finish(state), roster.recoveries))
}

/// One round of the re-planning policy: one speed-proportional batch per
/// surviving worker, each awaited until its partial or its worker's
/// failure marker arrives; a lost worker's unfinished batches are
/// re-apportioned over the survivors.
fn collect_replan<A: ChunkedAlgo>(
    ctx: &mut Ctx<FtMsg<A::Delta, A::Partial>>,
    algo: &A,
    state: &A::State,
    opts: &FtOptions,
    roster: &mut Roster,
    round: usize,
) -> Result<Vec<(usize, A::Partial)>, AllWorkersLost> {
    let p = ctx.num_ranks();
    // Per-round *effective* speeds: with offloading enabled a
    // device-bearing node is proportionally faster for this round's
    // kernel (launch + transfers amortized over an even-split batch), so
    // the WEA apportionment hands it more lines. With `Never` the folded
    // platform carries the real cycle-times.
    let rep_lines = algo.lines().div_ceil((p - 1).max(1)).max(1);
    let rep = ChunkCost::new(
        algo.chunk_mflops(round, state, 0, rep_lines),
        algo.chunk_bytes(round, state, 0, rep_lines),
    );
    let effective = offload::effective_platform(ctx.platform(), opts.offload, &rep);

    // Batches `(first, n, worker)` in dispatch order, the order the
    // master awaits them in.
    let mut batches = VecDeque::new();
    let dispatch = |ctx: &mut Ctx<FtMsg<A::Delta, A::Partial>>,
                    roster: &Roster,
                    batches: &mut VecDeque<(usize, usize, usize)>,
                    first: usize,
                    n: usize| {
        let split = split_lines(first, n, &roster.workers(), &effective);
        let largest = split.iter().map(|&(_, n, _)| n).max().unwrap_or(0);
        algo.reserve(round, largest);
        for (first, n, w) in split {
            ctx.send(w, FtMsg::Assign { round, first, n });
            batches.push_back((first, n, w));
        }
    };
    roster.ensure_workers(round)?;
    dispatch(ctx, roster, &mut batches, 0, algo.lines());

    let mut partials: Vec<(usize, A::Partial)> = Vec::new();
    while let Some((first, n, w)) = batches.pop_front() {
        // Per-pair FIFO: every earlier batch of `w` is done, so its next
        // partial is this batch's.
        match ctx.recv_deadline(w, f64::INFINITY) {
            Ok(FtMsg::Partial { data }) => partials.push((first, data)),
            // Unreachable: `worker_loop`'s one send is a `Partial`.
            Ok(_) => unreachable!("ft: workers send Partial only"),
            // Unreachable: a worker leaves cleanly only on `Finish`, and
            // `Finish` follows the last round.
            Err(RecvError::Timeout { .. }) => unreachable!("ft: a worker left mid-round"),
            Err(RecvError::Failed(f)) => {
                let mut orphans = vec![(first, n, w)];
                orphans.extend(batches.iter().filter(|b| b.2 == w));
                batches.retain(|b| b.2 != w);
                roster.lose(ctx, &f, round, orphans.iter().map(|b| b.1).sum());
                roster.ensure_workers(round)?;
                for (of, on, _) in orphans {
                    dispatch(ctx, roster, &mut batches, of, on);
                }
            }
        }
    }
    Ok(partials)
}

/// One round of the self-scheduling policy: the fixed chunk grid is
/// handed out chunk by chunk to whichever surviving worker is free; a
/// lost worker's in-flight chunk goes back on the queue.
fn collect_self_sched<A: ChunkedAlgo>(
    ctx: &mut Ctx<FtMsg<A::Delta, A::Partial>>,
    algo: &A,
    opts: &FtOptions,
    roster: &mut Roster,
    round: usize,
) -> Result<Vec<(usize, A::Partial)>, AllWorkersLost> {
    let p = ctx.num_ranks();
    let chunk = opts.chunk_lines.max(1);
    // The FIXED chunk grid: output does not depend on which worker
    // computes which chunk, so crashes cannot change the result.
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    let mut first = 0;
    while first < algo.lines() {
        let n = chunk.min(algo.lines() - first);
        queue.push_back((first, n));
        first += n;
    }
    algo.reserve(round, chunk.min(algo.lines()));
    let total_chunks = queue.len();
    let mut done = 0usize;
    let mut outstanding: Vec<Option<(usize, usize)>> = vec![None; p];
    let mut partials: Vec<(usize, A::Partial)> = Vec::new();

    while done < total_chunks {
        roster.ensure_workers(round)?;
        // Hand every free surviving worker the next queued chunk.
        for (w, slot) in outstanding.iter_mut().enumerate().skip(1) {
            if roster.alive[w] && slot.is_none() {
                if let Some((first, n)) = queue.pop_front() {
                    ctx.send(w, FtMsg::Assign { round, first, n });
                    *slot = Some((first, n));
                }
            }
        }
        // Poll workers with an outstanding chunk in rank order at the
        // current virtual instant (a past deadline never advances time).
        // A worker that owes nothing (a lost one included: its slot was
        // cleared) is never polled — its channel may stay silent until
        // the next round, and a receive would block on it for good.
        let now = ctx.elapsed();
        let mut productive = false;
        for (w, slot) in outstanding.iter_mut().enumerate().skip(1) {
            let Some((cf, cn)) = *slot else {
                continue;
            };
            match ctx.recv_deadline(w, now) {
                Ok(FtMsg::Partial { data }) => {
                    *slot = None;
                    partials.push((cf, data));
                    done += 1;
                    productive = true;
                }
                // Unreachable: `worker_loop`'s one send is a `Partial`.
                Ok(_) => unreachable!("ft: workers send Partial only"),
                Err(RecvError::Timeout { .. }) => {}
                Err(RecvError::Failed(f)) => {
                    // The in-flight chunk goes back on the queue front —
                    // the next free worker picks the orphaned chunk up
                    // first.
                    *slot = None;
                    queue.push_front((cf, cn));
                    roster.lose(ctx, &f, round, cn);
                    productive = true;
                }
            }
        }
        if !productive && done < total_chunks {
            ctx.wait_until(ctx.elapsed() + POLL_INTERVAL_S);
        }
    }
    Ok(partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgoParams;
    use crate::sched::AtdcaChunks;
    use hsi_cube::synth::{wtc_scene, WtcConfig};
    use simnet::trace::TraceKind;
    use simnet::{presets, FailureCause, FaultPlan};

    fn scene() -> hsi_cube::synth::SyntheticScene {
        wtc_scene(WtcConfig::tiny())
    }

    fn params() -> AlgoParams {
        AlgoParams {
            num_targets: 6,
            ..Default::default()
        }
    }

    fn coords(targets: &[crate::seq::DetectedTarget]) -> Vec<(usize, usize)> {
        targets.iter().map(|t| (t.line, t.sample)).collect()
    }

    #[test]
    fn self_sched_fault_free_matches_sequential() {
        let s = scene();
        let p = params();
        let seq = crate::seq::atdca(&s.cube, &p);
        let engine = Engine::new(presets::fully_heterogeneous());
        let algo = AtdcaChunks::new(&s.cube, &p);
        let run = run_self_sched(&engine, &algo, &FtOptions::default());
        assert_eq!(coords(&run.output), coords(&seq.result));
        assert!(run.recoveries.is_empty());
        assert!(run.report.ok());
    }

    #[test]
    fn replan_fault_free_matches_sequential() {
        let s = scene();
        let p = params();
        let seq = crate::seq::atdca(&s.cube, &p);
        let engine = Engine::new(presets::fully_heterogeneous());
        let algo = AtdcaChunks::new(&s.cube, &p);
        let run = run_replan(&engine, &algo, &FtOptions::default());
        assert_eq!(coords(&run.output), coords(&seq.result));
        assert!(run.recoveries.is_empty());
    }

    #[test]
    fn self_sched_recovers_from_mid_run_crash() {
        let s = scene();
        let p = params();
        let seq = crate::seq::atdca(&s.cube, &p);
        let engine = Engine::new(presets::fully_heterogeneous())
            .with_faults(FaultPlan::new().crash(3, 0.05));
        let algo = AtdcaChunks::new(&s.cube, &p);
        let run = run_self_sched(&engine, &algo, &FtOptions::default());
        assert_eq!(coords(&run.output), coords(&seq.result));
        assert_eq!(run.recoveries.len(), 1);
        assert_eq!(run.recoveries[0].rank, 3);
        assert!(run.recoveries[0].detected_at >= run.recoveries[0].at);
        let f = run.report.failure_of(3).expect("failure recorded");
        assert_eq!(f.cause, FailureCause::Crash);
    }

    #[test]
    fn replan_recovers_from_mid_run_crash() {
        let s = scene();
        let p = params();
        let seq = crate::seq::atdca(&s.cube, &p);
        let engine = Engine::new(presets::fully_heterogeneous())
            .with_faults(FaultPlan::new().crash(5, 0.03));
        let algo = AtdcaChunks::new(&s.cube, &p);
        let run = run_replan(&engine, &algo, &FtOptions::default());
        assert_eq!(coords(&run.output), coords(&seq.result));
        assert_eq!(run.recoveries.len(), 1);
        assert_eq!(run.recoveries[0].rank, 5);
        assert!(run.recoveries[0].lines > 0);
    }

    #[test]
    fn replan_survives_heavy_slowdown_without_unbounded_extension() {
        // A worker slowed 60× for the whole run is late, not dead: the
        // master must not declare it failed, and waits for its partial.
        let s = scene();
        let p = params();
        let seq = crate::seq::atdca(&s.cube, &p);
        let algo = AtdcaChunks::new(&s.cube, &p);
        let run_once = || {
            let engine = Engine::new(presets::fully_heterogeneous()).with_faults(
                FaultPlan::new()
                    .slowdown(2, 0.0, 1e6, 60.0)
                    .slowdown(5, 0.0, 1e6, 25.0),
            );
            run_replan(&engine, &algo, &FtOptions::default())
        };
        let run = run_once();
        assert_eq!(coords(&run.output), coords(&seq.result));
        assert!(run.recoveries.is_empty(), "slowdown must not be a failure");
        assert!(run.report.ok());
        // The round ends when the slowed stragglers deliver, at the
        // same instant on a rerun.
        let rerun = run_once();
        assert_eq!(run.report, rerun.report);
    }

    /// Rank 0's undelivered receives (deadline timeouts and failure
    /// observations) in a traced re-planning run, and its recoveries.
    fn replan_undelivered_receives(engine: &Engine, algo: &AtdcaChunks) -> (usize, Vec<Recovery>) {
        let opts = FtOptions::default();
        let (report, trace) = engine.run_traced(|ctx: &mut Ctx<FtMsg<_, _>>| {
            if ctx.is_root() {
                Some(master(ctx, algo, &opts, Mode::Replan))
            } else {
                worker_loop(ctx, algo, opts.offload);
                None
            }
        });
        let Some(Ok((_, recoveries))) = report.into_root().0 else {
            panic!("the master produced no output");
        };
        let undelivered = trace
            .for_rank(0)
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::Recv {
                        delivered: false,
                        ..
                    }
                )
            })
            .count();
        (undelivered, recoveries)
    }

    #[test]
    fn replan_master_waits_only_on_failure_observations() {
        let s = scene();
        let p = params();
        let algo = AtdcaChunks::new(&s.cube, &p);
        let slowed = Engine::new(presets::fully_heterogeneous()).with_faults(
            FaultPlan::new()
                .slowdown(2, 0.0, 1e6, 60.0)
                .slowdown(5, 0.0, 1e6, 25.0),
        );
        let (undelivered, recoveries) = replan_undelivered_receives(&slowed, &algo);
        assert!(recoveries.is_empty());
        assert_eq!(
            undelivered, 0,
            "a slowed worker's batch is awaited, not timed out"
        );
        let crashed = Engine::new(presets::fully_heterogeneous()).with_faults(
            FaultPlan::new()
                .crash(2, 0.02)
                .crash(4, 0.04)
                .slowdown(5, 0.0, 0.5, 2.5)
                .link_outage(0, 7, 0.01, 0.05),
        );
        let (undelivered, recoveries) = replan_undelivered_receives(&crashed, &algo);
        assert_eq!(recoveries.len(), 2);
        assert_eq!(
            undelivered,
            recoveries.len(),
            "one failure observation per loss"
        );
    }

    #[test]
    fn master_crash_plan_is_rejected_at_startup() {
        let s = scene();
        let p = params();
        let algo = AtdcaChunks::new(&s.cube, &p);
        let engine =
            Engine::new(presets::fully_heterogeneous()).with_faults(FaultPlan::new().crash(0, 0.1));
        let err = try_run_replan(&engine, &algo, &FtOptions::default())
            .expect_err("coordinator crash must be rejected");
        assert_eq!(err, FtError::MasterCrashScheduled { at: 0.1 });
        assert!(err.to_string().contains("rank 0"));
        let err = try_run_self_sched(&engine, &algo, &FtOptions::default())
            .expect_err("coordinator crash must be rejected");
        assert!(matches!(err, FtError::MasterCrashScheduled { .. }));
    }

    #[test]
    fn master_crash_plan_panics_with_structured_message() {
        let s = scene();
        let p = params();
        let algo = AtdcaChunks::new(&s.cube, &p);
        let engine = Engine::new(presets::fully_heterogeneous())
            .with_faults(FaultPlan::new().crash(0, 0.25));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = run_self_sched(&engine, &algo, &FtOptions::default());
        }))
        .expect_err("must panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("coordinator"), "got: {msg}");
    }

    #[test]
    fn the_roster_drops_each_newly_observed_loss_once() {
        // Down to the master alone: every new loss — the last one
        // included — shrinks the survivor list; a loss observed again
        // changes nothing.
        let report = Engine::new(simnet::Platform::uniform("u4", 4, 0.01, 64, 1.0)).run(|ctx| {
            if !ctx.is_root() {
                return None;
            }
            let mut roster = Roster::new(4);
            let mut seen = Vec::new();
            for rank in [3, 1, 3, 2] {
                let f = RankFailure {
                    rank,
                    at: 0.0,
                    cause: FailureCause::Crash,
                };
                roster.lose::<()>(ctx, &f, 0, 0);
                let survivors: Vec<usize> = (0..4).filter(|&r| roster.alive[r]).collect();
                seen.push((survivors, roster.workers()));
            }
            Some((seen, roster.ensure_workers(0).is_err()))
        });
        let (seen, all_lost) = report.result(0).clone().expect("master ran");
        assert_eq!(
            seen,
            [
                (vec![0, 1, 2], vec![1, 2]),
                (vec![0, 2], vec![2]),
                (vec![0, 2], vec![2]),
                (vec![0], vec![]),
            ]
        );
        assert!(all_lost, "the master alone owes lines to nobody");
    }

    #[test]
    fn identical_fault_plans_are_bit_deterministic() {
        let s = scene();
        let p = params();
        let algo = AtdcaChunks::new(&s.cube, &p);
        let run_once = || {
            let engine = Engine::new(presets::fully_heterogeneous())
                .with_faults(FaultPlan::new().crash(2, 0.03).slowdown(4, 0.0, 0.2, 3.0));
            run_self_sched(&engine, &algo, &FtOptions::default())
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.report, b.report);
        assert_eq!(coords(&a.output), coords(&b.output));
        assert_eq!(a.recoveries, b.recoveries);
    }

    /// Every instant worth crashing each worker at, from a fault-free
    /// traced run of `algo` under `mode`: every distinct `start` / `end`
    /// the worker reaches, one ulp before each, and halfway to the next.
    /// A crash materialises on the victim's first activity at or after
    /// its instant, so these cover every operation a crash can cut.
    fn crash_instants<A>(engine: &Engine, algo: &A, opts: &FtOptions, mode: Mode) -> Vec<Vec<f64>>
    where
        A: ChunkedAlgo + Sync,
    {
        let (_, trace) = engine.run_traced(|ctx: &mut Ctx<FtMsg<A::Delta, A::Partial>>| {
            if ctx.is_root() {
                assert!(master(ctx, algo, opts, mode).is_ok());
            } else {
                worker_loop(ctx, algo, opts.offload);
            }
        });
        (1..engine.platform().num_procs())
            .map(|w| {
                let mut reached: Vec<f64> =
                    trace.for_rank(w).flat_map(|e| [e.start, e.end]).collect();
                reached.sort_by(f64::total_cmp);
                reached.dedup();
                let mut instants = Vec::new();
                for (i, &t) in reached.iter().enumerate() {
                    instants.push(t);
                    if t > 0.0 {
                        instants.push(t.next_down());
                    }
                    if let Some(&next) = reached.get(i + 1) {
                        instants.push(t + (next - t) / 2.0);
                    }
                }
                instants
            })
            .collect()
    }

    /// Crashes each worker of `engine`'s platform at every instant of
    /// [`crash_instants`] under `mode`: the output must be the fault-free
    /// one where `same_output`, `sound` always, and every recovery must
    /// name the crashed rank, once. Returns the number of crashed runs.
    fn every_single_crash<A>(
        engine: &Engine,
        algo: &A,
        mode: Mode,
        same_output: bool,
        sound: impl Fn(&A::Output) -> bool,
    ) -> usize
    where
        A: ChunkedAlgo + Sync,
        A::Output: crate::OutputDigest + Send,
    {
        use crate::OutputDigest;
        let opts = FtOptions {
            chunk_lines: 4,
            ..FtOptions::default()
        };
        let drive = |engine: &Engine| match mode {
            Mode::Replan => run_replan(engine, algo, &opts),
            Mode::SelfSched => run_self_sched(engine, algo, &opts),
        };
        let clean = drive(engine).output.digest64();
        let mut runs = 0;
        for (i, instants) in crash_instants(engine, algo, &opts, mode)
            .into_iter()
            .enumerate()
        {
            let rank = i + 1;
            for at in instants {
                let what = format!("{} {mode:?}, crash({rank}) at {at:e}", algo.name());
                let run = drive(&engine.clone().with_faults(FaultPlan::new().crash(rank, at)));
                if same_output {
                    assert_eq!(run.output.digest64(), clean, "{what}: output moved");
                }
                assert!(sound(&run.output), "{what}: a pixel went unlabelled");
                assert!(run.recoveries.len() <= 1, "{what}: recovered twice");
                assert!(run.recoveries.iter().all(|r| r.rank == rank), "{what}");
                runs += 1;
            }
        }
        runs
    }

    /// Single-crash enumeration of the ft protocol at small scope: four
    /// algorithms × both drivers on a four-rank random platform, each
    /// worker crashed at every instant that can make a difference.
    #[test]
    fn every_single_crash_instant_keeps_the_promised_output() {
        let s = wtc_scene(WtcConfig {
            lines: 16,
            samples: 16,
            bands: 32,
            ..Default::default()
        });
        let p = AlgoParams {
            num_targets: 3,
            morph_iterations: 1,
            ..Default::default()
        };
        let engine = Engine::new(presets::random_heterogeneous(45, 4, 3, 0.002, 0.05));
        let pixels = s.cube.lines() * s.cube.samples();
        let labelled = |labels: &hsi_cube::LabelImage| {
            let labels = labels.as_slice();
            labels.len() == pixels && labels.iter().all(|&l| usize::from(l) < p.num_classes)
        };
        let atdca = AtdcaChunks::new(&s.cube, &p);
        let ufcls = crate::sched::UfclsChunks::new(&s.cube, &p);
        let pct = crate::sched::PctChunks::new(&s.cube, &p);
        let morph = crate::sched::MorphChunks::new(&s.cube, &p);
        let mut runs = 0;
        for mode in [Mode::Replan, Mode::SelfSched] {
            let same = mode == Mode::SelfSched;
            runs += every_single_crash(&engine, &atdca, mode, true, |_| true);
            runs += every_single_crash(&engine, &ufcls, mode, true, |_| true);
            runs += every_single_crash(&engine, &pct, mode, same, |o| labelled(&o.0));
            runs += every_single_crash(&engine, &morph, mode, same, |o| labelled(&o.0));
        }
        eprintln!("{runs} single-crash runs");
    }
}
