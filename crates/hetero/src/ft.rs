//! Fault-tolerant master/worker drivers.
//!
//! The paper's §5 names fault tolerance as the open problem of
//! heterogeneous remote-sensing clusters: a static WEA partition is only
//! optimal while every processor survives. This module runs any
//! [`ChunkedAlgo`] under `simnet`'s deterministic fault plans in two
//! recovery modes:
//!
//! * [`run_replan`] — **static WEA with re-planning**: each round is cut
//!   into one batch per worker, sized by relative speed (the WEA
//!   apportionment of [`crate::wea::apportion_rows`]). The master awaits
//!   each batch under an analytic completion deadline; when a worker's
//!   failure marker surfaces, every unfinished batch of that worker is
//!   re-apportioned over the survivors and re-dispatched. Recovery cost
//!   scales with the *lost partition*.
//! * [`run_self_sched`] — **chunked self-scheduling**: rounds are cut
//!   into fixed-size chunks handed to whichever worker is free; a dead
//!   worker's only in-flight chunk goes back on the queue. Recovery cost
//!   scales with a *single chunk*, which is why self-scheduling wins for
//!   mid-run crashes (experiment A5).
//!
//! Rank 0 is a **coordinator only** — unlike [`crate::par`], where the
//! root also works a partition. A dedicated master keeps the dispatch
//! loop deterministic (it never has to interleave its own compute with
//! polling) and survives every plan that crashes workers only.
//!
//! **State distribution.** With the default
//! [`FtOptions::collectives`] (linear) the master fans the round state
//! to every worker directly — bit- and timing-identical to the historic
//! path. Any other broadcast algorithm enables **tree mode**: the
//! master keeps an epoch-stamped [`Membership`] view (the epoch bumps
//! on every observed failure), opens each round by sending a tiny
//! `(epoch, survivors, algorithm)` header to every survivor, and ships
//! the large state down the survivor-set schedule tree, where workers
//! relay it to their tree children and then send one `StateAck` back.
//! The master collects an ack (or the failure marker) from every
//! survivor **before dispatching any work** — a state-distribution
//! barrier. The barrier is what keeps the protocol deadlock-free: the
//! engine has no non-blocking poll (`recv_deadline` physically waits
//! for the peer's next packet), so a rank may only ever block on a
//! channel whose peer is bound to send again; with the barrier, every
//! wait in the protocol is of that kind. Crashed interior relays are
//! routed around at the next view; a worker orphaned *mid-round* (its
//! relay parent died before forwarding) requests the state directly
//! from the master, which answers from the round's shared `Arc` during
//! the ack sweep — under the epoch frozen at round start. Epoch-stamped
//! messages from a superseded view are dropped as stale, never folded
//! into the current round. [`CollAlgorithm::PipelinedChunked`]
//! normalizes to the segment-hierarchical tree it shares: chunk
//! streaming composes poorly with mid-round rescue (every chunk is a
//! full payload with partial charge).
//!
//! **Determinism.** All scheduling decisions are functions of virtual
//! time: the master polls workers in rank order at deadlines computed
//! from the analytic cost model ([`ChunkedAlgo::chunk_mflops`]) or at
//! fixed poll intervals, and `simnet` delivers messages and failure
//! markers at cost-model times. Two runs with the same fault plan
//! produce bit-identical [`RunReport`]s and outputs (asserted by the
//! `fault_injection` integration suite).

use crate::offload::{self, ChunkCost, OffloadPolicy};
use crate::sched::ChunkedAlgo;
use crate::wea::apportion_rows;
use simnet::coll::{self, CollAlgorithm, CollOp, CollectiveConfig, Membership};
use simnet::engine::{Engine, Wire};
use simnet::report::RunReport;
use simnet::{Ctx, RankFailure, RecvError};
use std::collections::VecDeque;
use std::sync::Arc;

/// Deadline factor κ of the re-planning mode: a batch estimated at `e`
/// seconds is declared late after `κ·e` (late batches merely extend the
/// deadline — only a failure marker is authoritative).
pub const FAILURE_THRESHOLD: f64 = 4.0;

/// Deadline extension (seconds) after a late batch of the re-planning
/// mode.
pub const MARGIN_S: f64 = 0.05;

/// Idle poll interval (seconds) of the self-scheduling master.
pub const POLL_INTERVAL_S: f64 = 0.02;

/// Knobs of the fault-tolerant drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtOptions {
    /// Chunk size (lines) of the self-scheduling mode.
    pub chunk_lines: usize,
    /// Collective configuration of the round-state distribution. Only
    /// the `broadcast` slot matters here:
    /// [`CollAlgorithm::Linear`] (the default) runs the historic
    /// direct fan-out, bit- and timing-identical to earlier releases;
    /// anything else enables the epoch-stamped survivor-tree mode (see
    /// the module docs).
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

/// Master/worker wire protocol. Headers are a few machine words; state
/// and partial payloads carry the algorithm-reported wire sizes.
enum FtMsg<S, P> {
    /// Linear-mode round start: the state every worker needs (the round
    /// number rides on each `Assign`). Shared — the master fans one
    /// `Arc` to every worker, so each send is a refcount bump, not a
    /// state copy.
    Round { state: Arc<S>, bits: u64 },
    /// Tree-mode round header, master → every survivor directly: the
    /// epoch-stamped membership view and the concrete (master-resolved)
    /// schedule algorithm of this round's state tree. A worker cannot
    /// know its tree parent before it holds this header, which is why
    /// the header fan-out stays linear — P−1 tiny sends paid before the
    /// large state goes down the tree.
    RoundStart {
        round: usize,
        epoch: u64,
        survivors: Vec<usize>,
        algo: CollAlgorithm,
    },
    /// Tree-mode round state, relayed edge-by-edge down the survivor
    /// tree (and master → orphan directly on rescue). Epoch-stamped:
    /// receivers drop copies from a superseded view as stale.
    RoundState {
        epoch: u64,
        round: usize,
        state: Arc<S>,
        bits: u64,
    },
    /// Tree-mode rescue request, orphan → master: the worker's relay
    /// parent died before forwarding the round state.
    StateRequest { round: usize },
    /// Tree-mode barrier token, worker → master: the worker holds the
    /// round state and has relayed it to its tree children. The master
    /// collects one per survivor before dispatching any work.
    StateAck { round: usize },
    /// Work order for lines `[first, first + n)`.
    Assign {
        id: u64,
        round: usize,
        first: usize,
        n: usize,
    },
    /// A chunk's result.
    Partial {
        id: u64,
        first: usize,
        data: P,
        bits: u64,
    },
    /// No more rounds; the worker exits.
    Finish,
}

impl<S: Send + Sync + 'static, P: Send + 'static> Wire for FtMsg<S, P> {
    fn size_bits(&self) -> u64 {
        match self {
            FtMsg::Round { bits, .. } => 96 + bits,
            // Round + epoch + algorithm words, plus 16 bits per
            // survivor — the piggybacked membership view.
            FtMsg::RoundStart { survivors, .. } => 136 + 16 * survivors.len() as u64,
            FtMsg::RoundState { bits, .. } => 160 + bits,
            FtMsg::StateRequest { .. } => 64,
            FtMsg::StateAck { .. } => 64,
            FtMsg::Assign { .. } => 192,
            FtMsg::Partial { bits, .. } => 128 + bits,
            FtMsg::Finish => 8,
        }
    }

    fn deep_copy_bits(&self) -> u64 {
        match self {
            // Round/RoundState carry their state behind an Arc; the
            // other small variants are fixed-size headers (the survivor
            // list is the only heap part of a RoundStart).
            FtMsg::Round { .. }
            | FtMsg::RoundState { .. }
            | FtMsg::StateRequest { .. }
            | FtMsg::StateAck { .. }
            | FtMsg::Assign { .. }
            | FtMsg::Finish => 0,
            FtMsg::RoundStart { survivors, .. } => 16 * survivors.len() as u64,
            FtMsg::Partial { .. } => self.size_bits(),
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
        .run(|ctx: &mut Ctx<FtMsg<A::State, A::Partial>>| {
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

/// Worker side of both recovery modes and both state-distribution
/// protocols: obey whichever round opener the master sends — `Round`
/// carries the state itself (linear fan-out), `RoundStart` announces it
/// down the survivor tree ([`receive_tree_state`]) — then `Assign`
/// orders until the next opener or `Finish`. Chunk time is charged
/// through the offload `policy` — host or device per
/// [`offload::decide`] — while the chunk itself always runs the host
/// kernel (bit-identical outputs).
fn worker_loop<A: ChunkedAlgo>(
    ctx: &mut Ctx<FtMsg<A::State, A::Partial>>,
    algo: &A,
    policy: OffloadPolicy,
) {
    let mut state: Option<Arc<A::State>> = None;
    // Round scratch: marked stale by every round opener, brought up to
    // date from its previous self on the round's first Assign and reused
    // for its later chunks. It lives as long as the worker does and dies
    // with a crash — which is why it holds only what the modelled node
    // would (a detector's system); what an algorithm remembers about the
    // image lines it keeps itself, for whichever worker scores them next.
    let mut scratch: Option<A::Scratch> = None;
    let mut prepared = false;
    loop {
        match ctx.recv(0) {
            FtMsg::Round { state: s, .. } => {
                state = Some(s);
                prepared = false;
            }
            FtMsg::RoundStart {
                round,
                epoch,
                survivors,
                algo: algorithm,
            } => {
                state = Some(receive_tree_state(ctx, round, epoch, &survivors, algorithm));
                prepared = false;
            }
            FtMsg::Assign {
                id,
                round,
                first,
                n,
            } => {
                let st = state.as_deref().expect("ft: Assign before any round");
                let cost = ChunkCost::new(algo.chunk_mflops(round, n), algo.chunk_bytes(round, n));
                offload::charge_chunk(ctx, policy, &cost);
                if !prepared {
                    scratch = Some(algo.prepare(round, st, scratch.take()));
                    prepared = true;
                }
                let sc = scratch.as_mut().expect("ft: prepared above");
                let data = algo.run_chunk(round, st, sc, first, n);
                let bits = algo.partial_bits(&data);
                ctx.send(
                    0,
                    FtMsg::Partial {
                        id,
                        first,
                        data,
                        bits,
                    },
                );
            }
            FtMsg::Finish => break,
            _ => unreachable!("ft: masters send Round, RoundStart, Assign and Finish only"),
        }
    }
}

/// A worker's half of a tree-mode round opening, entered on the
/// `RoundStart` header: the round state arrives over the survivor tree
/// (from the tree parent), is relayed onward to the tree children, and
/// is recovered directly from the master when the parent dies before
/// forwarding. The exchange closes with a `StateAck`, which the master
/// collects from every survivor before dispatching work (the barrier in
/// the module docs) — so each receive below blocks on a channel whose
/// peer is bound to produce: the relay parent sends the state or its
/// failure marker, and the master (which cannot crash — such plans are
/// rejected at startup) answers rescues during its ack sweep before
/// sending anything else.
fn receive_tree_state<S, P>(
    ctx: &mut Ctx<FtMsg<S, P>>,
    round: usize,
    epoch: u64,
    survivors: &[usize],
    algorithm: CollAlgorithm,
) -> Arc<S>
where
    S: Send + Sync + 'static,
    P: Send + 'static,
{
    let me = ctx.rank();
    let view = Membership::from_survivors(epoch, ctx.num_ranks(), survivors);
    let tree = coll::tree_over(ctx, algorithm, 0, &view);
    let parent = tree
        .parent(me)
        .expect("ft: a surviving worker has a tree parent");
    // The round's state, and nothing else, is acceptable below.
    let expect_state = |msg: FtMsg<S, P>, why: &str| match msg {
        FtMsg::RoundState {
            epoch: e,
            round: r,
            state,
            bits,
        } if e == epoch && r == round => (state, bits),
        _ => unreachable!("ft: {why}"),
    };
    let (state, bits) = if parent == 0 {
        // FIFO on the master channel: our RoundState was queued right
        // behind the header, before anything else.
        expect_state(
            ctx.recv(0),
            "master-children receive their state right after the header",
        )
    } else {
        // The relay parent is bound to produce: the round's state, or
        // its failure marker. (An infinite deadline is safe — a worker
        // cannot clean-exit mid-round.)
        match ctx.recv_deadline(parent, f64::INFINITY) {
            Ok(msg) => expect_state(msg, "only the round's state relay flows down tree edges"),
            Err(RecvError::Failed(_)) => {
                // Orphaned: the relay died before forwarding. The
                // master's ack sweep owes us the rescue before anything
                // else on this channel.
                ctx.send(0, FtMsg::StateRequest { round });
                expect_state(
                    ctx.recv(0),
                    "a StateRequest is answered with the round state",
                )
            }
            Err(RecvError::Timeout { .. }) => {
                unreachable!("ft: a relay parent cannot clean-exit mid-round")
            }
        }
    };
    // Relay down the survivor tree, then ack.
    for &c in tree.children_bcast(me) {
        ctx.send(
            c,
            FtMsg::RoundState {
                epoch,
                round,
                state: Arc::clone(&state),
                bits,
            },
        );
    }
    ctx.send(0, FtMsg::StateAck { round });
    state
}

/// Master-side bookkeeping shared by both recovery modes and both
/// state-distribution protocols.
struct Roster {
    /// The authoritative alive set; the epoch bumps on every observed
    /// loss. Rank 0 — the master itself — never leaves it.
    view: Membership,
    /// Every detected loss, in detection order.
    recoveries: Vec<Recovery>,
    /// Next work-order id (unique across the whole run).
    next_id: u64,
}

impl Roster {
    /// The surviving workers, ascending.
    fn workers(&self) -> Vec<usize> {
        let mut workers = self.view.survivors();
        workers.retain(|&w| w != 0);
        workers
    }

    /// Records the loss of worker `f.rank`, observed now in `round` with
    /// `lines` image lines orphaned: the view drops the rank under a
    /// bumped epoch and the recovery span covers crash → detection — the
    /// window the master spent waiting on a dead rank, which is the
    /// recovery cost the profiler attributes.
    fn lose<M: Wire>(&mut self, ctx: &mut Ctx<M>, f: &RankFailure, round: usize, lines: usize) {
        let detected_at = ctx.elapsed();
        if self.view.observe_failure(f) {
            ctx.mark_epoch(self.view.epoch(), f.rank, self.view.num_survivors());
        }
        self.recoveries.push(Recovery {
            rank: f.rank,
            at: f.at,
            detected_at,
            lines,
            round,
        });
        ctx.mark_recovery(f.at, f.rank);
    }

    /// `Err` once the view holds the master alone, i.e. nobody is left
    /// to take the lines `round` still owes.
    fn ensure_workers(&self, round: usize) -> Result<(), AllWorkersLost> {
        if self.view.num_survivors() > 1 {
            Ok(())
        } else {
            Err(AllWorkersLost { round })
        }
    }

    /// Sends worker `w` the order for lines `[first, first + n)` and
    /// returns the order's id.
    fn assign<S, P>(
        &mut self,
        ctx: &mut Ctx<FtMsg<S, P>>,
        w: usize,
        round: usize,
        first: usize,
        n: usize,
    ) -> u64
    where
        S: Send + Sync + 'static,
        P: Send + 'static,
    {
        let id = self.next_id;
        self.next_id += 1;
        ctx.send(
            w,
            FtMsg::Assign {
                id,
                round,
                first,
                n,
            },
        );
        id
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
/// proportion to speed; returns `(first, n, worker)` slices.
fn split_lines(
    first: usize,
    n: usize,
    workers: &[usize],
    speeds: &[f64],
) -> Vec<(usize, usize, usize)> {
    let total: f64 = workers.iter().map(|&w| speeds[w]).sum();
    let fractions: Vec<f64> = workers.iter().map(|&w| speeds[w] / total).collect();
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

/// Broadcasts the round-start state to every surviving worker — the
/// linear (default) mode's master-rooted [`simnet::coll::fanout_with`].
/// Workers just `recv(0)`, so no membership agreement is needed; the
/// price is P−1 full-payload sends from the master every round. Tree
/// mode ([`start_round_tree`]) shares that cost across the survivor
/// tree via the membership/epoch protocol.
fn broadcast_state<S, P>(ctx: &mut Ctx<FtMsg<S, P>>, workers: &[usize], state: &S, bits: u64)
where
    S: Clone + Send + Sync + 'static,
    P: Send + 'static,
{
    // One deep copy total (the `Arc` construction); every per-worker
    // send then shares it with a refcount bump.
    let shared = Arc::new(state.clone());
    coll::fanout_with(ctx, workers, || FtMsg::Round {
        state: Arc::clone(&shared),
        bits,
    });
}

/// Normalizes a broadcast algorithm for the ft tree mode: pipelined
/// chunk streaming composes poorly with mid-round rescue (every chunk is
/// a full payload with partial charge), so it falls back to the
/// segment-hierarchical tree it shares.
fn normalize_tree_algo(algorithm: CollAlgorithm) -> CollAlgorithm {
    match algorithm {
        CollAlgorithm::PipelinedChunked => CollAlgorithm::SegmentHierarchical,
        a => a,
    }
}

/// Opens a tree-mode round and runs it to the state-distribution
/// barrier: resolves the schedule over the current survivor view
/// (logging the [`simnet::CollectiveChoice`] on rank 0), sends the
/// epoch-stamped header to every surviving worker directly, ships the
/// state to the master's tree children, then sweeps the survivors in
/// rank order for one `StateAck` each — answering `StateRequest`s from
/// orphaned subtrees from the round's shared `Arc` (under the epoch
/// frozen at round start) and absorbing failure markers (epoch bump +
/// zero-line recovery record, since no work is out yet) along the way.
/// When it returns, every remaining live worker holds the round state,
/// so the dispatch/collection phase can block exactly like the linear
/// mode: only on workers that owe it a `Partial`.
///
/// The sweep cannot deadlock: every tree shape parents a member with a
/// lower-ranked member, and the sweep ascends — while the master waits
/// on `w`, everything `w`'s relay chain needs is either already settled
/// (an ancestor's ack or failure) or arrives on the very channel being
/// watched (`w`'s own rescue request).
fn start_round_tree<S, P>(
    ctx: &mut Ctx<FtMsg<S, P>>,
    roster: &mut Roster,
    cfg: &CollectiveConfig,
    round: usize,
    state: &S,
    bits: u64,
) where
    S: Clone + Send + Sync + 'static,
    P: Send + 'static,
{
    let requested = normalize_tree_algo(cfg.broadcast);
    let resolved = coll::resolve_over(ctx, CollOp::Broadcast, requested, 0, &roster.view, bits);
    let algorithm = normalize_tree_algo(resolved);
    let epoch = roster.view.epoch();
    let survivors = roster.view.survivors();
    let workers = roster.workers();
    for &w in &workers {
        ctx.send(
            w,
            FtMsg::RoundStart {
                round,
                epoch,
                survivors: survivors.clone(),
                algo: algorithm,
            },
        );
    }
    let tree = coll::tree_over(ctx, algorithm, 0, &roster.view);
    let shared = Arc::new(state.clone());
    let round_state = || FtMsg::RoundState {
        epoch,
        round,
        state: Arc::clone(&shared),
        bits,
    };
    coll::fanout_with(ctx, tree.children_bcast(0), round_state);
    // ---- the ack sweep (state-distribution barrier) -----------------
    for &w in &workers {
        loop {
            match ctx.recv_deadline(w, f64::INFINITY) {
                Ok(FtMsg::StateAck { round: r }) => {
                    debug_assert_eq!(r, round);
                    break;
                }
                Ok(FtMsg::StateRequest { round: r }) => {
                    debug_assert_eq!(r, round);
                    ctx.send(w, round_state());
                }
                Ok(_) => unreachable!("ft: pre-barrier workers send StateAck or StateRequest only"),
                Err(RecvError::Failed(f)) => {
                    // No work is out yet: a zero-line recovery.
                    roster.lose(ctx, &f, round, 0);
                    break;
                }
                Err(RecvError::Timeout { .. }) => {
                    unreachable!("ft: a worker cannot clean-exit before the barrier")
                }
            }
        }
    }
}

/// The coordinator of both recovery modes: per round, distribute the
/// state (linear fan-out or survivor tree, per
/// [`FtOptions::collectives`]), run the mode's dispatch/collect policy
/// to a full set of partials, fold them in line order; finally release
/// the workers. Gives up — with every worker already dead, so nobody is
/// left waiting on rank 0 — as soon as a round has lines outstanding and
/// no survivor to take them.
fn master<A: ChunkedAlgo>(
    ctx: &mut Ctx<FtMsg<A::State, A::Partial>>,
    algo: &A,
    opts: &FtOptions,
    mode: Mode,
) -> Result<(A::Output, Vec<Recovery>), AllWorkersLost> {
    let p = ctx.num_ranks();
    let mut roster = Roster {
        view: Membership::new(p),
        recoveries: Vec::new(),
        next_id: 0,
    };
    let mut state = algo.initial_state();

    for round in 0..algo.rounds() {
        let state_bits = algo.state_bits(&state);
        // Tree mode (any non-linear broadcast algorithm) distributes the
        // state down the survivor tree and runs to the ack barrier,
        // possibly shrinking the roster; after either branch, every live
        // worker holds the state.
        if opts.collectives.broadcast == CollAlgorithm::Linear {
            broadcast_state(ctx, &roster.workers(), &state, state_bits);
        } else {
            start_round_tree(
                ctx,
                &mut roster,
                &opts.collectives,
                round,
                &state,
                state_bits,
            );
        }
        let mut partials = match mode {
            Mode::Replan => collect_replan(ctx, algo, opts, &mut roster, round),
            Mode::SelfSched => collect_self_sched(ctx, algo, opts, &mut roster, round),
        }?;
        partials.sort_by_key(|&(first, _)| first);
        let (next, mflops) = algo.reduce(round, state, partials);
        ctx.compute_seq(mflops);
        state = next;
    }

    for w in 1..p {
        // Dead workers drop the message silently.
        ctx.send(w, FtMsg::Finish);
    }
    Ok((algo.finish(state), roster.recoveries))
}

/// A dispatched batch of the re-planning master.
struct Batch {
    id: u64,
    worker: usize,
    first: usize,
    n: usize,
    deadline: f64,
    /// Analytic worst-case completion: the κ-padded estimate stretched
    /// through every active slowdown window of the worker
    /// ([`simnet::FaultPlan::dilate`]), plus one margin. A live worker —
    /// however slowed — finishes by this instant, so deadline
    /// extensions never pass it.
    cap: f64,
    done: bool,
}

/// One round of the re-planning policy: one speed-proportional batch per
/// surviving worker, awaited under analytic deadlines; a lost worker's
/// unfinished batches are re-apportioned over the survivors.
fn collect_replan<A: ChunkedAlgo>(
    ctx: &mut Ctx<FtMsg<A::State, A::Partial>>,
    algo: &A,
    opts: &FtOptions,
    roster: &mut Roster,
    round: usize,
) -> Result<Vec<(usize, A::Partial)>, AllWorkersLost> {
    let p = ctx.num_ranks();
    // Per-round *effective* speeds: with offloading enabled a
    // device-bearing node is proportionally faster for this round's
    // kernel (launch + transfers amortized over an even-split batch), so
    // the WEA apportionment hands it more lines. With `Never` these are
    // exactly `proc.speed()` — historic batches.
    let rep_lines = algo.lines().div_ceil((p - 1).max(1)).max(1);
    let rep = ChunkCost::new(
        algo.chunk_mflops(round, rep_lines),
        algo.chunk_bytes(round, rep_lines),
    );
    let speeds = offload::effective_speeds(ctx.platform(), opts.offload, &rep);

    // One speed-proportional batch per surviving worker (the WEA
    // apportionment), each with an analytic completion deadline.
    let mut ready_at = vec![0.0f64; p];
    let mut batches: Vec<Batch> = Vec::new();
    let dispatch = |ctx: &mut Ctx<FtMsg<A::State, A::Partial>>,
                    roster: &mut Roster,
                    batches: &mut Vec<Batch>,
                    ready_at: &mut Vec<f64>,
                    first: usize,
                    n: usize,
                    w: usize| {
        let id = roster.assign(ctx, w, round, first, n);
        // The batch's analytic completion time — the exact seconds the
        // worker's `charge_chunk` will charge (host or device per the
        // shared `decide`), so κ-padded deadlines stay meaningful under
        // every offload policy.
        let cost = ChunkCost::new(algo.chunk_mflops(round, n), algo.chunk_bytes(round, n));
        let est = offload::chunk_secs(ctx.platform().proc(w), opts.offload, &cost);
        let start = ready_at[w].max(ctx.elapsed());
        ready_at[w] = start + est * FAILURE_THRESHOLD;
        let cap = ctx.fault_plan().dilate(w, start, est * FAILURE_THRESHOLD) + MARGIN_S;
        batches.push(Batch {
            id,
            worker: w,
            first,
            n,
            deadline: ready_at[w] + MARGIN_S,
            cap,
            done: false,
        });
    };
    roster.ensure_workers(round)?;
    for (first, n, w) in split_lines(0, algo.lines(), &roster.workers(), &speeds) {
        dispatch(ctx, roster, &mut batches, &mut ready_at, first, n, w);
    }

    let mut partials: Vec<(usize, A::Partial)> = Vec::new();
    let mut i = 0;
    while i < batches.len() {
        if batches[i].done {
            i += 1;
            continue;
        }
        let w = batches[i].worker;
        let now = ctx.elapsed();
        let deadline = batches[i].deadline.max(now);
        match ctx.recv_deadline(w, deadline) {
            Ok(FtMsg::Partial {
                id, first, data, ..
            }) => {
                // Per-pair FIFO: this is w's earliest outstanding batch —
                // usually batch i itself, but match by id.
                if let Some(b) = batches.iter_mut().find(|b| b.id == id && !b.done) {
                    b.done = true;
                    partials.push((first, data));
                }
            }
            Ok(_) => unreachable!("ft: workers send Partial only after the barrier"),
            Err(RecvError::Timeout { .. }) => {
                // Late ≠ dead: only a failure marker is authoritative.
                // Extend — but no further than the analytic worst case:
                // past `cap` even a worker slowed by every active window
                // would have delivered, so stop stepping the clock margin
                // by margin and block for the authoritative outcome (the
                // Partial or the failure marker).
                let extended = ctx.elapsed() + MARGIN_S;
                batches[i].deadline = if extended < batches[i].cap {
                    extended
                } else {
                    f64::INFINITY
                };
            }
            Err(RecvError::Failed(f)) => {
                let orphans: Vec<(usize, usize)> = batches
                    .iter_mut()
                    .filter(|b| b.worker == w && !b.done)
                    .map(|b| {
                        b.done = true;
                        (b.first, b.n)
                    })
                    .collect();
                roster.lose(ctx, &f, round, orphans.iter().map(|&(_, n)| n).sum());
                roster.ensure_workers(round)?;
                let survivors = roster.workers();
                for (of, on) in orphans {
                    for (nf, nn, nw) in split_lines(of, on, &survivors, &speeds) {
                        dispatch(ctx, roster, &mut batches, &mut ready_at, nf, nn, nw);
                    }
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
    ctx: &mut Ctx<FtMsg<A::State, A::Partial>>,
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
    let total_chunks = queue.len();
    let mut done = 0usize;
    let mut outstanding: Vec<Option<(u64, usize, usize)>> = vec![None; p];
    let mut partials: Vec<(usize, A::Partial)> = Vec::new();

    while done < total_chunks {
        roster.ensure_workers(round)?;
        // Hand every free surviving worker the next queued chunk.
        for (w, slot) in outstanding.iter_mut().enumerate().skip(1) {
            if roster.view.is_alive(w) && slot.is_none() {
                if let Some((cf, cn)) = queue.pop_front() {
                    *slot = Some((roster.assign(ctx, w, round, cf, cn), cf, cn));
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
            let Some((id, cf, cn)) = *slot else {
                continue;
            };
            match ctx.recv_deadline(w, now) {
                Ok(FtMsg::Partial {
                    id: pid,
                    first: pf,
                    data,
                    ..
                }) => {
                    if pid == id {
                        *slot = None;
                        partials.push((pf, data));
                        done += 1;
                        productive = true;
                    }
                }
                Ok(_) => unreachable!("ft: workers send Partial only after the barrier"),
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
            .with_faults(FaultPlan::new().crash(5, 0.05));
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
        // master must neither declare it failed nor stretch the round
        // margin-by-margin forever. The analytic cap (dilate of the
        // κ-padded estimate) bounds the stepping; past it the master
        // blocks for the authoritative outcome.
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
        // The round ends when the slowed stragglers deliver — within
        // the dilated analytic envelope, not margin-quantised past it.
        let rerun = run_once();
        assert_eq!(run.report, rerun.report);
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

    fn tree_opts() -> FtOptions {
        FtOptions {
            collectives: CollectiveConfig::uniform(CollAlgorithm::SegmentHierarchical),
            ..FtOptions::default()
        }
    }

    #[test]
    fn tree_mode_fault_free_matches_sequential() {
        let s = scene();
        let p = params();
        let seq = crate::seq::atdca(&s.cube, &p);
        let engine = Engine::new(presets::fully_heterogeneous());
        let algo = AtdcaChunks::new(&s.cube, &p);
        for run in [
            run_replan(&engine, &algo, &tree_opts()),
            run_self_sched(&engine, &algo, &tree_opts()),
        ] {
            assert_eq!(coords(&run.output), coords(&seq.result));
            assert!(run.recoveries.is_empty());
            assert!(run.report.ok());
            assert!(run.report.epochs.is_empty(), "no failures, no epoch bumps");
            // The master resolves (and logs) one broadcast choice per round.
            assert_eq!(
                run.report.choices_of(simnet::CollOp::Broadcast).count(),
                algo.rounds()
            );
        }
    }

    #[test]
    fn tree_mode_auto_resolves_against_the_cost_model() {
        let s = scene();
        let p = params();
        let seq = crate::seq::atdca(&s.cube, &p);
        let engine = Engine::new(presets::fully_heterogeneous());
        let algo = AtdcaChunks::new(&s.cube, &p);
        let opts = FtOptions {
            collectives: CollectiveConfig::uniform(CollAlgorithm::Auto),
            ..FtOptions::default()
        };
        let run = run_replan(&engine, &algo, &opts);
        assert_eq!(coords(&run.output), coords(&seq.result));
        for c in run.report.choices_of(simnet::CollOp::Broadcast) {
            assert_eq!(c.requested, CollAlgorithm::Auto);
            assert_ne!(c.algorithm, CollAlgorithm::Auto, "must resolve concretely");
        }
    }

    #[test]
    fn tree_mode_recovers_from_interior_relay_crash() {
        // Rank 4 leads segment 1 in the segment-hierarchical tree and
        // relays the round state to ranks 5..=7. Crashing it before it
        // can forward forces the orphan rescue path (StateRequest →
        // direct RoundState) and, from the next round on, a survivor
        // tree that routes around it under a bumped epoch.
        let s = scene();
        let p = params();
        let seq = crate::seq::atdca(&s.cube, &p);
        let algo = AtdcaChunks::new(&s.cube, &p);
        for mode in [Mode::Replan, Mode::SelfSched] {
            let engine = Engine::new(presets::fully_heterogeneous())
                .with_faults(FaultPlan::new().crash(4, 1e-4));
            let run = match mode {
                Mode::Replan => run_replan(&engine, &algo, &tree_opts()),
                Mode::SelfSched => run_self_sched(&engine, &algo, &tree_opts()),
            };
            assert_eq!(coords(&run.output), coords(&seq.result), "{mode:?}");
            assert_eq!(run.recoveries.len(), 1, "{mode:?}");
            assert_eq!(run.recoveries[0].rank, 4);
            assert_eq!(run.report.epochs.len(), 1, "{mode:?}");
            assert_eq!(run.report.epochs[0].epoch, 1);
            assert_eq!(run.report.epochs[0].failed, 4);
            assert_eq!(run.report.epochs[0].survivors, 15);
        }
    }

    #[test]
    fn tree_mode_crash_plans_are_bit_deterministic() {
        let s = scene();
        let p = params();
        let algo = AtdcaChunks::new(&s.cube, &p);
        let run_once = || {
            let engine = Engine::new(presets::fully_heterogeneous())
                .with_faults(FaultPlan::new().crash(4, 1e-4).crash(10, 0.02));
            run_replan(&engine, &algo, &tree_opts())
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.report, b.report);
        assert_eq!(coords(&a.output), coords(&b.output));
        assert_eq!(a.recoveries, b.recoveries);
        assert_eq!(a.report.epochs.len(), 2);
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
}
