//! Topology-aware collective communication with cost-model-driven
//! algorithm selection.
//!
//! The paper's heterogeneous networks (§3.1, Tables 1–2) are switched
//! segments joined by *serial* inter-segment links, so a flat linear
//! collective rooted at rank 0 pays O(P) root-serialized latency and
//! queues every cross-segment transfer on the same FIFO links. This
//! module provides pluggable collective algorithms, all expressed
//! through the ordinary [`Ctx`] send/recv primitives — virtual-time
//! costs, FIFO contention and fault plans apply unchanged:
//!
//! * [`CollAlgorithm::Linear`] — the baseline star schedule (the paper's
//!   root-mediated loops: the root sends/receives every rank directly),
//! * [`CollAlgorithm::BinomialTree`] — `⌈log₂ P⌉`-depth recursive
//!   halving; wins in the latency-dominated small-message regime,
//! * [`CollAlgorithm::SegmentHierarchical`] — one *leader* per remote
//!   segment crosses the serial link exactly once, then fans out over
//!   the switched intra-segment network; wins for large payloads on
//!   multi-segment platforms,
//! * [`CollAlgorithm::PipelinedChunked`] — broadcast only: the payload
//!   streams down the hierarchical tree in [`PIPELINE_CHUNKS`] chunks so
//!   a leader forwards chunk `c` while chunk `c + 1` is still crossing
//!   the serial link,
//! * [`CollAlgorithm::Auto`] — evaluates the exact analytic cost of
//!   each candidate via [`predict`] and picks the cheapest; the choice
//!   is recorded in [`crate::RunReport::collectives`]. A `bits_hint` of
//!   zero carries no size information, so `Auto` falls back to the
//!   linear baseline instead of ranking schedules on a meaningless
//!   payload.
//!
//! Two fused entry points build on the same schedules:
//!
//! * [`allreduce`] — reduce + broadcast fused onto **one** tree: partials
//!   fold upward through the gather edges and the result fans out down
//!   the broadcast edges of the same schedule, so every rank learns the
//!   folded value in roughly twice the one-way tree depth instead of a
//!   full gather followed by a full broadcast;
//! * [`broadcast_overlap`] — a [`CollAlgorithm::PipelinedChunked`]
//!   broadcast that hands each delivered chunk to a per-chunk callback,
//!   letting leaf ranks start computing while later chunks are still in
//!   flight.
//!
//! **Selection must be rank-uniform.** The `bits_hint` argument of the
//! configurable collectives drives `Auto` selection (and nothing else);
//! every rank must pass the same value or ranks would disagree on the
//! schedule and deadlock. Transfers always charge actual payload sizes.
//!
//! **Failure semantics.** The root observes failed contributors as
//! explicit [`GatherEntry::Lost`] entries instead of aborting. Interior
//! tree relays use plain [`Ctx::recv`], so a crashed child cascades as a
//! structured `PeerLost` failure through its ancestors (recorded in the
//! report, never a process abort) and the root marks that whole subtree
//! lost. Link outages kill no ranks: every algorithm completes under
//! link-fault plans, just later.
//!
//! **Membership is a parameter.** Subtree loss is the price of routing
//! through a rank that is *already* dead. Every collective therefore has
//! exactly one body, and that body takes the member set as an argument:
//! a [`Membership`] view tracks the alive set (epoch bumps on every
//! observed [`RankFailure`]), and [`broadcast_over`], [`gather_over`],
//! [`reduce_over`] and [`allreduce_over`] build every schedule over the
//! view's survivor set, so known-dead interior relays are routed around
//! instead of cascading `PeerLost` down their subtrees. The all-ranks
//! call shapes ([`broadcast`], [`gather`], [`reduce`], [`allreduce`],
//! [`predict`]) are one-line delegations that pass the initial
//! view, [`Membership::new`] — "every rank alive" is just the
//! parameter's first value. A rank that dies *mid*-collective — after
//! the view was agreed — still degrades with the subtree-loss semantics
//! above until a new view observes it. See `docs/COMMS.md`.

mod cost;
mod epoch;
mod schedule;

pub use cost::predict;
use cost::predict_over;
pub use epoch::Membership;
pub(crate) use schedule::ScheduleMemo;
pub use schedule::Tree;

use crate::engine::{Ctx, Wire};
use crate::faults::{FailureCause, RankFailure, RecvError};
use std::cell::OnceCell;
use std::fmt;
use std::sync::Arc;

/// A collective communication algorithm (schedule family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollAlgorithm {
    /// The baseline star: the root sends/receives every rank directly,
    /// in ascending rank order.
    #[default]
    Linear,
    /// Recursive-halving binomial tree over contiguous virtual-rank
    /// blocks: `⌈log₂ P⌉` depth, relays forward full payloads.
    BinomialTree,
    /// Two-level segment tree: one leader per remote segment crosses
    /// the serial inter-segment link once; leaders fan out locally.
    SegmentHierarchical,
    /// Broadcast only: the payload streams down the segment-hierarchical
    /// tree in fixed-count chunks so link occupancy overlaps. For
    /// gathers/reduces this resolves to [`Self::SegmentHierarchical`].
    PipelinedChunked,
    /// Evaluate every candidate's analytic cost ([`predict`]) for the
    /// given platform and `bits_hint`, pick the cheapest (ties favour
    /// the earlier variant, so `Linear` wins exact ties).
    Auto,
}

impl fmt::Display for CollAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollAlgorithm::Linear => "linear",
            CollAlgorithm::BinomialTree => "binomial_tree",
            CollAlgorithm::SegmentHierarchical => "segment_hierarchical",
            CollAlgorithm::PipelinedChunked => "pipelined_chunked",
            CollAlgorithm::Auto => "auto",
        };
        f.write_str(s)
    }
}

/// Which collective operation a [`CollectiveChoice`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollOp {
    /// Root-to-all broadcast.
    Broadcast,
    /// All-to-root gather.
    Gather,
    /// Root-to-all personalized scatter (always linear; see module docs).
    Scatter,
    /// All-to-root reduction.
    Reduce,
    /// Fused reduce + broadcast on one tree schedule.
    Allreduce,
}

impl fmt::Display for CollOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollOp::Broadcast => "broadcast",
            CollOp::Gather => "gather",
            CollOp::Scatter => "scatter",
            CollOp::Reduce => "reduce",
            CollOp::Allreduce => "allreduce",
        };
        f.write_str(s)
    }
}

/// One algorithm decision made by a collective call on the root,
/// recorded in [`crate::RunReport::collectives`].
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveChoice {
    /// The operation performed.
    pub op: CollOp,
    /// What the configuration asked for (possibly [`CollAlgorithm::Auto`]).
    pub requested: CollAlgorithm,
    /// The concrete algorithm that ran.
    pub algorithm: CollAlgorithm,
    /// The `bits_hint` the selection was made with.
    pub bits: u64,
    /// The cost model's predicted completion time for the chosen
    /// algorithm (exact for healthy runs rooted at rank 0 whose clocks
    /// are aligned when the collective starts; see [`predict`]).
    pub predicted_secs: f64,
}

/// Per-operation algorithm selection carried through the application
/// layer (see `hetero::RunOptions::collectives`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveConfig {
    /// Algorithm for broadcasts.
    pub broadcast: CollAlgorithm,
    /// Algorithm for gathers.
    pub gather: CollAlgorithm,
    /// Algorithm for reduces.
    pub reduce: CollAlgorithm,
    /// Algorithm for fused allreduces. [`CollAlgorithm::Linear`] runs
    /// the legacy split schedule (linear gather + linear broadcast) so
    /// callers that branch on it keep bit- and timing-identity with the
    /// historic path.
    pub allreduce: CollAlgorithm,
}

/// Chunk count of every [`CollAlgorithm::PipelinedChunked`] broadcast.
pub const PIPELINE_CHUNKS: u32 = 4;

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig::linear()
    }
}

impl CollectiveConfig {
    /// The baseline configuration: every collective linear — the
    /// paper's root-mediated star schedules.
    pub fn linear() -> Self {
        CollectiveConfig {
            broadcast: CollAlgorithm::Linear,
            gather: CollAlgorithm::Linear,
            reduce: CollAlgorithm::Linear,
            allreduce: CollAlgorithm::Linear,
        }
    }

    /// Cost-model-driven selection for every collective.
    pub fn auto() -> Self {
        CollectiveConfig::uniform(CollAlgorithm::Auto)
    }

    /// The same algorithm for every collective operation.
    pub fn uniform(algorithm: CollAlgorithm) -> Self {
        CollectiveConfig {
            broadcast: algorithm,
            gather: algorithm,
            reduce: algorithm,
            allreduce: algorithm,
        }
    }
}

/// How a scatter's data staging is charged. See DESIGN.md: the paper's
/// reported COM magnitudes imply bulk data staging is *not* part of the
/// measured communication, so experiments default to [`ScatterMode::Free`];
/// the `ablation_scatter` bench flips this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScatterMode {
    /// Partitions are assumed pre-staged: only per-message latency.
    #[default]
    Free,
    /// Partitions pay full transfer cost on the link matrix.
    Charged,
}

/// Structured misuse errors for the collectives: a root without a
/// payload or a scatter with the wrong item count is a value, never a
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollError {
    /// The root rank passed `None` where a payload was required.
    RootMissingPayload {
        /// The operation that was misused.
        op: CollOp,
    },
    /// A non-root rank passed `Some(..)` where `None` was required.
    NonRootPayload {
        /// The operation that was misused.
        op: CollOp,
    },
    /// A scatter's item vector length didn't match the rank count.
    WrongItemCount {
        /// The rank count (one item required per rank).
        expected: usize,
        /// The number of items actually supplied.
        got: usize,
    },
    /// A rank outside the [`Membership`] view's survivor set called (or
    /// was named root of) a survivor-set collective.
    NotAMember {
        /// The offending rank.
        rank: usize,
    },
}

impl fmt::Display for CollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollError::RootMissingPayload { op } => {
                write!(f, "{op}: root must supply the payload")
            }
            CollError::NonRootPayload { op } => {
                write!(f, "{op}: non-root ranks must pass None")
            }
            CollError::WrongItemCount { expected, got } => {
                write!(f, "scatter: need one item per rank ({expected}), got {got}")
            }
            CollError::NotAMember { rank } => {
                write!(
                    f,
                    "rank {rank} is not in the membership view's survivor set"
                )
            }
        }
    }
}

impl std::error::Error for CollError {}

/// One slot of a gather's rank-ordered result: the contribution, or an
/// explicit record of why it is missing. Crashed ranks become `Lost`
/// entries at the root instead of aborting the run.
#[derive(Debug, Clone, PartialEq)]
pub enum GatherEntry<M> {
    /// The rank's contribution arrived.
    Ok(M),
    /// The contribution is missing; the failure is the one the root
    /// observed on the relay path (for tree gathers a lost relay marks
    /// its whole subtree with the relay's failure record).
    Lost(RankFailure),
}

impl<M> GatherEntry<M> {
    /// The contribution, if it arrived.
    pub fn into_msg(self) -> Option<M> {
        match self {
            GatherEntry::Ok(m) => Some(m),
            GatherEntry::Lost(_) => None,
        }
    }

    /// A reference to the contribution, if it arrived.
    pub fn msg(&self) -> Option<&M> {
        match self {
            GatherEntry::Ok(m) => Some(m),
            GatherEntry::Lost(_) => None,
        }
    }

    /// `true` when the contribution is missing.
    pub fn is_lost(&self) -> bool {
        matches!(self, GatherEntry::Lost(_))
    }
}

/// The selection rule of [`resolve_over`]: normalizes broadcast-only
/// algorithms, falls back to the linear baseline on a zero hint, and
/// scans the candidates through `predict` for [`CollAlgorithm::Auto`].
/// The cost is returned only when the rule had to evaluate it (the
/// `Auto` scan), so a caller that needs just the algorithm never pays
/// for a prediction nobody reads.
fn choose(
    op: CollOp,
    requested: CollAlgorithm,
    bits: u64,
    predict: impl Fn(CollAlgorithm) -> f64,
) -> (CollAlgorithm, Option<f64>) {
    if requested != CollAlgorithm::Auto {
        let algorithm = match (op, requested) {
            // Chunked streaming only exists for broadcast; elsewhere it
            // means "the same tree, unchunked".
            (CollOp::Broadcast, a) => a,
            (_, CollAlgorithm::PipelinedChunked) => CollAlgorithm::SegmentHierarchical,
            (_, a) => a,
        };
        return (algorithm, None);
    }
    if bits == 0 {
        // A zero hint carries no size information (callers forward 0 for
        // empty payloads): ranking schedules on a zero-byte message would
        // pick a tree on pure latency grounds from a meaningless hint, so
        // fall back to the baseline.
        return (CollAlgorithm::Linear, None);
    }
    let candidates: &[CollAlgorithm] = match op {
        CollOp::Broadcast => &[
            CollAlgorithm::Linear,
            CollAlgorithm::BinomialTree,
            CollAlgorithm::SegmentHierarchical,
            CollAlgorithm::PipelinedChunked,
        ],
        _ => &[
            CollAlgorithm::Linear,
            CollAlgorithm::BinomialTree,
            CollAlgorithm::SegmentHierarchical,
        ],
    };
    let mut best = CollAlgorithm::Linear;
    let mut best_cost = f64::INFINITY;
    for &alg in candidates {
        let cost = predict(alg);
        // Strict `<` keeps the earliest candidate on ties: Linear wins
        // exact ties (e.g. hierarchical on a single-segment platform).
        if cost < best_cost {
            best = alg;
            best_cost = cost;
        }
    }
    (best, Some(best_cost))
}

/// Splits `bits` into `chunks` near-equal parts (earlier chunks take the
/// remainder). Always returns at least one chunk; the sizes sum to
/// `bits` so the total link charge of a pipelined broadcast equals the
/// unchunked one.
pub(crate) fn split_chunks(bits: u64, chunks: usize) -> Vec<u64> {
    let k = chunks.max(1) as u64;
    let base = bits / k;
    let rem = bits % k;
    (0..k).map(|i| base + u64::from(i < rem)).collect()
}

/// Resolves (and, on rank 0, logs) one collective decision over the
/// view's survivor set — the resolution every collective here does
/// internally, public for protocols (like `hetero::ft`) that run their
/// own wire protocol over the survivor [`Tree`] but want the same
/// cost-model-driven choice and [`CollectiveChoice`] observability.
/// Deterministic in its arguments, so every participant that calls it
/// with the same view resolves identically.
///
/// The cost model runs only where its value is read: on every rank for
/// the [`CollAlgorithm::Auto`] scan, otherwise on the logging rank alone
/// — and the survivor list it replays over is materialised only there.
pub fn resolve_over<M: Wire>(
    ctx: &mut Ctx<M>,
    op: CollOp,
    requested: CollAlgorithm,
    root: usize,
    view: &Membership,
    bits_hint: u64,
) -> CollAlgorithm {
    let members = OnceCell::new();
    let predict = |alg| {
        predict_over(
            ctx.platform(),
            ctx.msg_latency_s(),
            op,
            alg,
            root,
            bits_hint,
            members.get_or_init(|| view.survivors()),
        )
    };
    let (algorithm, scanned) = choose(op, requested, bits_hint, predict);
    // Rank 0's log is the one the engine collects into the report, so
    // log there regardless of which rank roots the collective.
    if ctx.rank() == 0 {
        let predicted_secs = scanned.unwrap_or_else(|| predict(algorithm));
        ctx.log_collective(CollectiveChoice {
            op,
            requested,
            algorithm,
            bits: bits_hint,
            predicted_secs,
        });
    }
    algorithm
}

/// The concrete schedule [`Tree`] for `algorithm` over the view's
/// survivor set, from the run's schedule memo: the tree is built by the
/// first rank to ask for `(algorithm, root, alive set)` and shared by
/// every later caller, on any rank. [`CollAlgorithm::PipelinedChunked`]
/// has the segment-hierarchical shape; [`CollAlgorithm::Auto`] must be
/// resolved to a concrete algorithm first (e.g. via [`resolve_over`]).
pub fn tree_over<M: Wire>(
    ctx: &Ctx<M>,
    algorithm: CollAlgorithm,
    root: usize,
    view: &Membership,
) -> Arc<Tree> {
    ctx.schedules().get(algorithm, root, ctx.platform(), view)
}

/// The prologue every view-taking collective shares: reject non-members
/// before any traffic, resolve (and log) `cfg`'s algorithm for `op`,
/// look its tree up in the run's schedule memo.
fn plan<M: Wire>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    op: CollOp,
    root: usize,
    view: &Membership,
    bits_hint: u64,
) -> Result<(CollAlgorithm, Arc<Tree>), CollError> {
    for rank in [root, ctx.rank()] {
        if !view.is_alive(rank) {
            return Err(CollError::NotAMember { rank });
        }
    }
    let requested = match op {
        CollOp::Broadcast => cfg.broadcast,
        CollOp::Gather => cfg.gather,
        CollOp::Reduce => cfg.reduce,
        CollOp::Allreduce => cfg.allreduce,
        CollOp::Scatter => CollAlgorithm::Linear,
    };
    let algorithm = resolve_over(ctx, op, requested, root, view, bits_hint);
    Ok((algorithm, tree_over(ctx, algorithm, root, view)))
}

/// Fan-out of one payload to `children` when the local rank must also
/// **retain** the payload (tree broadcast, allreduce down-phase): the
/// retained copy is cloned first, every non-final child receives a
/// clone, and the final child takes the payload **by move** — so a rank
/// with `c` children performs exactly `c` clones, never `c + 1`.
///
/// Every clone goes through [`Ctx::clone_counted`], so the run's
/// [`crate::CopyStats`] record the deep bytes deterministically: for an
/// `Arc`-backed payload each clone is a refcount bump contributing 0
/// deep bytes, while the owned-payload baseline counter accrues one full
/// payload per send either way.
fn fanout_retain<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    children: &[usize],
    payload: M,
    chunk_bits: Option<u64>,
) -> M {
    let send = |ctx: &mut Ctx<M>, dst: usize, m: M| match chunk_bits {
        Some(bits) => ctx.send_bits(dst, m, bits),
        None => ctx.send(dst, m),
    };
    match children.split_last() {
        None => payload,
        Some((&last, rest)) => {
            let keep = ctx.clone_counted(&payload);
            for &child in rest {
                ctx.note_fanout_send(&payload);
                let copy = ctx.clone_counted(&payload);
                send(ctx, child, copy);
            }
            ctx.note_fanout_send(&payload);
            send(ctx, last, payload);
            keep
        }
    }
}

/// Fan-out of one payload the local rank does **not** need afterwards
/// (a relay's pipelined non-final chunks): non-final destinations
/// receive telemetry-counted clones, the final destination takes the
/// payload by move — one fewer deep copy than [`fanout_retain`].
fn fanout_consume<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    dsts: &[usize],
    payload: M,
    chunk_bits: Option<u64>,
) {
    let send = |ctx: &mut Ctx<M>, dst: usize, m: M| match chunk_bits {
        Some(bits) => ctx.send_bits(dst, m, bits),
        None => ctx.send(dst, m),
    };
    let Some((&last, rest)) = dsts.split_last() else {
        return;
    };
    for &child in rest {
        ctx.note_fanout_send(&payload);
        let copy = ctx.clone_counted(&payload);
        send(ctx, child, copy);
    }
    ctx.note_fanout_send(&payload);
    send(ctx, last, payload);
}

/// Broadcast from `root` under `cfg`: the root passes `Some(msg)`, every
/// other rank passes `None`; all ranks return the payload.
/// [`broadcast_over`] with every rank alive.
///
/// `bits_hint` feeds `Auto` selection only (transfers charge the actual
/// payload size) and **must be identical on every rank** — see the
/// module docs.
pub fn broadcast<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    msg: Option<M>,
    bits_hint: u64,
) -> Result<M, CollError> {
    let view = Membership::new(ctx.num_ranks());
    broadcast_over(ctx, cfg, root, &view, msg, bits_hint)
}

/// Broadcast over a [`Membership`] view: only the view's survivors
/// participate (every survivor must call; known-dead ranks are routed
/// around). The root passes `Some(msg)`, every other survivor `None`;
/// all participants return the payload. Every participant must pass the
/// *same* view and `bits_hint` or schedules would disagree.
pub fn broadcast_over<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    view: &Membership,
    msg: Option<M>,
    bits_hint: u64,
) -> Result<M, CollError> {
    let (algorithm, tree) = plan(ctx, cfg, CollOp::Broadcast, root, view, bits_hint)?;
    if algorithm == CollAlgorithm::PipelinedChunked {
        return broadcast_pipelined(ctx, &tree, msg);
    }
    run_broadcast_tree(ctx, &tree, msg)
}

/// The unchunked tree broadcast body shared by [`broadcast_over`] and
/// [`broadcast_overlap`]: receive from the parent, forward to the
/// broadcast children in schedule order — clones for all but the last
/// child, which takes the payload by move (see [`fanout_retain`]).
fn run_broadcast_tree<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    tree: &Tree,
    msg: Option<M>,
) -> Result<M, CollError> {
    let op = CollOp::Broadcast;
    let rank = ctx.rank();
    let payload = match tree.parent(rank) {
        None => msg.ok_or(CollError::RootMissingPayload { op })?,
        Some(parent) => {
            if msg.is_some() {
                return Err(CollError::NonRootPayload { op });
            }
            ctx.recv(parent)
        }
    };
    Ok(fanout_retain(ctx, tree.children_bcast(rank), payload, None))
}

/// Broadcast with per-chunk compute overlap: identical wire schedule to
/// [`broadcast`] under the same `cfg`, but every delivered chunk is
/// handed to `on_chunk(ctx, chunk_index, chunk_count)` so receivers can
/// charge a slice of their post-broadcast compute while later chunks
/// are still in flight.
///
/// Overlap only changes *when* compute is charged, never what travels:
///
/// * when the resolved algorithm is [`CollAlgorithm::PipelinedChunked`],
///   **leaf** ranks interleave the callback with their chunk receives —
///   compute slices absorb the inter-chunk arrival gaps, which is the
///   overlap win on serial-link networks. The root and interior relays
///   keep forwarding untouched (delaying a relayed chunk would delay
///   every descendant) and run all callbacks after the protocol;
/// * any other resolved algorithm delivers the payload whole, so the
///   callback runs exactly once as `on_chunk(ctx, 0, 1)` on every rank
///   — bit- and timing-identical to calling [`broadcast`] and charging
///   the compute afterwards.
pub fn broadcast_overlap<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    msg: Option<M>,
    bits_hint: u64,
    mut on_chunk: impl FnMut(&mut Ctx<M>, usize, usize),
) -> Result<M, CollError> {
    let op = CollOp::Broadcast;
    let view = Membership::new(ctx.num_ranks());
    let (algorithm, tree) = plan(ctx, cfg, op, root, &view, bits_hint)?;
    if algorithm != CollAlgorithm::PipelinedChunked {
        let payload = run_broadcast_tree(ctx, &tree, msg)?;
        on_chunk(ctx, 0, 1);
        return Ok(payload);
    }
    let rank = ctx.rank();
    let k = PIPELINE_CHUNKS as usize;
    match tree.parent(rank) {
        Some(parent) if tree.is_leaf(rank) => {
            if msg.is_some() {
                return Err(CollError::NonRootPayload { op });
            }
            let mut payload = ctx.recv(parent);
            on_chunk(ctx, 0, k);
            for c in 1..k {
                payload = ctx.recv(parent);
                on_chunk(ctx, c, k);
            }
            Ok(payload)
        }
        _ => {
            let payload = broadcast_pipelined(ctx, &tree, msg)?;
            for c in 0..k {
                on_chunk(ctx, c, k);
            }
            Ok(payload)
        }
    }
}

/// Chunk-streamed broadcast down the segment-hierarchical tree: every
/// edge carries [`PIPELINE_CHUNKS`] messages whose charged sizes sum to
/// the payload size; a relay forwards chunk `c` before receiving chunk
/// `c + 1`, so its outbound transfers overlap the inbound ones.
fn broadcast_pipelined<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    tree: &Tree,
    msg: Option<M>,
) -> Result<M, CollError> {
    let op = CollOp::Broadcast;
    let rank = ctx.rank();
    let k = PIPELINE_CHUNKS as usize;
    match tree.parent(rank) {
        None => {
            let payload = msg.ok_or(CollError::RootMissingPayload { op })?;
            let sizes = split_chunks(payload.size_bits(), k);
            let (&last_bits, head) = sizes
                .split_last()
                .expect("split_chunks yields at least one chunk");
            // The root needs the payload for every chunk, so non-final
            // chunks clone per child; the final chunk moves to the last
            // child and the root keeps the retained copy.
            for &chunk_bits in head {
                for &child in tree.children_bcast(rank) {
                    ctx.note_fanout_send(&payload);
                    let copy = ctx.clone_counted(&payload);
                    ctx.send_bits(child, copy, chunk_bits);
                }
            }
            Ok(fanout_retain(
                ctx,
                tree.children_bcast(rank),
                payload,
                Some(last_bits),
            ))
        }
        Some(parent) => {
            if msg.is_some() {
                return Err(CollError::NonRootPayload { op });
            }
            // Every chunk carries a full payload; only the charged wire
            // size is chunked. A relay drops each non-final chunk after
            // forwarding, so the last child takes it by move; the final
            // chunk is retained as this rank's result.
            let mut payload = ctx.recv(parent);
            // The payload is identical on every rank, so the locally
            // computed chunk sizes agree with the root's.
            let sizes = split_chunks(payload.size_bits(), k);
            let (&last_bits, head) = sizes
                .split_last()
                .expect("split_chunks yields at least one chunk");
            for &chunk_bits in head {
                fanout_consume(ctx, tree.children_bcast(rank), payload, Some(chunk_bits));
                payload = ctx.recv(parent);
            }
            Ok(fanout_retain(
                ctx,
                tree.children_bcast(rank),
                payload,
                Some(last_bits),
            ))
        }
    }
}

/// Gather to `root` under `cfg`: every rank contributes `msg`; the root
/// returns `Some(entries)` indexed by rank — contributions of failed
/// ranks appear as explicit [`GatherEntry::Lost`] records, never an
/// abort — and every other rank returns `None`. [`gather_over`] with
/// every rank alive.
///
/// `bits_hint` feeds `Auto` selection only and **must be identical on
/// every rank** (see the module docs); transfers charge actual sizes.
///
/// # Panics
/// Panics if `root` is not a rank of this run.
pub fn gather<M: Wire>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    msg: M,
    bits_hint: u64,
) -> Option<Vec<GatherEntry<M>>> {
    let view = Membership::new(ctx.num_ranks());
    gather_over(ctx, cfg, root, &view, msg, bits_hint).expect("gather: root out of range")
}

/// Gather over a [`Membership`] view: survivors contribute over the
/// survivor tree; the root's rank-indexed result reports every
/// known-dead rank as [`GatherEntry::Lost`] with the view's recorded
/// failure ([`Membership::lost_entry`]) — zero subtree loss for known
/// failures, because no schedule edge touches a dead rank.
pub fn gather_over<M: Wire>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    view: &Membership,
    msg: M,
    bits_hint: u64,
) -> Result<Option<Vec<GatherEntry<M>>>, CollError> {
    let (_, tree) = plan(ctx, cfg, CollOp::Gather, root, view, bits_hint)?;
    Ok(run_gather(ctx, &tree, view, msg))
}

/// The gather body shared by [`gather_over`] and the linear
/// [`reduce_over`]. Ranks outside the tree (the view's known-dead
/// ranks) become [`GatherEntry::Lost`] entries carrying the view's
/// recorded failure.
fn run_gather<M: Wire>(
    ctx: &mut Ctx<M>,
    tree: &Tree,
    view: &Membership,
    msg: M,
) -> Option<Vec<GatherEntry<M>>> {
    let rank = ctx.rank();
    let root = tree.root();
    if rank == root {
        let p = ctx.num_ranks();
        let mut out: Vec<Option<GatherEntry<M>>> = (0..p).map(|_| None).collect();
        out[root] = Some(GatherEntry::Ok(msg));
        for &child in tree.children_gather(root) {
            let origins = tree.subtree_order(child);
            let mut lost: Option<RankFailure> = None;
            for &origin in &origins {
                if let Some(f) = &lost {
                    out[origin] = Some(GatherEntry::Lost(f.clone()));
                    continue;
                }
                match ctx.recv_deadline(child, f64::INFINITY) {
                    Ok(m) => out[origin] = Some(GatherEntry::Ok(m)),
                    Err(RecvError::Failed(f)) => {
                        out[origin] = Some(GatherEntry::Lost(f.clone()));
                        lost = Some(f);
                    }
                    Err(RecvError::Timeout { .. }) => {
                        // The relay exited cleanly without sending —
                        // protocol misuse on the relay path; record it
                        // as a lost peer rather than aborting.
                        let f = RankFailure {
                            rank: child,
                            at: ctx.elapsed(),
                            cause: FailureCause::PeerLost { peer: child },
                        };
                        out[origin] = Some(GatherEntry::Lost(f.clone()));
                        lost = Some(f);
                    }
                }
            }
        }
        Some(
            out.into_iter()
                .enumerate()
                // Not in the survivor tree: the view already knows this
                // rank is dead — report its recorded failure.
                .map(|(r, e)| e.unwrap_or_else(|| GatherEntry::Lost(view.lost_entry(r))))
                .collect(),
        )
    } else {
        let parent = tree.parent(rank).expect("gather: non-root has a parent");
        // Collect this subtree's contributions in `subtree_order`, then
        // relay them upward; the parent knows the order from the shared
        // tree, so no metadata travels on the wire.
        let mut collected: Vec<M> = vec![msg];
        for &child in tree.children_gather(rank) {
            for _ in 0..tree.subtree_size(child) {
                collected.push(ctx.recv(child));
            }
        }
        for m in collected {
            ctx.send(parent, m);
        }
        None
    }
}

/// Scatter from `root`: the root supplies one message per rank (its own
/// element is returned to it directly); every rank returns its element.
/// `mode` selects whether transfers are charged (see [`ScatterMode`]).
///
/// Scatters are always linear: payloads are personalized and
/// non-splittable, so relaying a full item over a tree costs at least as
/// much as the direct send on every platform in this repository (the
/// triangle inequality holds for all preset link matrices) — see
/// `docs/COMMS.md`.
pub fn scatter<M: Wire>(
    ctx: &mut Ctx<M>,
    root: usize,
    items: Option<Vec<M>>,
    mode: ScatterMode,
) -> Result<M, CollError> {
    let op = CollOp::Scatter;
    let bits_hint = match (&items, mode) {
        (_, ScatterMode::Free) => 0,
        (Some(v), _) => v.first().map_or(0, |m| m.size_bits()),
        (None, _) => 0,
    };
    let view = Membership::new(ctx.num_ranks());
    let algorithm = resolve_over(ctx, op, CollAlgorithm::Linear, root, &view, bits_hint);
    debug_assert_eq!(algorithm, CollAlgorithm::Linear);
    if ctx.rank() == root {
        let items = items.ok_or(CollError::RootMissingPayload { op })?;
        if items.len() != ctx.num_ranks() {
            return Err(CollError::WrongItemCount {
                expected: ctx.num_ranks(),
                got: items.len(),
            });
        }
        let mut own = None;
        for (dst, item) in items.into_iter().enumerate() {
            if dst == root {
                own = Some(item);
            } else {
                match mode {
                    ScatterMode::Free => ctx.send_free(dst, item),
                    ScatterMode::Charged => ctx.send(dst, item),
                }
            }
        }
        Ok(own.expect("scatter: the root's own element exists"))
    } else {
        if items.is_some() {
            return Err(CollError::NonRootPayload { op });
        }
        Ok(ctx.recv(root))
    }
}

/// Reduce to `root` with a binary fold under `cfg`: the root returns
/// `Some(folded)` over the surviving contributions, everyone else
/// `None`. [`reduce_over`] with every rank alive.
///
/// [`CollAlgorithm::Linear`] folds strictly in rank order (the paper's
/// root-mediated behaviour). Tree algorithms fold partial results inside
/// relays: binomial subtrees are contiguous rank blocks, so for a root
/// at rank 0 the tree *regroups* — never reorders — the linear fold, and
/// any **associative** fold is bit-identical to linear;
/// [`CollAlgorithm::SegmentHierarchical`] additionally requires
/// commutativity when segments interleave in rank space. See
/// `docs/COMMS.md`.
///
/// # Panics
/// Panics if `root` is not a rank of this run.
pub fn reduce<M: Wire>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    msg: M,
    fold: impl Fn(M, M) -> M,
    bits_hint: u64,
) -> Option<M> {
    let view = Membership::new(ctx.num_ranks());
    reduce_over(ctx, cfg, root, &view, msg, fold, bits_hint).expect("reduce: root out of range")
}

/// Reduce over a [`Membership`] view: survivors fold over the survivor
/// tree (known-dead ranks contribute nothing and relay nothing).
/// Fold-order caveats are those of [`reduce`], applied to the survivor
/// list.
pub fn reduce_over<M: Wire>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    view: &Membership,
    msg: M,
    fold: impl Fn(M, M) -> M,
    bits_hint: u64,
) -> Result<Option<M>, CollError> {
    let (algorithm, tree) = plan(ctx, cfg, CollOp::Reduce, root, view, bits_hint)?;
    if algorithm == CollAlgorithm::Linear {
        // A linear gather plus a free rank-order fold at the root,
        // skipping the lost (and known-dead) contributions.
        return Ok(run_gather(ctx, &tree, view, msg).map(|entries| {
            let mut it = entries.into_iter().filter_map(GatherEntry::into_msg);
            let first = it.next().expect("reduce: the root's own contribution");
            it.fold(first, fold)
        }));
    }
    let rank = ctx.rank();
    let mut acc = msg;
    if rank == root {
        for &child in tree.children_gather(rank) {
            // A lost relay loses its subtree's partial; fold the
            // survivors (mirrors linear's hole-skipping).
            if let Ok(partial) = ctx.recv_deadline(child, f64::INFINITY) {
                acc = fold(acc, partial);
            }
        }
        Ok(Some(acc))
    } else {
        for &child in tree.children_gather(rank) {
            let partial = ctx.recv(child);
            acc = fold(acc, partial);
        }
        let parent = tree.parent(rank).expect("reduce: non-root has a parent");
        ctx.send(parent, acc);
        Ok(None)
    }
}

/// Fused allreduce under `cfg`: every rank contributes `msg`, partials
/// fold upward through the tree's gather edges, and the root's result
/// fans back down the broadcast edges of the **same** schedule. Every
/// rank returns the folded value — one tree instead of a full gather
/// followed by a full broadcast. [`allreduce_over`] with every rank
/// alive.
///
/// The fold must be **associative** and **size-preserving** (every
/// contribution and every partial must share one wire size, which is
/// also what makes [`predict`]'s replay exact); like [`reduce`],
/// [`CollAlgorithm::SegmentHierarchical`] additionally requires
/// commutativity when segments interleave in rank space. On the
/// [`CollAlgorithm::Linear`] star this is message-for-message identical
/// to a linear gather, a free rank-order fold at the root, and a linear
/// broadcast of the result.
///
/// **Failure semantics.** A crashed contributor's partial is skipped at
/// the root exactly like [`reduce`]'s hole-skipping (a dead relay loses
/// its whole subtree); ranks below a dead relay unwind as structured
/// `PeerLost` failures and the root's sends to dead children are
/// dropped — the collective never hangs and never aborts the run.
///
/// `bits_hint` feeds `Auto` selection only and **must be identical on
/// every rank** (see the module docs); transfers charge actual sizes.
///
/// # Panics
/// Panics if `root` is not a rank of this run.
pub fn allreduce<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    msg: M,
    fold: impl Fn(M, M) -> M,
    bits_hint: u64,
) -> M {
    let view = Membership::new(ctx.num_ranks());
    allreduce_over(ctx, cfg, root, &view, msg, fold, bits_hint)
        .expect("allreduce: root out of range")
}

/// Fused allreduce over a [`Membership`] view: survivors fold up and fan
/// back down the survivor tree; every survivor returns the folded value.
/// The fold contract (associative, size-preserving; see [`allreduce`])
/// applies to the survivor list.
pub fn allreduce_over<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    view: &Membership,
    msg: M,
    fold: impl Fn(M, M) -> M,
    bits_hint: u64,
) -> Result<M, CollError> {
    let (_, tree) = plan(ctx, cfg, CollOp::Allreduce, root, view, bits_hint)?;
    let rank = ctx.rank();
    let mut acc = msg;
    if rank == root {
        for &child in tree.children_gather(rank) {
            // A lost relay loses its subtree's partial; fold the
            // survivors (mirrors `reduce`'s hole-skipping).
            if let Ok(partial) = ctx.recv_deadline(child, f64::INFINITY) {
                acc = fold(acc, partial);
            }
        }
    } else {
        for &child in tree.children_gather(rank) {
            let partial = ctx.recv(child);
            acc = fold(acc, partial);
        }
        let parent = tree.parent(rank).expect("allreduce: non-root has a parent");
        ctx.send(parent, acc);
        acc = ctx.recv(parent);
    }
    Ok(fanout_retain(ctx, tree.children_bcast(rank), acc, None))
}

/// Root-side fan-out of per-destination messages built by `make` —
/// the collective entry point for masters whose workers only ever
/// `recv(0)`: a tree schedule cannot relay through workers that never
/// forward, so the fan-out stays linear by construction. The
/// fault-tolerant drivers in `hetero::ft` use this as their default
/// state-distribution path; with [`crate::Membership`], [`resolve_over`]
/// and [`tree_over`] they can instead ship state down an epoch-stamped
/// survivor tree (`FtOptions::collectives`).
/// Destinations are sent in slice order.
pub fn fanout_with<M: Wire>(ctx: &mut Ctx<M>, dsts: &[usize], mut make: impl FnMut() -> M) {
    for &dst in dsts {
        let m = make();
        ctx.send(dst, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, WireVec};
    use crate::platform::Platform;
    use crate::presets;

    fn engine(p: usize) -> Engine {
        Engine::new(Platform::uniform("t", p, 0.01, 1024, 10.0))
    }

    /// The full member list — what an all-alive view resolves over.
    fn all_ranks(platform: &Platform) -> Vec<usize> {
        (0..platform.num_procs()).collect()
    }

    /// [`resolve_over`]'s decision without a `Ctx`: the concrete
    /// algorithm for `op` over `members` (ascending, containing `root`)
    /// and its predicted cost — what rank 0 logs.
    fn select_over(
        platform: &Platform,
        latency_s: f64,
        op: CollOp,
        requested: CollAlgorithm,
        root: usize,
        bits: u64,
        members: &[usize],
    ) -> (CollAlgorithm, f64) {
        let predict = |alg| predict_over(platform, latency_s, op, alg, root, bits, members);
        let (algorithm, scanned) = choose(op, requested, bits, predict);
        (algorithm, scanned.unwrap_or_else(|| predict(algorithm)))
    }

    const ALGOS: [CollAlgorithm; 5] = [
        CollAlgorithm::Linear,
        CollAlgorithm::BinomialTree,
        CollAlgorithm::SegmentHierarchical,
        CollAlgorithm::PipelinedChunked,
        CollAlgorithm::Auto,
    ];

    #[test]
    fn broadcast_delivers_under_every_algorithm() {
        for alg in ALGOS {
            let cfg = CollectiveConfig::uniform(alg);
            let report = engine(6).run(move |ctx| {
                let msg = if ctx.is_root() {
                    Some(WireVec(vec![42u32, 7]))
                } else {
                    None
                };
                broadcast(ctx, &cfg, 0, msg, 64).expect("broadcast").0
            });
            for r in 0..6 {
                assert_eq!(*report.result(r), vec![42, 7], "{alg}: rank {r}");
            }
        }
    }

    #[test]
    fn gather_rank_order_under_every_algorithm() {
        for alg in ALGOS {
            let cfg = CollectiveConfig::uniform(alg);
            for p in [2usize, 5, 6, 9] {
                let report = engine(p).run(move |ctx| {
                    gather(ctx, &cfg, 0, ctx.rank() as u64, 64).map(|entries| {
                        entries
                            .into_iter()
                            .map(|e| e.into_msg().expect("healthy"))
                            .collect::<Vec<_>>()
                    })
                });
                let expect: Vec<u64> = (0..p as u64).collect();
                assert_eq!(
                    report.result(0).as_deref(),
                    Some(&expect[..]),
                    "{alg} p={p}"
                );
            }
        }
    }

    #[test]
    fn reduce_associative_fold_matches_linear() {
        // Wrapping add: associative and commutative, exact on u64.
        for alg in ALGOS {
            let cfg = CollectiveConfig::uniform(alg);
            let report = engine(9).run(move |ctx| {
                reduce(
                    ctx,
                    &cfg,
                    0,
                    (ctx.rank() as u64 + 1) * 1_000_003,
                    |a, b| a.wrapping_add(b),
                    64,
                )
            });
            let expect: u64 = (1..=9u64).map(|r| r * 1_000_003).sum();
            assert_eq!(*report.result(0), Some(expect), "{alg}");
        }
    }

    #[test]
    fn binomial_reduce_regroups_associative_noncommutative_fold() {
        // String concatenation: associative, NOT commutative. Binomial
        // subtrees are contiguous rank blocks, so the result must equal
        // the linear left fold exactly.
        for alg in [CollAlgorithm::Linear, CollAlgorithm::BinomialTree] {
            let cfg = CollectiveConfig::uniform(alg);
            for p in [2usize, 5, 7, 8] {
                let report = engine(p).run(move |ctx| {
                    reduce(
                        ctx,
                        &cfg,
                        0,
                        WireVec(vec![ctx.rank() as u8]),
                        |mut a, b| {
                            a.0.extend_from_slice(&b.0);
                            a
                        },
                        8,
                    )
                    .map(|m| m.0)
                });
                let expect: Vec<u8> = (0..p as u8).collect();
                assert_eq!(
                    report.result(0).as_deref(),
                    Some(&expect[..]),
                    "{alg} p={p}"
                );
            }
        }
    }

    #[test]
    fn allreduce_delivers_folded_value_to_every_rank() {
        for alg in ALGOS {
            let cfg = CollectiveConfig::uniform(alg);
            let report = engine(9).run(move |ctx| {
                allreduce(
                    ctx,
                    &cfg,
                    0,
                    (ctx.rank() as u64 + 1) * 1_000_003,
                    |a, b| a.wrapping_add(b),
                    64,
                )
            });
            let expect: u64 = (1..=9u64).map(|r| r * 1_000_003).sum();
            for r in 0..9 {
                assert_eq!(*report.result(r), expect, "{alg}: rank {r}");
            }
        }
    }

    #[test]
    fn allreduce_single_rank_returns_own_contribution() {
        let cfg = CollectiveConfig::uniform(CollAlgorithm::BinomialTree);
        let report = engine(1).run(move |ctx| allreduce(ctx, &cfg, 0, 7u64, |a, b| a + b, 64));
        assert_eq!(*report.result(0), 7);
    }

    #[test]
    fn allreduce_skips_crashed_contributor_and_completes() {
        let plan = crate::faults::FaultPlan::new().crash(2, 0.0);
        let cfg = CollectiveConfig::default();
        let report = engine(4)
            .with_faults(plan)
            .run(move |ctx| allreduce(ctx, &cfg, 0, 1u64 << (ctx.rank() * 8), |a, b| a | b, 64));
        // Rank 2's bit is an explicit hole in the fold; the survivors
        // still learn the reduced value.
        let expect = 1 | (1 << 8) | (1 << 24);
        for r in [0usize, 1, 3] {
            assert_eq!(*report.result(r), expect, "rank {r}");
        }
        assert!(report.failure_of(2).is_some());
    }

    #[test]
    fn auto_with_zero_bits_hint_resolves_to_linear() {
        let platform = presets::fully_heterogeneous();
        for op in [
            CollOp::Broadcast,
            CollOp::Gather,
            CollOp::Reduce,
            CollOp::Allreduce,
        ] {
            let (alg, _) = select_over(
                &platform,
                platform.msg_latency_s(),
                op,
                CollAlgorithm::Auto,
                0,
                0,
                &all_ranks(&platform),
            );
            assert_eq!(alg, CollAlgorithm::Linear, "{op}: zero-bit hint");
        }
    }

    #[test]
    fn broadcast_overlap_delivers_and_calls_back_once_per_chunk() {
        for alg in ALGOS {
            let cfg = CollectiveConfig::uniform(alg);
            let report = engine(6).run(move |ctx| {
                let msg = if ctx.is_root() {
                    Some(WireVec(vec![3u32; 64]))
                } else {
                    None
                };
                let mut calls = Vec::new();
                let payload = {
                    let calls = &mut calls;
                    broadcast_overlap(ctx, &cfg, 0, msg, 64 * 32, |_, c, k| calls.push((c, k)))
                        .expect("broadcast")
                };
                (payload.0, calls)
            });
            for r in 0..6 {
                let (payload, calls) = report.result(r);
                assert_eq!(*payload, vec![3u32; 64], "{alg}: rank {r}");
                let k = calls.len();
                assert!(k >= 1, "{alg}: rank {r} callback never ran");
                let expect: Vec<(usize, usize)> = (0..k).map(|c| (c, k)).collect();
                assert_eq!(*calls, expect, "{alg}: rank {r} chunk indices");
            }
        }
    }

    #[test]
    fn overlapped_leaf_compute_never_finishes_later() {
        // Same wire schedule, compute sliced into the arrival gaps: the
        // overlapped run must end no later than broadcast-then-compute.
        let platform = presets::fully_heterogeneous();
        let mflops = 20.0;
        let cfg = CollectiveConfig {
            broadcast: CollAlgorithm::PipelinedChunked,
            ..CollectiveConfig::linear()
        };
        let bits: u64 = 16_128 * 8;
        let plain = Engine::new(platform.clone())
            .run(move |ctx| {
                let msg = if ctx.is_root() {
                    Some(WireVec(vec![0u8; (bits / 8) as usize]))
                } else {
                    None
                };
                let _ = broadcast(ctx, &cfg, 0, msg, bits).expect("broadcast");
                ctx.compute_par(mflops);
            })
            .total_time;
        let overlapped = Engine::new(platform)
            .run(move |ctx| {
                let msg = if ctx.is_root() {
                    Some(WireVec(vec![0u8; (bits / 8) as usize]))
                } else {
                    None
                };
                let _ = broadcast_overlap(ctx, &cfg, 0, msg, bits, |ctx, _, k| {
                    ctx.compute_par(mflops / k as f64)
                })
                .expect("broadcast");
            })
            .total_time;
        assert!(
            overlapped <= plain + 1e-12,
            "overlap slower: {overlapped} > {plain}"
        );
        assert!(
            overlapped < plain,
            "overlap should absorb serial-link gaps ({overlapped} vs {plain})"
        );
    }

    #[test]
    fn broadcast_misuse_is_an_error_not_a_panic() {
        let cfg = CollectiveConfig::default();
        let report = engine(2).run(move |ctx| {
            if ctx.is_root() {
                // Root forgot the payload.
                broadcast::<u64>(ctx, &cfg, 0, None, 64).err()
            } else {
                // Non-root supplied one.
                broadcast(ctx, &cfg, 0, Some(9u64), 64).err()
            }
        });
        assert_eq!(
            *report.result(0),
            Some(CollError::RootMissingPayload {
                op: CollOp::Broadcast
            })
        );
        assert_eq!(
            *report.result(1),
            Some(CollError::NonRootPayload {
                op: CollOp::Broadcast
            })
        );
    }

    #[test]
    fn scatter_wrong_count_is_an_error() {
        let report = engine(3).run(|ctx| {
            let items = if ctx.is_root() {
                Some(vec![1u64, 2]) // 2 items for 3 ranks
            } else {
                None
            };
            if ctx.is_root() {
                scatter(ctx, 0, items, ScatterMode::Free).err()
            } else {
                // Workers would block on a recv that never comes; skip.
                None
            }
        });
        assert_eq!(
            *report.result(0),
            Some(CollError::WrongItemCount {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn crashed_rank_becomes_lost_entry_not_abort() {
        let plan = crate::faults::FaultPlan::new().crash(2, 0.0);
        let cfg = CollectiveConfig::default();
        let report = engine(4).with_faults(plan).run(move |ctx| {
            gather(ctx, &cfg, 0, ctx.rank() as u64, 64).map(|entries| {
                entries
                    .into_iter()
                    .map(|e| match e {
                        GatherEntry::Ok(v) => (Some(v), None),
                        GatherEntry::Lost(f) => (None, Some(f.rank)),
                    })
                    .collect::<Vec<_>>()
            })
        });
        let root = report.results[0].clone().flatten().expect("root completes");
        assert_eq!(root[0], (Some(0), None));
        assert_eq!(root[1], (Some(1), None));
        assert_eq!(root[2], (None, Some(2)), "crashed rank is an explicit hole");
        assert_eq!(root[3], (Some(3), None));
    }

    #[test]
    fn auto_picks_hierarchical_for_large_broadcast_on_heterogeneous() {
        let platform = presets::fully_heterogeneous();
        let bits = 18 * 224 * 32; // endmember matrix U
        let (alg, _) = select_over(
            &platform,
            platform.msg_latency_s(),
            CollOp::Broadcast,
            CollAlgorithm::Auto,
            0,
            bits,
            &all_ranks(&platform),
        );
        assert!(
            alg == CollAlgorithm::SegmentHierarchical || alg == CollAlgorithm::PipelinedChunked,
            "expected a segment-aware pick, got {alg}"
        );
    }

    #[test]
    fn auto_resolves_to_linear_on_tie() {
        // Single segment: hierarchical == linear exactly; Linear must
        // win the tie so single-segment platforms keep the baseline.
        let platform = Platform::uniform("u4", 4, 0.01, 64, 10.0);
        let (alg, _) = select_over(
            &platform,
            platform.msg_latency_s(),
            CollOp::Gather,
            CollAlgorithm::Auto,
            0,
            1_000_000,
            &all_ranks(&platform),
        );
        assert_eq!(alg, CollAlgorithm::Linear);
    }

    #[test]
    fn choices_are_recorded_in_the_report() {
        let cfg = CollectiveConfig::auto();
        let report = engine(4).run(move |ctx| {
            let msg = if ctx.is_root() { Some(5u64) } else { None };
            let v = broadcast(ctx, &cfg, 0, msg, 64).expect("broadcast");
            let _ = gather(ctx, &cfg, 0, v, 64);
        });
        assert_eq!(report.collectives.len(), 2);
        assert_eq!(report.collectives[0].op, CollOp::Broadcast);
        assert_eq!(report.collectives[0].requested, CollAlgorithm::Auto);
        assert_ne!(report.collectives[0].algorithm, CollAlgorithm::Auto);
        assert_eq!(report.collectives[1].op, CollOp::Gather);
    }

    #[test]
    fn predicted_cost_is_exact_for_rooted_broadcast() {
        // The Auto guarantee hinges on this: prediction == measurement
        // for a collective issued at t = 0 on aligned clocks.
        for platform in presets::four_networks() {
            for alg in [
                CollAlgorithm::Linear,
                CollAlgorithm::BinomialTree,
                CollAlgorithm::SegmentHierarchical,
                CollAlgorithm::PipelinedChunked,
            ] {
                let bits: u64 = 18 * 224 * 32;
                let latency = platform.msg_latency_s();
                let predicted = predict(&platform, latency, CollOp::Broadcast, alg, 0, bits);
                let cfg = CollectiveConfig::uniform(alg);
                let name = platform.name().to_string();
                let report = Engine::new(platform.clone()).run(move |ctx| {
                    let msg = if ctx.is_root() {
                        Some(WireVec(vec![0u8; (bits / 8) as usize]))
                    } else {
                        None
                    };
                    let _ = broadcast(ctx, &cfg, 0, msg, bits).expect("broadcast");
                });
                assert!(
                    (report.total_time - predicted).abs() < 1e-9,
                    "{name}/{alg}: predicted {predicted} vs measured {}",
                    report.total_time
                );
            }
        }
    }

    #[test]
    fn predicted_cost_is_exact_for_gather_and_reduce() {
        for platform in presets::four_networks() {
            for alg in [
                CollAlgorithm::Linear,
                CollAlgorithm::BinomialTree,
                CollAlgorithm::SegmentHierarchical,
            ] {
                let bits: u64 = 224 * 32;
                let latency = platform.msg_latency_s();
                for op in [CollOp::Gather, CollOp::Reduce] {
                    let predicted = predict(&platform, latency, op, alg, 0, bits);
                    let cfg = CollectiveConfig::uniform(alg);
                    let name = platform.name().to_string();
                    let report = Engine::new(platform.clone()).run(move |ctx| {
                        let payload = WireVec(vec![0u8; (bits / 8) as usize]);
                        match op {
                            CollOp::Gather => {
                                let _ = gather(ctx, &cfg, 0, payload, bits);
                            }
                            CollOp::Reduce => {
                                let _ = reduce(ctx, &cfg, 0, payload, |a, _| a, bits);
                            }
                            _ => unreachable!(),
                        }
                    });
                    assert!(
                        (report.total_time - predicted).abs() < 1e-9,
                        "{name}/{alg}/{op}: predicted {predicted} vs measured {}",
                        report.total_time
                    );
                }
            }
        }
    }

    #[test]
    fn split_chunks_sums_and_never_empties() {
        assert_eq!(split_chunks(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_chunks(0, 4), vec![0, 0, 0, 0]);
        assert_eq!(split_chunks(7, 0), vec![7]);
        assert_eq!(split_chunks(129_024, 4).iter().sum::<u64>(), 129_024);
    }

    #[test]
    fn selection_is_pinned_on_the_fully_heterogeneous_network() {
        // Literal (algorithm, predicted_secs) pairs captured at the last
        // commit that still had separate all-ranks and survivor-set
        // selectors: the merged rule must reproduce them bit for bit.
        use CollAlgorithm::{Auto, BinomialTree, SegmentHierarchical};
        let platform = presets::fully_heterogeneous();
        let pins = [
            (CollOp::Broadcast, Auto, BinomialTree, 0.02759332864_f64),
            (
                CollOp::Broadcast,
                SegmentHierarchical,
                SegmentHierarchical,
                0.02978054144,
            ),
            (CollOp::Gather, Auto, BinomialTree, 0.11885742080000003),
            (
                CollOp::Gather,
                SegmentHierarchical,
                SegmentHierarchical,
                0.12361931263999998,
            ),
            (CollOp::Allreduce, Auto, SegmentHierarchical, 0.05356108288),
            (
                CollOp::Allreduce,
                SegmentHierarchical,
                SegmentHierarchical,
                0.05356108288,
            ),
        ];
        for (op, requested, algorithm, secs) in pins {
            let got = select_over(
                &platform,
                0.001,
                op,
                requested,
                0,
                129_024,
                &all_ranks(&platform),
            );
            assert_eq!(got.0, algorithm, "{op}/{requested}");
            assert_eq!(
                got.1.to_bits(),
                secs.to_bits(),
                "{op}/{requested}: {}",
                got.1
            );
        }
    }

    #[test]
    fn only_the_logging_rank_predicts_for_a_pinned_algorithm() {
        // The logged choice is the contract; who computes it is not. A
        // pinned (non-Auto) request logs the same predicted cost the
        // Ctx-free selector reports.
        let platform = presets::fully_heterogeneous();
        let latency = platform.msg_latency_s();
        let bits: u64 = 129_024;
        let want = select_over(
            &platform,
            latency,
            CollOp::Gather,
            CollAlgorithm::SegmentHierarchical,
            0,
            bits,
            &all_ranks(&platform),
        );
        let cfg = CollectiveConfig::uniform(CollAlgorithm::PipelinedChunked);
        let report = Engine::new(platform).run(move |ctx| {
            let _ = gather(ctx, &cfg, 0, WireVec(vec![0u8; (bits / 8) as usize]), bits);
        });
        assert_eq!(report.collectives.len(), 1);
        let logged = &report.collectives[0];
        assert_eq!(logged.requested, CollAlgorithm::PipelinedChunked);
        assert_eq!(logged.algorithm, want.0);
        assert_eq!(logged.predicted_secs.to_bits(), want.1.to_bits());
    }

    #[test]
    fn a_run_builds_one_schedule_per_key_whatever_the_rank_and_call_count() {
        // The gate against a return to per-rank, per-call planning — a
        // count, so it holds on any host. 256 ranks, 18 linear gather +
        // broadcast rounds: one schedule. A binomial allreduce: one
        // more. A new alive set: one more per survivor tree asked for.
        const P: usize = 256;
        let linear = CollectiveConfig::linear();
        let binomial = CollectiveConfig::uniform(CollAlgorithm::BinomialTree);
        // A linear gather + broadcast nobody can leave before everybody
        // entered: keeps a fast rank from adding the next phase's key
        // while a slow one still counts this phase's.
        let barrier = move |ctx: &mut Ctx<u64>| {
            let token = gather(ctx, &linear, 0, 0, 64).map(|_| 0);
            broadcast(ctx, &linear, 0, token, 64).expect("barrier");
        };
        let report = engine(P).run(move |ctx: &mut Ctx<u64>| {
            for round in 0..18u64 {
                let winner = gather(ctx, &linear, 0, ctx.rank() as u64, 64).map(|_| round);
                broadcast(ctx, &linear, 0, winner, 64).expect("broadcast");
            }
            let after_rounds = ctx.schedules().len();
            let all = Membership::new(P);
            let star = tree_over(ctx, CollAlgorithm::Linear, 0, &all);
            barrier(ctx);

            let sum = allreduce(ctx, &binomial, 0, 1u64, |a, b| a + b, 64);
            assert_eq!(sum, P as u64);
            let after_allreduce = ctx.schedules().len();
            barrier(ctx);

            let mut view = Membership::new(P);
            assert!(view.observe_failure(&RankFailure {
                rank: P - 1,
                at: 0.0,
                cause: FailureCause::Crash,
            }));
            let survivor_star = tree_over(ctx, CollAlgorithm::Linear, 0, &view);
            let survivor_tree = tree_over(ctx, CollAlgorithm::BinomialTree, 0, &view);
            assert_eq!(survivor_star.parent(P - 1), None, "routed around");
            assert_eq!(survivor_tree.parent(P - 1), None, "routed around");
            let after_epoch = ctx.schedules().len();
            (
                [after_rounds, after_allreduce, after_epoch],
                [star, survivor_star, survivor_tree],
            )
        });
        assert!(report.ok());
        let (_, first_handles) = report.result(0);
        for rank in 0..P {
            let (counts, handles) = report.result(rank);
            assert_eq!(*counts, [1, 2, 4], "rank {rank}");
            for (mine, firsts) in handles.iter().zip(first_handles) {
                assert!(Arc::ptr_eq(mine, firsts), "rank {rank} got its own tree");
            }
        }
    }

    #[test]
    fn scatter_distributes_one_item_each() {
        let report = engine(3).run(|ctx| {
            let items = if ctx.is_root() {
                Some(vec![10u64, 20, 30])
            } else {
                None
            };
            scatter(ctx, 0, items, ScatterMode::Charged).expect("valid scatter")
        });
        assert_eq!(report.results, vec![Some(10), Some(20), Some(30)]);
    }

    #[test]
    fn scatter_free_cheaper_than_charged() {
        let payloads = || vec![WireVec(vec![0u8; 2_000_000]); 3];
        let t = |mode: ScatterMode| {
            engine(3)
                .run(move |ctx| {
                    let items = if ctx.is_root() {
                        Some(payloads())
                    } else {
                        None
                    };
                    let _ = scatter(ctx, 0, items, mode).expect("valid scatter");
                    ctx.elapsed()
                })
                .total_time
        };
        assert!(t(ScatterMode::Free) < t(ScatterMode::Charged));
    }

    #[test]
    fn linear_broadcast_timing_charges_links() {
        // 4 ranks, 10 ms/Mbit links, 1 Mbit message => each non-root rank
        // pays at least one 10 ms transfer.
        let cfg = CollectiveConfig::linear();
        let report = engine(4).run(move |ctx| {
            let msg = if ctx.is_root() {
                Some(WireVec(vec![0u8; 125_000]))
            } else {
                None
            };
            let _ = broadcast(ctx, &cfg, 0, msg, 1_000_000).expect("valid broadcast");
            ctx.elapsed()
        });
        for r in 1..4 {
            assert!(*report.result(r) >= 0.01, "rank {r}: {}", report.result(r));
        }
    }

    /// Four ranks; rank 2 returns before the collective — a clean exit,
    /// not a crash — while the others run `body`.
    fn with_rank_2_exiting_early<T: Send>(
        body: impl Fn(&mut Ctx<u64>) -> T + Sync,
    ) -> crate::RunReport<Option<T>> {
        let report = engine(4).run(move |ctx| (ctx.rank() != 2).then(|| body(ctx)));
        assert!(
            report.ok(),
            "a clean exit kills nobody: {:?}",
            report.failures
        );
        assert!(report.total_time.is_finite(), "{}", report.total_time);
        report
    }

    #[test]
    fn clean_exit_under_an_infinite_deadline_is_a_lost_peer_not_a_crash() {
        // `recv_deadline(src, ∞)` on a peer that exited cleanly used to
        // evaluate `∞ >= crash_at (∞)` and unwind the *caller* as a
        // phantom `Crash` at t = inf. It must surface as the gather's
        // explicit PeerLost hole instead.
        let cfg = CollectiveConfig::linear();
        let report =
            with_rank_2_exiting_early(move |ctx| gather(ctx, &cfg, 0, ctx.rank() as u64, 64));
        let entries = report.result(0).clone().flatten().expect("root completes");
        for (r, e) in entries.iter().enumerate() {
            match e {
                GatherEntry::Ok(v) => assert_eq!((r as u64, r != 2), (*v, true)),
                GatherEntry::Lost(f) => {
                    assert_eq!(r, 2);
                    assert_eq!(f.cause, FailureCause::PeerLost { peer: 2 });
                    assert!(f.at.is_finite());
                }
            }
        }
        assert!(entries[2].is_lost());
    }

    #[test]
    fn reduce_and_allreduce_skip_a_cleanly_exited_contributor() {
        let bit = |rank: usize| 1u64 << (rank * 8);
        for alg in [CollAlgorithm::Linear, CollAlgorithm::BinomialTree] {
            let cfg = CollectiveConfig::uniform(alg);
            let report = with_rank_2_exiting_early(move |ctx| {
                reduce(ctx, &cfg, 0, bit(ctx.rank()), |a, b| a | b, 64)
            });
            // The binomial tree parents rank 3 under rank 2, so its
            // partial is lost with the relay — the crashed-relay rule.
            let expect = match alg {
                CollAlgorithm::Linear => bit(0) | bit(1) | bit(3),
                _ => bit(0) | bit(1),
            };
            assert_eq!(*report.result(0), Some(Some(expect)), "{alg}: reduce");
        }
        let cfg = CollectiveConfig::linear();
        let report = with_rank_2_exiting_early(move |ctx| {
            allreduce(ctx, &cfg, 0, bit(ctx.rank()), |a, b| a | b, 64)
        });
        for r in [0usize, 1, 3] {
            assert_eq!(
                *report.result(r),
                Some(bit(0) | bit(1) | bit(3)),
                "allreduce: rank {r}"
            );
        }
    }
}
