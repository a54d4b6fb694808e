//! Post-run profiler: exact per-rank phase accounting and critical-path
//! extraction over a run's [`Trace`].
//!
//! The profiler is **pure observability**: it consumes the finalized
//! trace stream plus the per-rank [`TimeLedger`]s after the run and
//! never feeds anything back into the simulation, so a profiled run is
//! bit-identical to an unprofiled one in every other report field.
//!
//! # Phase taxonomy
//!
//! Each rank's wall-clock is decomposed into eight phases (see
//! `docs/PROF.md` for the full taxonomy):
//!
//! | phase | source |
//! |---|---|
//! | `compute_par` | [`TraceKind::ComputePar`] spans |
//! | `compute_seq` | [`TraceKind::ComputeSeq`] spans |
//! | `offload` | [`TraceKind::Offload`] spans (launch + H2D + device + D2H) |
//! | `send_wait` | [`TraceKind::Send`] sender-overhead spans |
//! | `recv_wait` | transfer tail of delivered [`TraceKind::Recv`] spans |
//! | `contention` | FIFO link-queueing tail of delivered receive spans |
//! | `recovery` | merged [`TraceKind::Recovery`] windows (overlay) |
//! | `idle` | everything else (late senders, timeouts, barrier waits) |
//!
//! # The accounting identity
//!
//! For every rank the canonical left-fold of the eight phases equals the
//! rank's wall-clock **bitwise** (`f64::to_bits` equality, no epsilon) —
//! the same exactness discipline as an offload's charged span, which
//! equals [`crate::accel::DeviceSpec::offload_secs`] to the bit.
//! Floating-point addition is not associative, so the identity is *made*
//! exact rather than assumed: the seven non-idle phases are measured
//! from trace spans, and `idle` is solved as the residual with a bounded
//! ulp-stepping search (`fl(partial + idle) == wall`). The search always
//! terminates in a handful of steps: when `partial ≥ wall/2` Sterbenz's
//! lemma makes `wall - partial` exact, and otherwise the residual
//! exceeds `wall/2` so its ulp is at least half of `wall`'s. In the
//! degenerate corner where the measured phases alone overshoot the
//! wall-clock by a few ulps (a rank with no idle at all), the largest
//! phase is stepped down until the fold lands exactly — attribution
//! honesty is traded one ulp at a time, never silently.
//!
//! # Critical path
//!
//! The path is extracted by a backward frontier walk from the rank that
//! realises the makespan: within a rank it follows busy spans and idle
//! gaps backwards; at a *binding* delivered receive (one that advanced
//! the receiver's clock) it crosses the message edge to the sender's
//! injection instant, attributing the wire hole to the inter-segment
//! link (transfer + queueing). The resulting element list satisfies two
//! always-gateable bounds: `length ≤ makespan` and
//! `fl(length + slack) == makespan` bitwise, where `length` folds the
//! work elements and `slack` the attributed non-work time.

use crate::clock::TimeLedger;
use crate::platform::Platform;
use crate::trace::{Trace, TraceEvent, TraceKind};

/// Maximum ulp-stepping iterations for the residual solvers; the
/// Sterbenz argument above bounds the actual step count by ~4.
const MAX_ULP_STEPS: usize = 64;

/// The phase a profiled span is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PhaseKind {
    /// Parallel-phase host computation.
    ComputePar,
    /// Sequential-phase (root-only) computation.
    ComputeSeq,
    /// Offloaded kernel execution (launch + transfers + device compute).
    Offload,
    /// Sender-side message injection overhead.
    SendWait,
    /// Receive wait covered by the delivered transfer itself.
    RecvWait,
    /// Receive wait caused by FIFO queueing on a serial inter-segment
    /// link (the transfer waited behind earlier reservations).
    Contention,
    /// Master-side recovery span after losing a worker (overlay phase:
    /// primitive spans inside a recovery window are re-attributed here).
    Recovery,
    /// Unattributed time: late senders, deadline timeouts, barrier
    /// waits, crash idling.
    Idle,
}

impl PhaseKind {
    /// Short display label (`"compute_par"`, `"idle"`, …).
    pub fn label(&self) -> &'static str {
        match self {
            PhaseKind::ComputePar => "compute_par",
            PhaseKind::ComputeSeq => "compute_seq",
            PhaseKind::Offload => "offload",
            PhaseKind::SendWait => "send_wait",
            PhaseKind::RecvWait => "recv_wait",
            PhaseKind::Contention => "contention",
            PhaseKind::Recovery => "recovery",
            PhaseKind::Idle => "idle",
        }
    }
}

/// One rank's wall-clock decomposed into phases.
///
/// The canonical fold [`PhaseBreakdown::accounted`] equals the rank's
/// wall-clock bitwise — see the module docs for how the identity is
/// enforced.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Parallel-phase host compute seconds.
    pub compute_par: f64,
    /// Sequential-phase compute seconds.
    pub compute_seq: f64,
    /// Offloaded kernel seconds (actual elapsed, dilation included).
    pub offload: f64,
    /// Sender-side injection overhead seconds.
    pub send_wait: f64,
    /// Receive wait covered by delivered transfers.
    pub recv_wait: f64,
    /// Receive wait caused by serial-link FIFO queueing.
    pub contention: f64,
    /// Recovery-window seconds (merged, overlay — see module docs).
    pub recovery: f64,
    /// Residual idle seconds (solved so the identity holds exactly).
    pub idle: f64,
    /// Nominal launch-latency seconds inside `offload` (informational:
    /// pre-dilation closed-form split, not part of the identity).
    pub offload_launch: f64,
    /// Nominal host→device transfer seconds inside `offload`.
    pub offload_h2d: f64,
    /// Nominal device-compute seconds inside `offload`.
    pub offload_compute: f64,
    /// Nominal device→host transfer seconds inside `offload`.
    pub offload_d2h: f64,
}

impl PhaseBreakdown {
    /// The canonical left-fold of the eight phases, in declaration
    /// order. Bitwise equal to the rank's wall-clock for every profile
    /// the engine produces.
    pub fn accounted(&self) -> f64 {
        self.non_idle_sum() + self.idle
    }

    /// The value of one phase.
    pub fn get(&self, phase: PhaseKind) -> f64 {
        match phase {
            PhaseKind::ComputePar => self.compute_par,
            PhaseKind::ComputeSeq => self.compute_seq,
            PhaseKind::Offload => self.offload,
            PhaseKind::SendWait => self.send_wait,
            PhaseKind::RecvWait => self.recv_wait,
            PhaseKind::Contention => self.contention,
            PhaseKind::Recovery => self.recovery,
            PhaseKind::Idle => self.idle,
        }
    }

    /// Left-fold of the seven non-idle phases (same order as
    /// [`PhaseBreakdown::accounted`]).
    fn non_idle_sum(&self) -> f64 {
        let mut s = self.compute_par;
        s += self.compute_seq;
        s += self.offload;
        s += self.send_wait;
        s += self.recv_wait;
        s += self.contention;
        s += self.recovery;
        s
    }

    /// The non-idle phase with the largest value (ties → earliest in
    /// canonical order), as a [`PhaseKind`].
    fn largest_non_idle(&self) -> PhaseKind {
        let mut best = PhaseKind::ComputePar;
        for p in [
            PhaseKind::ComputeSeq,
            PhaseKind::Offload,
            PhaseKind::SendWait,
            PhaseKind::RecvWait,
            PhaseKind::Contention,
            PhaseKind::Recovery,
        ] {
            if self.get(p) > self.get(best) {
                best = p;
            }
        }
        best
    }

    fn set(&mut self, phase: PhaseKind, v: f64) {
        match phase {
            PhaseKind::ComputePar => self.compute_par = v,
            PhaseKind::ComputeSeq => self.compute_seq = v,
            PhaseKind::Offload => self.offload = v,
            PhaseKind::SendWait => self.send_wait = v,
            PhaseKind::RecvWait => self.recv_wait = v,
            PhaseKind::Contention => self.contention = v,
            PhaseKind::Recovery => self.recovery = v,
            PhaseKind::Idle => self.idle = v,
        }
    }

    /// Solves `idle` (and, in the overshoot corner, nudges the largest
    /// measured phase) so that [`PhaseBreakdown::accounted`] equals
    /// `wall` bitwise.
    fn enforce_identity(&mut self, wall: f64) {
        for _ in 0..MAX_ULP_STEPS {
            let partial = self.non_idle_sum();
            if let Some(idle) = solve_residual(partial, wall) {
                self.idle = idle;
                return;
            }
            // Measured phases alone overshoot the wall-clock (a rank
            // with no idle): give back one ulp from the largest phase.
            let p = self.largest_non_idle();
            let v = self.get(p);
            if v <= 0.0 {
                break;
            }
            self.set(p, next_down(v).max(0.0));
        }
        // Mathematically unreachable (see module docs); keep the
        // identity rather than the attribution if it ever trips.
        *self = PhaseBreakdown {
            idle: wall,
            ..PhaseBreakdown::default()
        };
    }
}

/// One rank's profile: wall-clock and phase breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct RankProfile {
    /// The rank this profile describes.
    pub rank: usize,
    /// The rank's final virtual clock (crashed ranks: crash instant).
    pub wall: f64,
    /// The phase decomposition of `wall`.
    pub phases: PhaseBreakdown,
}

impl RankProfile {
    /// `true` iff the accounting identity holds bitwise on this rank.
    pub fn identity_holds(&self) -> bool {
        self.phases.accounted().to_bits() == self.wall.to_bits()
    }
}

/// Who owns a critical-path element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathOwner {
    /// Time spent on a rank, attributed to a phase. `Idle` elements are
    /// the path's attributed slack (gaps and non-delivered waits).
    Rank {
        /// The rank the element executes on.
        rank: usize,
        /// The phase the element is attributed to.
        phase: PhaseKind,
    },
    /// A message in flight on the inter-segment fabric: the wire hole
    /// between the sender's injection and the receiver's arrival.
    Link {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Sender's network segment.
        src_seg: usize,
        /// Receiver's network segment.
        dst_seg: usize,
        /// Link-occupancy seconds of the transfer.
        transfer: f64,
        /// FIFO queueing seconds behind earlier reservations.
        queued: f64,
    },
}

impl PathOwner {
    /// Deterministic attribution key (`"r3/compute_par"`,
    /// `"link s1->s0"`); link keys aggregate by segment pair.
    pub fn key(&self) -> String {
        match self {
            PathOwner::Rank { rank, phase } => format!("r{rank}/{}", phase.label()),
            PathOwner::Link {
                src_seg, dst_seg, ..
            } => format!("link s{src_seg}->s{dst_seg}"),
        }
    }

    /// `true` for slack (idle) elements — attributed non-work time.
    pub fn is_slack(&self) -> bool {
        matches!(
            self,
            PathOwner::Rank {
                phase: PhaseKind::Idle,
                ..
            }
        )
    }
}

/// One element of the critical path, in forward time order.
#[derive(Debug, Clone, PartialEq)]
pub struct PathElement {
    /// Who the element is attributed to.
    pub owner: PathOwner,
    /// Virtual start time.
    pub start: f64,
    /// Virtual end time.
    pub end: f64,
}

impl PathElement {
    /// Element duration in seconds.
    pub fn len(&self) -> f64 {
        self.end - self.start
    }

    /// `true` for zero-duration elements.
    pub fn is_empty(&self) -> bool {
        self.len() <= 0.0
    }
}

/// The dominant contributor on the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct Bottleneck {
    /// Attribution key of the dominant owner (see [`PathOwner::key`]).
    pub owner: String,
    /// Seconds the owner contributes to the path.
    pub seconds: f64,
    /// `seconds / makespan` (0 for an empty run).
    pub share: f64,
}

/// The extracted critical path with its bottleneck attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Path elements in forward time order (work and slack interleaved).
    pub elements: Vec<PathElement>,
    /// Left-fold of the work (non-slack) element durations, clamped to
    /// the makespan. Gate: `length ≤ makespan` always.
    pub length: f64,
    /// Attributed slack, solved so `fl(length + slack) == makespan`
    /// bitwise. Gate: `slack ≥ 0` always.
    pub slack: f64,
    /// The dominant work contributor and its share of the makespan.
    pub bottleneck: Bottleneck,
}

/// A complete run profile: per-rank phase breakdowns plus the critical
/// path. Deterministic — a pure function of the (deterministic) trace
/// and ledgers — so it participates in
/// [`crate::report::RunReport`]'s `PartialEq` contract.
#[derive(Debug, Clone, PartialEq)]
pub struct RunProfile {
    /// The run's makespan (latest rank clock).
    pub makespan: f64,
    /// One profile per rank, in rank order.
    pub ranks: Vec<RankProfile>,
    /// The critical path through the message-dependency DAG.
    pub critical_path: CriticalPath,
}

impl RunProfile {
    /// Builds the profile from a finalized trace and the run's per-rank
    /// ledgers. `platform` supplies the rank→segment mapping for link
    /// attribution.
    pub fn from_run(platform: &Platform, ledgers: &[TimeLedger], trace: &Trace) -> RunProfile {
        let num_ranks = ledgers.len();
        let makespan = ledgers.iter().map(|l| l.now).fold(0.0, f64::max);
        let ranks = (0..num_ranks)
            .map(|rank| profile_rank(rank, ledgers[rank].now, trace))
            .collect();
        let critical_path = extract_critical_path(platform, ledgers, trace, makespan);
        RunProfile {
            makespan,
            ranks,
            critical_path,
        }
    }

    /// `true` iff the accounting identity holds bitwise on every rank.
    pub fn identity_holds(&self) -> bool {
        self.ranks.iter().all(RankProfile::identity_holds)
    }

    /// `true` iff the critical-path bounds hold: `length ≤ makespan`,
    /// `slack ≥ 0`, and `fl(length + slack) == makespan` bitwise.
    pub fn path_bounded(&self) -> bool {
        let p = &self.critical_path;
        p.length <= self.makespan
            && p.slack >= 0.0
            && (p.length + p.slack).to_bits() == self.makespan.to_bits()
    }

    /// One-line bottleneck attribution for emitters and logs.
    pub fn bottleneck_line(&self) -> String {
        let b = &self.critical_path.bottleneck;
        format!(
            "bottleneck {}: {:.4} s on the critical path ({:.1}% of makespan {:.4} s)",
            b.owner,
            b.seconds,
            b.share * 100.0,
            self.makespan
        )
    }

    /// Deterministic multi-line human-readable summary: makespan,
    /// critical-path share, bottleneck, and the per-rank breakdown.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let cp = &self.critical_path;
        let share = if self.makespan > 0.0 {
            cp.length / self.makespan * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "makespan {:.6} s | critical path {:.6} s ({share:.1}%) + slack {:.6} s",
            self.makespan, cp.length, cp.slack
        );
        let _ = writeln!(out, "{}", self.bottleneck_line());
        let _ = writeln!(
            out,
            "rank  wall      par       seq       offl      send      recv      cont      recov     idle"
        );
        for r in &self.ranks {
            let p = &r.phases;
            let _ = writeln!(
                out,
                "r{:03}  {:<9.4} {:<9.4} {:<9.4} {:<9.4} {:<9.4} {:<9.4} {:<9.4} {:<9.4} {:<9.4}",
                r.rank,
                r.wall,
                p.compute_par,
                p.compute_seq,
                p.offload,
                p.send_wait,
                p.recv_wait,
                p.contention,
                p.recovery,
                p.idle
            );
        }
        out
    }
}

// --- residual solver ----------------------------------------------------

/// Next representable f64 above `x` (finite inputs).
fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Next representable f64 below `x` (finite inputs).
fn next_down(x: f64) -> f64 {
    if x == 0.0 {
        -f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() - 1)
    } else {
        f64::from_bits(x.to_bits() + 1)
    }
}

/// Finds `b ≥ 0` with `fl(a + b) == wall` bitwise, stepping from the
/// na(ï)ve candidate by ulps. Returns `None` when no non-negative
/// residual exists (i.e. `a` alone already overshoots `wall`).
fn solve_residual(a: f64, wall: f64) -> Option<f64> {
    if a.to_bits() == wall.to_bits() {
        return Some(0.0);
    }
    let mut b = (wall - a).max(0.0);
    for _ in 0..MAX_ULP_STEPS {
        let s = a + b;
        if s.to_bits() == wall.to_bits() {
            return Some(b);
        }
        if s < wall {
            b = next_up(b);
        } else if b > 0.0 {
            b = next_down(b).max(0.0);
        } else {
            return None;
        }
    }
    None
}

// --- phase accounting ---------------------------------------------------

/// Merges this rank's recovery spans into disjoint windows clipped to
/// `[0, wall]`.
fn recovery_windows(rank: usize, wall: f64, trace: &Trace) -> Vec<(f64, f64)> {
    let mut spans: Vec<(f64, f64)> = trace
        .for_rank(rank)
        .filter(|e| matches!(e.kind, TraceKind::Recovery { .. }))
        .map(|e| (e.start.max(0.0), e.end.min(wall)))
        .filter(|(a, b)| b > a)
        .collect();
    spans.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for (a, b) in spans {
        match merged.last_mut() {
            Some((_, e)) if a <= *e => *e = e.max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

/// Seconds of `[a, b]` covered by the merged `windows`.
fn overlap(a: f64, b: f64, windows: &[(f64, f64)]) -> f64 {
    let mut s = 0.0;
    for &(wa, wb) in windows {
        let lo = a.max(wa);
        let hi = b.min(wb);
        if hi > lo {
            s += hi - lo;
        }
    }
    s
}

/// Adds the span `[a, b]` to `phase`, re-attributing any part inside a
/// recovery window to the recovery phase (which is tallied separately
/// from the windows themselves).
fn add_span(ph: &mut PhaseBreakdown, phase: PhaseKind, a: f64, b: f64, windows: &[(f64, f64)]) {
    if b <= a {
        return;
    }
    let contribution = ((b - a) - overlap(a, b, windows)).max(0.0);
    ph.set(phase, ph.get(phase) + contribution);
}

/// Computes one rank's phase breakdown with the exact identity.
fn profile_rank(rank: usize, wall: f64, trace: &Trace) -> RankProfile {
    let windows = recovery_windows(rank, wall, trace);
    // Recovery is an overlay: its total is the merged window length, and
    // primitive spans subtract their covered part (see `add_span`).
    // Fold from +0.0: `Iterator::sum` starts at -0.0, which would leak
    // a negative zero into the breakdown of every recovery-free rank.
    let mut ph = PhaseBreakdown {
        recovery: windows.iter().fold(0.0, |s, (a, b)| s + (b - a)),
        ..PhaseBreakdown::default()
    };
    for e in trace.for_rank(rank) {
        match e.kind {
            TraceKind::ComputePar => {
                add_span(&mut ph, PhaseKind::ComputePar, e.start, e.end, &windows)
            }
            TraceKind::ComputeSeq => {
                add_span(&mut ph, PhaseKind::ComputeSeq, e.start, e.end, &windows)
            }
            TraceKind::Offload {
                launch,
                h2d,
                compute,
                d2h,
            } => {
                add_span(&mut ph, PhaseKind::Offload, e.start, e.end, &windows);
                ph.offload_launch += launch;
                ph.offload_h2d += h2d;
                ph.offload_compute += compute;
                ph.offload_d2h += d2h;
            }
            TraceKind::Send { .. } => {
                add_span(&mut ph, PhaseKind::SendWait, e.start, e.end, &windows)
            }
            TraceKind::Recv {
                delivered,
                transfer,
                queued,
                ..
            } => {
                if delivered {
                    // Within the wait [start, end]: the tail is the
                    // transfer itself, before that the link queueing,
                    // and any remainder is a late sender → idle
                    // (left to the residual).
                    let span = e.end - e.start;
                    let t = transfer.clamp(0.0, span.max(0.0));
                    let q = queued.clamp(0.0, (span - t).max(0.0));
                    add_span(&mut ph, PhaseKind::RecvWait, e.end - t, e.end, &windows);
                    add_span(
                        &mut ph,
                        PhaseKind::Contention,
                        e.end - t - q,
                        e.end - t,
                        &windows,
                    );
                }
                // Non-delivered waits (timeouts, failure observations)
                // are pure idle: covered by the residual.
            }
            TraceKind::Crash | TraceKind::Recovery { .. } => {}
        }
    }
    ph.enforce_identity(wall);
    RankProfile {
        rank,
        wall,
        phases: ph,
    }
}

// --- critical path ------------------------------------------------------

/// `true` for event kinds that occupy time on a rank's own timeline
/// (primitive spans; overlays and zero-length markers excluded).
fn is_timeline_atom(kind: &TraceKind) -> bool {
    matches!(
        kind,
        TraceKind::ComputePar
            | TraceKind::ComputeSeq
            | TraceKind::Offload { .. }
            | TraceKind::Send { .. }
            | TraceKind::Recv { .. }
    )
}

/// The element phase of a non-message timeline atom.
fn atom_phase(kind: &TraceKind) -> PhaseKind {
    match kind {
        TraceKind::ComputePar => PhaseKind::ComputePar,
        TraceKind::ComputeSeq => PhaseKind::ComputeSeq,
        TraceKind::Offload { .. } => PhaseKind::Offload,
        TraceKind::Send { .. } => PhaseKind::SendWait,
        _ => PhaseKind::Idle,
    }
}

/// Backward frontier walk from the makespan rank through the
/// message-dependency DAG. See the module docs for semantics and the
/// termination argument (the frontier time and per-rank cursors are
/// jointly strictly decreasing).
fn extract_critical_path(
    platform: &Platform,
    ledgers: &[TimeLedger],
    trace: &Trace,
    makespan: f64,
) -> CriticalPath {
    let num_ranks = ledgers.len();
    let atoms: Vec<Vec<&TraceEvent>> = (0..num_ranks)
        .map(|r| {
            trace
                .for_rank(r)
                .filter(|e| is_timeline_atom(&e.kind))
                .collect()
        })
        .collect();

    // Start on the rank that realises the makespan (ties → lowest rank).
    let mut rank = 0usize;
    for (r, l) in ledgers.iter().enumerate() {
        if l.now > ledgers[rank].now {
            rank = r;
        }
    }
    let mut t = makespan;
    let mut cursor: Vec<usize> = atoms.iter().map(Vec::len).collect();
    let total_atoms: usize = atoms.iter().map(Vec::len).sum();
    let step_cap = 2 * total_atoms + num_ranks + 8;

    let mut rev_elements: Vec<PathElement> = Vec::new();
    let push = |rev: &mut Vec<PathElement>, owner: PathOwner, start: f64, end: f64| {
        if end > start {
            rev.push(PathElement { owner, start, end });
        }
    };

    let mut steps = 0usize;
    while t > 0.0 && steps < step_cap {
        steps += 1;
        let a = &atoms[rank];
        let mut i = cursor[rank];
        // Drop atoms entirely after the frontier (they start at or
        // after `t`; straddling is impossible — see module docs).
        while i > 0 && a[i - 1].end > t {
            i -= 1;
        }
        cursor[rank] = i;
        if i == 0 {
            // Leading idle back to the origin.
            push(
                &mut rev_elements,
                PathOwner::Rank {
                    rank,
                    phase: PhaseKind::Idle,
                },
                0.0,
                t,
            );
            break;
        }
        let e = a[i - 1];
        if e.end < t {
            // Untraced gap (wait_until, crash idling, recv-gone wait).
            push(
                &mut rev_elements,
                PathOwner::Rank {
                    rank,
                    phase: PhaseKind::Idle,
                },
                e.end,
                t,
            );
            t = e.end;
            continue;
        }
        // e.end == t: consume the atom.
        cursor[rank] = i - 1;
        if e.end <= e.start {
            continue; // zero-length (non-binding immediate delivery)
        }
        match e.kind {
            TraceKind::Recv {
                src,
                delivered: true,
                sent_at,
                transfer,
                queued,
            } => {
                // Binding message edge: the wire hole [sent_at, arrival]
                // goes to the link; the walk crosses to the sender.
                push(
                    &mut rev_elements,
                    PathOwner::Link {
                        src,
                        dst: rank,
                        src_seg: platform.segment_of(src),
                        dst_seg: platform.segment_of(rank),
                        transfer,
                        queued,
                    },
                    sent_at,
                    e.end,
                );
                t = sent_at;
                rank = src;
            }
            TraceKind::Recv { .. } => {
                // Timeout / failure observation: pure slack.
                push(
                    &mut rev_elements,
                    PathOwner::Rank {
                        rank,
                        phase: PhaseKind::Idle,
                    },
                    e.start,
                    e.end,
                );
                t = e.start;
            }
            ref kind => {
                push(
                    &mut rev_elements,
                    PathOwner::Rank {
                        rank,
                        phase: atom_phase(kind),
                    },
                    e.start,
                    e.end,
                );
                t = e.start;
            }
        }
    }

    let mut elements = rev_elements;
    elements.reverse();

    // Path length: canonical fold of the work elements, clamped so the
    // `length ≤ makespan` gate is structural.
    let mut length = 0.0f64;
    for e in &elements {
        if !e.owner.is_slack() {
            length += e.len();
        }
    }
    if length > makespan {
        length = makespan;
    }
    // `fl(length + slack) == makespan` can be unsolvable for an exact
    // `length`: when every candidate sum lands on a rounding midpoint
    // and the makespan mantissa is odd, ties-to-even skips it in both
    // directions (found by the chaos harness, seed 15). Give back one
    // ulp of path length per attempt — same recovery `enforce_identity`
    // uses for the per-rank fold — so the bound gate stays structural.
    let (length, slack) = {
        let mut l = length;
        let mut solved = None;
        for _ in 0..MAX_ULP_STEPS {
            if let Some(b) = solve_residual(l, makespan) {
                solved = Some((l, b));
                break;
            }
            if l <= 0.0 {
                break;
            }
            l = next_down(l).max(0.0);
        }
        // Mathematically unreachable (64 ulp nudges break any midpoint
        // pattern); keep the bound rather than the attribution.
        solved.unwrap_or((makespan, 0.0))
    };

    // Bottleneck: aggregate work seconds by owner key; deterministic
    // max (strictly-greater comparison over a BTreeMap → ties resolve
    // to the lexicographically smallest key).
    let mut by_owner: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    for e in &elements {
        if !e.owner.is_slack() {
            *by_owner.entry(e.owner.key()).or_insert(0.0) += e.len();
        }
    }
    let mut bottleneck = Bottleneck {
        owner: "none".to_string(),
        seconds: 0.0,
        share: 0.0,
    };
    for (k, &secs) in &by_owner {
        if secs > bottleneck.seconds {
            bottleneck = Bottleneck {
                owner: k.clone(),
                seconds: secs,
                share: if makespan > 0.0 { secs / makespan } else { 0.0 },
            };
        }
    }

    CriticalPath {
        elements,
        length,
        slack,
        bottleneck,
    }
}

// --- Chrome trace export ------------------------------------------------

/// Serializes a finalized trace as Chrome-trace JSON (an array of
/// complete `"ph":"X"` events, one per trace event, `tid` = rank,
/// timestamps in microseconds). Load the output in `chrome://tracing`
/// or Perfetto. Deterministic: event order is the trace's canonical
/// order and numbers use shortest-roundtrip formatting.
pub fn chrome_trace(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[");
    for (i, e) in trace.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (name, args) = match e.kind {
            TraceKind::ComputePar => ("compute_par", String::new()),
            TraceKind::ComputeSeq => ("compute_seq", String::new()),
            TraceKind::Offload {
                launch,
                h2d,
                compute,
                d2h,
            } => (
                "offload",
                format!(
                    r#","args":{{"launch_s":{launch},"h2d_s":{h2d},"compute_s":{compute},"d2h_s":{d2h}}}"#
                ),
            ),
            TraceKind::Send { dst } => ("send", format!(r#","args":{{"dst":{dst}}}"#)),
            TraceKind::Recv { src, delivered, .. } => (
                if delivered { "recv" } else { "recv_miss" },
                format!(r#","args":{{"src":{src}}}"#),
            ),
            TraceKind::Crash => ("crash", String::new()),
            TraceKind::Recovery { lost } => ("recovery", format!(r#","args":{{"lost":{lost}}}"#)),
        };
        let ts = e.start * 1.0e6;
        let dur = (e.end - e.start) * 1.0e6;
        let _ = write!(
            out,
            r#"{{"name":"{name}","cat":"sim","ph":"X","pid":0,"tid":{},"ts":{ts},"dur":{dur}{args}}}"#,
            e.rank
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Ctx, Engine};
    use crate::faults::FaultPlan;
    use crate::Platform;

    fn assert_exact(profile: &RunProfile) {
        for r in &profile.ranks {
            assert!(
                r.identity_holds(),
                "rank {}: accounted {:e} != wall {:e}",
                r.rank,
                r.phases.accounted(),
                r.wall
            );
        }
        assert!(profile.path_bounded(), "path bounds violated: {profile:?}");
    }

    fn master_worker_profile() -> RunProfile {
        let engine = Engine::new(Platform::uniform("p", 4, 0.01, 64, 5.0)).with_profiling(true);
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            ctx.compute_par(100.0 * (ctx.rank() + 1) as f64);
            if ctx.is_root() {
                for src in 1..ctx.num_ranks() {
                    let _ = ctx.recv(src);
                }
                ctx.compute_seq(50.0);
            } else {
                ctx.send(0, ctx.rank() as u64);
            }
            ctx.rank()
        });
        report.profile.expect("profiling enabled")
    }

    #[test]
    fn identity_and_path_bounds_hold() {
        let p = master_worker_profile();
        assert_exact(&p);
        assert!(p.makespan > 0.0);
        assert!(p.critical_path.length > 0.0);
        assert!(!p.critical_path.elements.is_empty());
    }

    #[test]
    fn profiles_are_deterministic() {
        let (a, b) = (master_worker_profile(), master_worker_profile());
        assert_eq!(a, b);
    }

    #[test]
    fn critical_path_crosses_to_the_slowest_sender() {
        // Rank 3 computes 4x the work: the path must route through it.
        let p = master_worker_profile();
        assert!(
            p.critical_path
                .elements
                .iter()
                .any(|e| matches!(e.owner, PathOwner::Rank { rank: 3, .. })),
            "path misses the slow worker: {:?}",
            p.critical_path.elements
        );
        assert!(
            p.critical_path
                .elements
                .iter()
                .any(|e| matches!(e.owner, PathOwner::Link { src: 3, dst: 0, .. })),
            "path misses the binding message edge"
        );
        assert!(p.critical_path.bottleneck.seconds > 0.0);
        assert!(p.critical_path.bottleneck.share <= 1.0 + 1e-12);
    }

    #[test]
    fn residual_solver_lands_exactly() {
        for (a, wall) in [
            (0.0, 0.0),
            (0.0, 1.5),
            (0.1 + 0.2, 1.0),
            (1.0 / 3.0, 2.0 / 3.0),
            (0.7, 0.7),
            (1e-9, 3.7),
            (5.0, 5.0 + f64::EPSILON * 10.0),
        ] {
            let b = solve_residual(a, wall).expect("solvable");
            assert_eq!((a + b).to_bits(), wall.to_bits(), "a={a} wall={wall}");
            assert!(b >= 0.0);
        }
        // Overshoot: no non-negative residual exists.
        assert_eq!(solve_residual(1.0 + f64::EPSILON, 1.0), None);
    }

    #[test]
    fn enforce_identity_handles_overshoot() {
        let mut ph = PhaseBreakdown {
            compute_par: 1.0 + f64::EPSILON,
            ..PhaseBreakdown::default()
        };
        ph.enforce_identity(1.0);
        assert_eq!(ph.accounted().to_bits(), 1.0f64.to_bits());
        assert!(ph.compute_par <= 1.0);
    }

    #[test]
    fn crash_run_keeps_identity_and_marks_idle() {
        let engine = Engine::new(Platform::uniform("c", 3, 0.01, 64, 5.0))
            .with_faults(FaultPlan::new().crash(2, 0.25))
            .with_profiling(true);
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.is_root() {
                for src in 1..ctx.num_ranks() {
                    let _ = ctx.recv_deadline(src, 2.0);
                }
            } else {
                ctx.compute_par(100.0); // 1 s; rank 2 dies at 0.25
                ctx.send(0, 1);
            }
            0
        });
        let p = report.profile.expect("profiled");
        assert_exact(&p);
        // The crashed rank's wall stops at the crash instant.
        assert!((p.ranks[2].wall - 0.25).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let engine = Engine::new(Platform::uniform("t", 2, 0.01, 64, 5.0));
        let (_, trace) = engine.run_traced(|ctx: &mut Ctx<u64>| {
            if ctx.is_root() {
                let _ = ctx.recv(1);
            } else {
                ctx.compute_par(10.0);
                ctx.send(0, 7);
            }
        });
        let json = chrome_trace(&trace);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#""name":"compute_par""#));
        assert!(json.contains(r#""name":"send""#));
        assert!(json.contains(r#""name":"recv""#));
        assert!(json.contains(r#""ph":"X""#));
        // Balanced braces (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        // Deterministic.
        let (_, trace2) = engine.run_traced(|ctx: &mut Ctx<u64>| {
            if ctx.is_root() {
                let _ = ctx.recv(1);
            } else {
                ctx.compute_par(10.0);
                ctx.send(0, 7);
            }
        });
        assert_eq!(json, chrome_trace(&trace2));
    }

    #[test]
    fn summary_and_bottleneck_lines_render() {
        let p = master_worker_profile();
        let s = p.summary();
        assert!(s.contains("makespan"));
        assert!(s.contains("bottleneck"));
        assert!(s.lines().count() >= 4 + 3); // header lines + 4 ranks
        assert!(p.bottleneck_line().contains("% of makespan"));
    }

    #[test]
    fn empty_run_profile_is_degenerate_but_exact() {
        let ledgers = vec![TimeLedger::new()];
        let trace = Trace::default();
        let platform = Platform::uniform("e", 1, 0.01, 64, 0.0);
        let p = RunProfile::from_run(&platform, &ledgers, &trace);
        assert_eq!(p.makespan, 0.0);
        assert!(p.identity_holds());
        assert!(p.path_bounded());
        assert_eq!(p.critical_path.bottleneck.owner, "none");
    }
}
