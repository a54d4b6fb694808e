//! The message-passing runtime.
//!
//! [`Engine::run`] spawns one OS thread per platform processor and hands
//! each a [`Ctx`]: its rank, a virtual-time ledger, and a handle on the
//! run's shared fabric — one mailbox per rank holding a FIFO per source
//! (so messages between a pair arrive in send order — MPI's ordering
//! guarantee), an exit board, the link ledger and the collective
//! schedule memo, all built once per run in O(P). The API mirrors the
//! MPI subset the paper's algorithms use: [`Ctx::send`] / [`Ctx::recv`]
//! plus the collectives in [`crate::coll`].
//!
//! **Virtual time.** Computation is charged explicitly via
//! [`Ctx::compute_par`] / [`Ctx::compute_seq`] in megaflops; the engine
//! converts using the processor's cycle-time. What a message pays on the
//! wire — link matrix, fault windows, serial inter-segment contention —
//! is [`crate::contention::charge`]'s to say; the engine only decides
//! *when* it asks. The fabric only moves envelopes: every arrival time
//! is resolved by a rank — the root when it sends, the receiver at its
//! first look at a message otherwise — in that rank's own program order,
//! which is why host thread scheduling never reaches a virtual number;
//! see [`crate::contention`] for the determinism argument.
//!
//! **Failure.** Failures are structured, not process-aborting. A rank
//! that panics — or crashes on schedule under a [`FaultPlan`] — is
//! unwound by the engine, which records a [`RankFailure`] in the
//! [`RunReport`] and publishes the rank's final clock and failure cause
//! on the fabric's exit board. A receiver reads the board only once the
//! leaver's queue is empty, so all messages sent before the failure
//! still arrive first. A peer blocked in [`Ctx::recv`] on a failed rank
//! unwinds in turn (cause `PeerLost`); a peer using
//! [`Ctx::recv_deadline`] instead *observes* the failure as a
//! [`RecvError::Failed`] value and can re-plan — the hook fault-tolerant
//! schedulers build on. Crash instants, slowdown dilation and link fault
//! windows are all functions of virtual time only, so faulty runs are
//! exactly as deterministic as healthy ones.

use crate::clock::{Phase, TimeLedger};
use crate::contention::{charge, Charge};
use crate::fabric::{Exit, Fabric};
use crate::faults::{FailureCause, FaultPlan, RankFailure, RecvError};
use crate::lock_unpoisoned;
use crate::platform::Platform;
use crate::report::RunReport;
use crate::trace::{Trace, TraceEvent, TraceKind};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

type TraceSink = Option<Arc<Mutex<Vec<TraceEvent>>>>;

/// Types that can travel through the engine: anything sendable that can
/// report its wire size in bits (the paper's message-cost unit).
pub trait Wire: Send + 'static {
    /// Serialized size of this message in bits.
    fn size_bits(&self) -> u64;

    /// Bits a host-side `clone()` of this message deep-copies (heap
    /// payload only). Defaults to [`Wire::size_bits`], which is correct
    /// for owned buffers; shared payloads (`Arc`-backed messages, plain
    /// scalars) override to `0` because cloning them allocates nothing.
    ///
    /// This feeds the deterministic copy-telemetry counters
    /// ([`crate::report::CopyStats`]) only — it never participates in
    /// virtual-time charging, which always uses [`Wire::size_bits`].
    fn deep_copy_bits(&self) -> u64 {
        self.size_bits()
    }
}

/// A `Vec` wrapper implementing [`Wire`] with `len × size_of::<T>() × 8`
/// bits. Convenient for shipping raw numeric payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct WireVec<T>(pub Vec<T>);

impl<T: Send + 'static> Wire for WireVec<T> {
    fn size_bits(&self) -> u64 {
        (self.0.len() * std::mem::size_of::<T>() * 8) as u64
    }
}

macro_rules! impl_wire_fixed {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn size_bits(&self) -> u64 {
                (std::mem::size_of::<$t>() * 8) as u64
            }

            fn deep_copy_bits(&self) -> u64 {
                0 // plain scalar: cloning allocates nothing
            }
        }
    )*};
}

impl_wire_fixed!(u8, u16, u32, u64, usize, i32, i64, f32, f64);

impl Wire for () {
    fn size_bits(&self) -> u64 {
        0
    }
}

impl<A: Send + 'static, B: Send + 'static> Wire for (A, B) {
    fn size_bits(&self) -> u64 {
        (std::mem::size_of::<(A, B)>() * 8) as u64
    }
}

/// Shared-payload wire messages: an `Arc<M>` travels with the wire size
/// of its pointee — the *transfer* cost model is unchanged — while its
/// `clone()` is a refcount bump, so [`Wire::deep_copy_bits`] is `0`.
/// This is the zero-copy building block: fan-out relays that clone an
/// `Arc`-backed payload per child copy pointer-width state, not the
/// payload.
impl<M: Wire + Sync> Wire for Arc<M> {
    fn size_bits(&self) -> u64 {
        (**self).size_bits()
    }

    fn deep_copy_bits(&self) -> u64 {
        0 // refcount bump, no payload copy
    }
}

/// Shared numeric slabs (`Arc<[T]>`): wire size is `len × size_of::<T>()
/// × 8` bits, exactly like [`WireVec`]; cloning deep-copies nothing.
impl<T: Send + Sync + 'static> Wire for Arc<[T]> {
    fn size_bits(&self) -> u64 {
        (self.len() * std::mem::size_of::<T>() * 8) as u64
    }

    fn deep_copy_bits(&self) -> u64 {
        0
    }
}

/// In-flight message.
struct Envelope<M> {
    sent_at: f64,
    /// Nominal transfer duration over the sender→receiver link.
    transfer_secs: f64,
    /// Set when the sender (the root) already charged the message.
    charge: Option<Charge>,
    payload: M,
}

/// A message that has been charged — exactly once, by the root at its
/// send or by the receiver when it first takes the message off the
/// fabric, in that rank's program order.
struct Resolved<M> {
    charge: Charge,
    /// Sender's virtual clock at injection (profiling provenance).
    sent_at: f64,
    payload: M,
}

/// What a receive finds next from a source: a message, or — once every
/// message the source sent has been delivered — the source's exit.
enum Incoming<M> {
    Msg(Resolved<M>),
    Gone(Exit),
}

/// Engine-internal unwind payload: this rank hit its scheduled crash.
struct CrashSignal;

/// Engine-internal unwind payload: a peer this rank depended on failed.
struct PeerFailedSignal {
    peer: usize,
}

/// Suppresses the default "thread panicked" stderr noise for the
/// engine's own control-flow unwinds; real panics still print.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.downcast_ref::<CrashSignal>().is_some()
                || payload.downcast_ref::<PeerFailedSignal>().is_some()
            {
                return;
            }
            prev(info);
        }));
    });
}

/// The per-rank execution context handed to the program closure.
pub struct Ctx<M: Wire> {
    rank: usize,
    platform: Arc<Platform>,
    /// The run's shared transport, exit board, link ledger and schedule
    /// memo.
    fabric: Arc<Fabric<Envelope<M>>>,
    faults: Arc<FaultPlan>,
    /// This rank's scheduled crash time (`∞` when none).
    crash_at: f64,
    ledger: TimeLedger,
    /// Resolved-but-undelivered messages by source: a
    /// [`Ctx::recv_deadline`] miss parks the message here for the next
    /// receive from that source.
    pending: BTreeMap<usize, Resolved<M>>,
    /// Collective algorithm choices made on this rank (see
    /// [`crate::coll`]); the root's log lands in
    /// [`RunReport::collectives`].
    coll_log: Vec<crate::coll::CollectiveChoice>,
    /// Membership epoch transitions recorded on this rank (see
    /// [`Ctx::mark_epoch`]); the root's log lands in
    /// [`RunReport::epochs`].
    epoch_log: Vec<crate::report::EpochTransition>,
    /// Host-side copy telemetry for this rank's collective fan-outs;
    /// summed over ranks into [`RunReport::copies`].
    copies: crate::report::CopyStats,
    /// Accelerator attached to this rank's processor, if any.
    device: Option<crate::accel::DeviceSpec>,
    /// Deterministic offload telemetry for this rank; lands per rank in
    /// [`RunReport::offloads`].
    offload_stats: crate::accel::OffloadStats,
    trace: TraceSink,
}

impl<M: Wire> Ctx<M> {
    #[inline]
    fn record(&self, start: f64, kind: TraceKind) {
        if let Some(sink) = &self.trace {
            lock_unpoisoned(sink).push(TraceEvent {
                rank: self.rank,
                start,
                end: self.ledger.now,
                kind,
            });
        }
    }

    /// Unwinds this rank at its scheduled crash instant.
    #[cold]
    fn die(&mut self) -> ! {
        if self.ledger.now < self.crash_at {
            self.ledger.receive(self.crash_at, 0.0); // idle until the crash
        }
        self.record(self.ledger.now, TraceKind::Crash);
        std::panic::panic_any(CrashSignal);
    }

    /// Dies if this rank's clock has already reached its crash time.
    #[inline]
    fn check_crashed(&mut self) {
        if self.ledger.now >= self.crash_at {
            self.die();
        }
    }

    fn advance_compute(&mut self, mflops: f64, phase: Phase, kind: TraceKind) {
        let secs = mflops * self.platform.proc(self.rank).cycle_time;
        self.advance_secs(secs, phase, kind);
    }

    /// Charges `secs` of nominal busy time (host or device execution),
    /// dilated by the fault plan and truncated at this rank's crash
    /// instant. Returns the actual elapsed virtual span.
    fn advance_secs(&mut self, secs: f64, phase: Phase, kind: TraceKind) -> f64 {
        self.check_crashed();
        let start = self.ledger.now;
        let end = self.faults.dilate(self.rank, start, secs);
        if end >= self.crash_at {
            // The crash lands mid-computation: charge the truncated span
            // and unwind.
            self.ledger.compute(self.crash_at - start, phase);
            self.record(start, kind);
            self.die();
        }
        self.ledger.compute(end - start, phase);
        self.record(start, kind);
        end - start
    }

    /// Charges an envelope its sender left uncharged. Messages to the
    /// root are charged here, at the root's first look at them — root
    /// program order, the other half of [`charge`]'s determinism
    /// argument (see [`crate::contention`]). The ledger is locked only
    /// if the transfer queues.
    fn resolve(&mut self, src: usize, env: Envelope<M>) -> Resolved<M> {
        let charge = env.charge.unwrap_or_else(|| {
            charge(
                &self.platform,
                &self.faults,
                || lock_unpoisoned(&self.fabric.links),
                src,
                self.rank,
                env.sent_at,
                env.transfer_secs,
            )
        });
        Resolved {
            charge,
            sent_at: env.sent_at,
            payload: env.payload,
        }
    }

    /// `true` when idling until virtual time `t` runs into this rank's
    /// scheduled crash. Only a *finite* crash time can be reached by
    /// waiting: with no crash scheduled `crash_at` is `∞`, and an
    /// infinite deadline must not compare as "at or past" it.
    fn crashes_by(&self, t: f64) -> bool {
        self.crash_at.is_finite() && t >= self.crash_at
    }

    /// What `src` has next for this rank: the parked message if a
    /// deadline miss left one, else a blocking (wall-clock) take from
    /// the fabric.
    fn next_from(&mut self, src: usize) -> Incoming<M> {
        if let Some(parked) = self.pending.remove(&src) {
            return Incoming::Msg(parked);
        }
        match self.fabric.take(self.rank, src) {
            Ok(env) => Incoming::Msg(self.resolve(src, env)),
            Err(exit) => Incoming::Gone(exit),
        }
    }
}

impl<M: Wire> Ctx<M> {
    /// This rank's id (`0` is the root/master).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the run.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.platform.num_procs()
    }

    /// `true` for rank 0.
    #[inline]
    pub fn is_root(&self) -> bool {
        self.rank == 0
    }

    /// The platform this run executes on.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The fault plan this run executes under (empty when none was
    /// attached). Schedulers use it to derive *analytic* bounds — e.g.
    /// the worst-case completion of a batch on a merely-slowed worker
    /// via [`FaultPlan::dilate`] — from the same plan the engine
    /// charges, keeping predictions and measurements consistent.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn elapsed(&self) -> f64 {
        self.ledger.now
    }

    /// Read-only view of this rank's time ledger.
    pub fn ledger(&self) -> &TimeLedger {
        &self.ledger
    }

    /// Charges `mflops` megaflops of **parallel-phase** computation at
    /// this processor's cycle-time.
    pub fn compute_par(&mut self, mflops: f64) {
        self.advance_compute(mflops, Phase::Par, TraceKind::ComputePar);
    }

    /// Charges `mflops` megaflops of **sequential-phase** computation
    /// (root-only work while the rest of the system idles).
    pub fn compute_seq(&mut self, mflops: f64) {
        self.advance_compute(mflops, Phase::Seq, TraceKind::ComputeSeq);
    }

    /// Sends `payload` to `dst`, charging the wire size reported by the
    /// payload.
    pub fn send(&mut self, dst: usize, payload: M) {
        let bits = payload.size_bits();
        self.send_bits(dst, payload, bits);
    }

    /// Sends `payload` to `dst` **free of transfer cost** (only the
    /// per-message latency applies). Used for `ScatterMode::Free`
    /// data staging — see DESIGN.md.
    pub fn send_free(&mut self, dst: usize, payload: M) {
        self.send_bits(dst, payload, 0);
    }

    /// Sends `payload` to `dst`, charging an explicit wire size.
    ///
    /// Sends to a rank that has already failed are silently dropped on
    /// the receiving side (the link time is still charged), mirroring a
    /// network that accepts frames for a dead host.
    ///
    /// # Panics
    /// Panics on self-sends and out-of-range destinations.
    pub fn send_bits(&mut self, dst: usize, payload: M, bits: u64) {
        assert!(dst < self.num_ranks(), "send: rank {dst} out of range");
        assert_ne!(dst, self.rank, "send: self-send not supported");
        self.check_crashed();
        let trace_start = self.ledger.now;
        self.ledger.send_overhead(self.msg_latency_s());
        self.record(trace_start, TraceKind::Send { dst });
        let transfer_secs = self.platform.transfer_secs(self.rank, dst, bits);
        let sent_at = self.ledger.now;
        // The root charges its own sends here, in its program order;
        // anyone else's wait for the receiver's first look (`resolve`).
        // That order is why `charge`'s reservations are deterministic —
        // see crate::contention.
        let charge = self.is_root().then(|| {
            charge(
                &self.platform,
                &self.faults,
                || lock_unpoisoned(&self.fabric.links),
                self.rank,
                dst,
                sent_at,
                transfer_secs,
            )
        });
        let env = Envelope {
            sent_at,
            transfer_secs,
            charge,
            payload,
        };
        // The fabric drops mail for a peer that already left the run,
        // exactly like frames to a dead host.
        self.fabric.post(self.rank, dst, env);
    }

    /// Receives the next message from `src` (blocking), advancing this
    /// rank's virtual clock to the message's arrival time.
    ///
    /// # Panics
    /// Panics on self-receives and out-of-range sources. If `src` left
    /// the run without sending, this rank is unwound by the engine and
    /// reported as failed with cause `PeerLost` — use
    /// [`Ctx::recv_deadline`] to observe peer failure as a value
    /// instead.
    pub fn recv(&mut self, src: usize) -> M {
        assert!(src < self.num_ranks(), "recv: rank {src} out of range");
        assert_ne!(src, self.rank, "recv: self-receive not supported");
        self.check_crashed();
        match self.next_from(src) {
            Incoming::Msg(msg) => {
                if msg.charge.arrival >= self.crash_at {
                    self.die(); // died waiting for this message
                }
                self.deliver(src, msg)
            }
            Incoming::Gone(exit) => {
                if exit.at >= self.crash_at {
                    self.die();
                }
                self.ledger.receive(exit.at, 0.0); // idle until the news lands
                std::panic::panic_any(PeerFailedSignal { peer: src });
            }
        }
    }

    /// Advances this rank's clock to `msg`'s arrival and hands over the
    /// payload.
    fn deliver(&mut self, src: usize, msg: Resolved<M>) -> M {
        let trace_start = self.ledger.now;
        let paid = msg.charge;
        self.ledger.receive(paid.arrival, paid.transfer_secs);
        self.record(
            trace_start,
            TraceKind::Recv {
                src,
                delivered: true,
                sent_at: msg.sent_at,
                transfer: paid.transfer_secs,
                queued: paid.queued,
            },
        );
        msg.payload
    }

    /// Receives the next message from `src` **if it arrives by virtual
    /// time `deadline`**; otherwise advances this rank's clock to the
    /// deadline (idle time in the [`TimeLedger`]) and reports why:
    ///
    /// * `Err(Timeout)` — no message arrived by the deadline (a message
    ///   arriving later stays queued for the next receive). A deadline
    ///   already in the past polls without advancing time; an infinite
    ///   one times out when `src` exits cleanly, advancing the clock only
    ///   to that exit.
    /// * `Err(Failed)` — `src` failed at or before the deadline; the
    ///   clock advances only to the failure instant. The condition is
    ///   permanent: every later receive from `src` reports it again.
    ///
    /// A message arriving *exactly at* the deadline is delivered.
    ///
    /// This is the detection primitive for fault-tolerant masters: poll
    /// workers with a deadline, observe `Failed`, re-plan the surviving
    /// partition.
    pub fn recv_deadline(&mut self, src: usize, deadline: f64) -> Result<M, RecvError> {
        assert!(src < self.num_ranks(), "recv: rank {src} out of range");
        assert_ne!(src, self.rank, "recv: self-receive not supported");
        self.check_crashed();
        let undelivered = |src: usize| TraceKind::Recv {
            src,
            delivered: false,
            sent_at: 0.0,
            transfer: 0.0,
            queued: 0.0,
        };
        match self.next_from(src) {
            Incoming::Msg(msg) => {
                if msg.charge.arrival <= deadline && msg.charge.arrival < self.crash_at {
                    return Ok(self.deliver(src, msg));
                }
                self.pending.insert(src, msg);
                if self.crashes_by(deadline) {
                    self.die();
                }
                let trace_start = self.ledger.now;
                self.ledger.receive(deadline, 0.0);
                self.record(trace_start, undelivered(src));
                Err(RecvError::Timeout { deadline })
            }
            // The exit board is permanent: every later receive from
            // `src` lands in one of these two arms again.
            Incoming::Gone(Exit {
                at,
                failure: Some(cause),
            }) if at <= deadline => {
                if at >= self.crash_at {
                    self.die();
                }
                let trace_start = self.ledger.now;
                self.ledger.receive(at, 0.0);
                self.record(trace_start, undelivered(src));
                Err(RecvError::Failed(RankFailure {
                    rank: src,
                    at,
                    cause,
                }))
            }
            Incoming::Gone(Exit { at, .. }) => {
                // Clean exit, or a failure we can't know about yet: wait
                // out the deadline. An infinite one ends when the peer's
                // exit becomes known.
                let wake = if deadline.is_finite() { deadline } else { at };
                if self.crashes_by(wake) {
                    self.die();
                }
                let trace_start = self.ledger.now;
                self.ledger.receive(wake, 0.0);
                self.record(trace_start, undelivered(src));
                Err(RecvError::Timeout { deadline })
            }
        }
    }

    /// Advances this rank's clock to at least `t` (idle wait). Used by
    /// phase-synchronisation helpers.
    pub fn wait_until(&mut self, t: f64) {
        if t >= self.crash_at {
            self.die();
        }
        self.ledger.receive(t, 0.0);
    }

    /// Records a recovery span (re-planning after losing rank `lost`)
    /// from `start` to the current virtual time in the run's trace.
    /// Used by fault-tolerant schedulers for observability.
    pub fn mark_recovery(&mut self, start: f64, lost: usize) {
        self.record(start, TraceKind::Recovery { lost });
    }

    /// Records a membership epoch transition at the current virtual
    /// time: this rank's [`crate::coll::Membership`] view observed the
    /// failure of `failed` and advanced to `epoch`, leaving `survivors`
    /// ranks alive. Emits a zero-length trace marker and appends to the
    /// rank's epoch log (the root's log lands in
    /// [`RunReport::epochs`]).
    pub fn mark_epoch(&mut self, epoch: u64, failed: usize, survivors: usize) {
        self.record(self.ledger.now, TraceKind::EpochBump { epoch });
        self.epoch_log.push(crate::report::EpochTransition {
            epoch,
            at: self.ledger.now,
            failed,
            survivors,
        });
    }

    /// The per-message sender-side software overhead this run charges
    /// (MPI call + protocol latency; the transfer itself is DMA-style and
    /// occupies the link, not the sending CPU): the platform's own. The
    /// collectives' cost model ([`crate::coll::predict`]) replays it.
    pub(crate) fn msg_latency_s(&self) -> f64 {
        self.platform.msg_latency_s()
    }

    /// The run's collective schedule memo (see [`crate::coll::tree_over`]).
    pub(crate) fn schedules(&self) -> &crate::coll::ScheduleMemo {
        &self.fabric.schedules
    }

    /// Appends a collective algorithm decision to this rank's log.
    pub(crate) fn log_collective(&mut self, choice: crate::coll::CollectiveChoice) {
        self.coll_log.push(choice);
    }

    /// The accelerator attached to this rank's processor, if any
    /// (mirrors `platform.proc(rank).device`).
    pub fn device(&self) -> Option<&crate::accel::DeviceSpec> {
        self.device.as_ref()
    }

    /// This rank's offload telemetry so far (see
    /// [`crate::accel::OffloadStats`]).
    pub fn offload_stats(&self) -> &crate::accel::OffloadStats {
        &self.offload_stats
    }

    /// Executes one offload-eligible kernel chunk on this rank's
    /// accelerator, charging [`crate::accel::DeviceSpec::offload_secs`]
    /// (launch latency + H2D transfer + device compute + D2H transfer)
    /// of parallel-phase virtual time. Fault-plan slowdowns dilate the
    /// charge and a crash truncates it, exactly as for host compute.
    ///
    /// The *result* of the kernel is whatever the caller computed on the
    /// host threads — device execution is bit-identical by construction;
    /// only the time accounting differs.
    ///
    /// Falls back to [`Ctx::compute_par_tracked`] (host charging) when
    /// no device is attached, so callers need not branch.
    pub fn offload(&mut self, mflops: f64, bytes_h2d: u64, bytes_d2h: u64) {
        match self.device {
            Some(spec) => {
                let secs = spec.offload_secs(mflops, bytes_h2d, bytes_d2h);
                // Nominal sub-phase split for the profiler; the charged
                // total stays the single closed form `offload_secs`.
                let kind = TraceKind::Offload {
                    launch: spec.launch_latency_s,
                    h2d: bytes_h2d as f64 / (spec.h2d_gb_per_s * 1.0e9),
                    compute: mflops / spec.throughput_mflops,
                    d2h: bytes_d2h as f64 / (spec.d2h_gb_per_s * 1.0e9),
                };
                let elapsed = self.advance_secs(secs, Phase::Par, kind);
                self.offload_stats.launches += 1;
                self.offload_stats.bytes_h2d += bytes_h2d;
                self.offload_stats.bytes_d2h += bytes_d2h;
                self.offload_stats.device_ms += elapsed * 1.0e3;
            }
            None => self.compute_par_tracked(mflops),
        }
    }

    /// Charges an offload-eligible chunk on the host CPU (same cost as
    /// [`Ctx::compute_par`]) and records it in the `host_ms` telemetry,
    /// so policy comparisons can see the road not taken.
    pub fn compute_par_tracked(&mut self, mflops: f64) {
        let secs = mflops * self.platform.proc(self.rank).cycle_time;
        let elapsed = self.advance_secs(secs, Phase::Par, TraceKind::ComputePar);
        self.offload_stats.host_ms += elapsed * 1.0e3;
    }

    /// Clones `payload` on a collective hot path, charging its
    /// [`Wire::deep_copy_bits`] to the telemetry counters. All fan-out
    /// clones in [`crate::coll`] go through here, which is what makes
    /// the counters deterministic: they count *schedule* clone sites,
    /// never racy `Arc` refcount observations.
    pub(crate) fn clone_counted(&mut self, payload: &M) -> M
    where
        M: Clone,
    {
        let deep = payload.deep_copy_bits();
        self.copies.bytes_deep_copied += deep / 8;
        if deep > 0 {
            self.copies.allocs_on_hot_path += 1;
        }
        payload.clone()
    }

    /// Records one fan-out send against the owned-payload baseline: the
    /// bytes the pre-zero-copy implementation would have deep-copied
    /// here (one full payload clone per child), whether the actual send
    /// clones or moves.
    pub(crate) fn note_fanout_send(&mut self, payload: &M) {
        self.copies.bytes_owned_baseline += payload.size_bits() / 8;
    }
}

/// The simulator: a platform plus a fault plan and host-side knobs.
#[derive(Debug, Clone)]
pub struct Engine {
    platform: Arc<Platform>,
    faults: Arc<FaultPlan>,
    /// Explicit data-parallel width per rank thread; `None` = automatic
    /// (`host cores / ranks`, clamped to at least 1).
    threads_per_rank: Option<usize>,
    /// When set, [`Engine::run`] records a trace and attaches a
    /// [`crate::prof::RunProfile`] to the report.
    profiling: bool,
}

impl Engine {
    /// Creates an engine over a platform; messages pay the platform's
    /// own latency ([`Platform::msg_latency_s`]).
    pub fn new(platform: Platform) -> Self {
        Engine {
            platform: Arc::new(platform),
            faults: Arc::new(FaultPlan::new()),
            threads_per_rank: None,
            profiling: false,
        }
    }

    /// Attaches a deterministic fault plan to every subsequent run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Arc::new(plan);
        self
    }

    /// Enables (or disables) post-run profiling: every subsequent
    /// [`Engine::run`] records a trace and attaches a
    /// [`crate::prof::RunProfile`] to [`RunReport::profile`]. Profiling
    /// is pure observability — virtual clocks, results and every other
    /// report field are bit-identical to an unprofiled run.
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Whether profiling is enabled on this engine.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// The fault plan attached to this engine (empty by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Sets the data-parallel thread budget each rank installs for its
    /// kernels (the shared `rayon` pool width per rank thread). `0`
    /// restores the automatic default — `host cores / ranks`, clamped
    /// to at least 1 — which keeps `ranks × threads_per_rank ≤ cores`
    /// so real compute never oversubscribes the host.
    ///
    /// The setting affects **wall-clock speed only**: every kernel in
    /// this workspace is bit-deterministic across thread counts, and
    /// virtual-time charging is analytic, so reports are identical for
    /// any value (asserted by the `parallel_invariance` tests).
    pub fn with_threads_per_rank(mut self, threads: usize) -> Self {
        self.threads_per_rank = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// The data-parallel width each rank will install: the explicit
    /// [`Self::with_threads_per_rank`] value, or the automatic default.
    pub fn threads_per_rank(&self) -> usize {
        self.threads_per_rank.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            (cores / self.platform.num_procs()).max(1)
        })
    }

    /// The platform this engine simulates.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Runs `program` on every rank concurrently and collects the report.
    ///
    /// The closure receives each rank's [`Ctx`]; its return value is
    /// collected into [`RunReport::results`] (indexed by rank). Ranks
    /// that fail — by panic or by scheduled crash — contribute `None`
    /// and a [`RankFailure`] entry in [`RunReport::failures`] instead of
    /// aborting the run.
    pub fn run<M, R, F>(&self, program: F) -> RunReport<R>
    where
        M: Wire,
        R: Send,
        F: Fn(&mut Ctx<M>) -> R + Sync,
    {
        if self.profiling {
            self.run_traced(program).0
        } else {
            self.run_inner(program, None)
        }
    }

    /// Runs `program` while recording a per-rank execution [`Trace`]
    /// (see [`crate::trace`]). The returned report always carries a
    /// [`crate::prof::RunProfile`] in [`RunReport::profile`], derived
    /// post-run from the trace and the per-rank clocks.
    pub fn run_traced<M, R, F>(&self, program: F) -> (RunReport<R>, Trace)
    where
        M: Wire,
        R: Send,
        F: Fn(&mut Ctx<M>) -> R + Sync,
    {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let mut report = self.run_inner(program, Some(Arc::clone(&sink)));
        let mut trace = Trace {
            events: std::mem::take(&mut *lock_unpoisoned(&sink)),
        };
        trace.finalize();
        report.profile = Some(crate::prof::RunProfile::from_run(
            &self.platform,
            &report.ledgers,
            &trace,
        ));
        (report, trace)
    }

    fn run_inner<M, R, F>(&self, program: F, trace: TraceSink) -> RunReport<R>
    where
        M: Wire,
        R: Send,
        F: Fn(&mut Ctx<M>) -> R + Sync,
    {
        install_quiet_panic_hook();
        let p = self.platform.num_procs();
        let fabric = Arc::new(Fabric::new(p));
        let width = self.threads_per_rank();

        type Outcome<R> = (
            TimeLedger,
            Vec<crate::coll::CollectiveChoice>,
            Vec<crate::report::EpochTransition>,
            crate::report::CopyStats,
            crate::accel::OffloadStats,
            Option<R>,
            Option<RankFailure>,
        );
        let mut outcomes: Vec<Option<Outcome<R>>> = (0..p).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for rank in 0..p {
                let platform = Arc::clone(&self.platform);
                let fabric = Arc::clone(&fabric);
                let faults = Arc::clone(&self.faults);
                let program = &program;
                let trace = trace.clone();
                handles.push(scope.spawn(move || {
                    // Each rank installs a size-bounded kernel pool, so
                    // rank-level and data-level parallelism compose
                    // without oversubscription (ranks × width ≤ cores by
                    // default). Kernel results don't depend on the
                    // width, only wall-clock time does.
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(width)
                        .build()
                        .expect("engine: kernel pool");
                    let crash_at = faults.crash_time(rank).unwrap_or(f64::INFINITY);
                    let device = platform.proc(rank).device;
                    let mut ctx = Ctx {
                        rank,
                        platform,
                        fabric,
                        faults,
                        crash_at,
                        ledger: TimeLedger::new(),
                        pending: BTreeMap::new(),
                        coll_log: Vec::new(),
                        epoch_log: Vec::new(),
                        copies: crate::report::CopyStats::default(),
                        device,
                        offload_stats: crate::accel::OffloadStats::default(),
                        trace,
                    };
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        pool.install(|| program(&mut ctx))
                    }));
                    let (result, failure) = match outcome {
                        Ok(r) => (Some(r), None),
                        Err(payload) => {
                            let cause = if payload.downcast_ref::<CrashSignal>().is_some() {
                                FailureCause::Crash
                            } else if let Some(pf) = payload.downcast_ref::<PeerFailedSignal>() {
                                FailureCause::PeerLost { peer: pf.peer }
                            } else if let Some(s) = payload.downcast_ref::<&'static str>() {
                                FailureCause::Panic((*s).to_string())
                            } else if let Some(s) = payload.downcast_ref::<String>() {
                                FailureCause::Panic(s.clone())
                            } else {
                                FailureCause::Panic("opaque panic payload".to_string())
                            };
                            let failure = RankFailure {
                                rank,
                                at: ctx.ledger.now,
                                cause,
                            };
                            (None, Some(failure))
                        }
                    };
                    // Published after this rank's last send: peers see
                    // the exit only once they have drained its messages.
                    ctx.fabric.leave(
                        rank,
                        Exit {
                            at: ctx.ledger.now,
                            failure: failure.as_ref().map(|f| f.cause.clone()),
                        },
                    );
                    (
                        ctx.ledger,
                        std::mem::take(&mut ctx.coll_log),
                        std::mem::take(&mut ctx.epoch_log),
                        ctx.copies,
                        std::mem::take(&mut ctx.offload_stats),
                        result,
                        failure,
                    )
                }));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(outcome) => outcomes[rank] = Some(outcome),
                    // The closure catches program panics; anything that
                    // still unwinds the thread is an engine bug.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        let mut ledgers = Vec::with_capacity(p);
        let mut results = Vec::with_capacity(p);
        let mut failures = Vec::new();
        let mut collectives = Vec::new();
        let mut epochs = Vec::new();
        let mut copies = crate::report::CopyStats::default();
        let mut offloads = Vec::with_capacity(p);
        for (rank, o) in outcomes.into_iter().enumerate() {
            let (ledger, coll_log, epoch_log, rank_copies, rank_offloads, result, failure) =
                o.expect("engine: missing rank outcome");
            ledgers.push(ledger);
            results.push(result);
            copies.merge(rank_copies);
            offloads.push(rank_offloads);
            if rank == 0 {
                // Collective choices are resolved identically on every
                // rank; the root's log is the canonical record. Same for
                // epoch transitions: the coordinator's view is
                // authoritative.
                collectives = coll_log;
                epochs = epoch_log;
            }
            if let Some(f) = failure {
                failures.push(f);
            }
        }
        let mut report =
            RunReport::with_failures(self.platform.name().to_string(), ledgers, results, failures);
        report.collectives = collectives;
        report.epochs = epochs;
        report.copies = copies;
        report.offloads = offloads;
        report.ranks = self.platform.rank_summaries();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    fn two_rank_platform() -> Platform {
        Platform::uniform("t2", 2, 0.01, 1024, 10.0)
    }

    #[test]
    fn compute_cost_scales_with_cycle_time() {
        let engine = Engine::new(two_rank_platform());
        let report = engine.run(|ctx: &mut Ctx<()>| {
            ctx.compute_par(100.0); // 100 Mflop at 0.01 s/Mflop = 1 s
            ctx.elapsed()
        });
        assert!((report.result(0) - 1.0).abs() < 1e-12);
        assert!((report.result(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn message_timing_includes_transfer() {
        let engine = Engine::new(two_rank_platform());
        // 1 Mbit message over a 10 ms/Mbit link = 0.01 s transfer.
        let report = engine.run(|ctx: &mut Ctx<WireVec<u8>>| {
            if ctx.rank() == 1 {
                ctx.send(0, WireVec(vec![0u8; 125_000])); // 1 Mbit
                0.0
            } else {
                let _ = ctx.recv(1);
                ctx.elapsed()
            }
        });
        let expect = crate::platform::DEFAULT_MSG_LATENCY_S + 0.01; // latency + transfer
        assert!(
            (report.result(0) - expect).abs() < 1e-9,
            "got {}",
            report.result(0)
        );
    }

    #[test]
    fn send_free_skips_transfer_cost() {
        let engine = Engine::new(two_rank_platform());
        let report = engine.run(|ctx: &mut Ctx<WireVec<u8>>| {
            if ctx.rank() == 0 {
                ctx.send_free(1, WireVec(vec![0u8; 125_000]));
                0.0
            } else {
                let _ = ctx.recv(0);
                ctx.elapsed()
            }
        });
        // Only the sender's per-message latency moves time.
        assert!((report.result(1) - crate::platform::DEFAULT_MSG_LATENCY_S).abs() < 1e-9);
    }

    #[test]
    fn per_pair_fifo_ordering() {
        let engine = Engine::new(two_rank_platform());
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 0 {
                for i in 0..10u64 {
                    ctx.send(1, i);
                }
                Vec::new()
            } else {
                (0..10).map(|_| ctx.recv(0)).collect::<Vec<u64>>()
            }
        });
        assert_eq!(*report.result(1), (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn receiver_waits_for_slow_sender() {
        let engine = Engine::new(two_rank_platform());
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 1 {
                ctx.compute_par(500.0); // 5 s of work before sending
                ctx.send(0, 7);
            } else {
                let v = ctx.recv(1);
                assert_eq!(v, 7);
            }
            ctx.ledger().clone()
        });
        let root = report.result(0);
        assert!(root.now >= 5.0, "root must wait for the worker");
        assert!(root.idle > 4.9, "the wait is idle time");
    }

    #[test]
    fn intersegment_contention_serializes_root_sends() {
        // Two segments: root in seg 0, two workers in seg 1. Root sends
        // both workers a 1 Mbit message; the serial link forces the
        // second transfer to queue behind the first.
        let procs = vec![
            crate::platform::ProcessorSpec {
                name: "r".into(),
                arch: "x",
                cycle_time: 0.01,
                memory_mb: 1024,
                cache_kb: 0,
                segment: 0,
                device: None,
            },
            crate::platform::ProcessorSpec {
                name: "w1".into(),
                arch: "x",
                cycle_time: 0.01,
                memory_mb: 1024,
                cache_kb: 0,
                segment: 1,
                device: None,
            },
            crate::platform::ProcessorSpec {
                name: "w2".into(),
                arch: "x",
                cycle_time: 0.01,
                memory_mb: 1024,
                cache_kb: 0,
                segment: 1,
                device: None,
            },
        ];
        let links = vec![
            vec![0.0, 100.0, 100.0],
            vec![100.0, 0.0, 1.0],
            vec![100.0, 1.0, 0.0],
        ];
        let engine = Engine::new(Platform::new("seg", procs, links));
        let report = engine.run(|ctx: &mut Ctx<WireVec<u8>>| {
            if ctx.rank() == 0 {
                ctx.send(1, WireVec(vec![0u8; 125_000])); // 0.1 s transfer
                ctx.send(2, WireVec(vec![0u8; 125_000]));
                0.0
            } else {
                let _ = ctx.recv(0);
                ctx.elapsed()
            }
        });
        // First worker: ~latency + 0.1. Second: queued behind → ~+0.2.
        assert!(*report.result(1) < 0.15, "got {}", report.result(1));
        assert!(
            *report.result(2) > 0.2,
            "second transfer should queue: {}",
            report.result(2)
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let engine = Engine::new(crate::presets::fully_heterogeneous());
        let run = || {
            engine.run(|ctx: &mut Ctx<WireVec<f32>>| {
                if ctx.rank() == 0 {
                    let mut acc = 0.0;
                    for src in 1..ctx.num_ranks() {
                        let v = ctx.recv(src);
                        acc += v.0[0] as f64;
                    }
                    ctx.compute_seq(10.0);
                    (acc, ctx.elapsed())
                } else {
                    ctx.compute_par(50.0 * ctx.rank() as f64);
                    ctx.send(0, WireVec(vec![ctx.rank() as f32; 1000]));
                    (0.0, ctx.elapsed())
                }
            })
        };
        let a = run();
        let b = run();
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x, y, "virtual timestamps must be deterministic");
        }
        assert_eq!(a.total_time, b.total_time);
    }

    #[test]
    fn per_pair_fifo_with_interleaved_senders_drained_in_reverse() {
        // 63 workers interleave their sends to the root, which drains
        // its sources in reverse rank order: every pair's sequence
        // arrives intact and in order.
        let engine = Engine::new(Platform::uniform("t64", 64, 0.01, 64, 1.0));
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 0 {
                let mut got = Vec::new();
                for src in (1..ctx.num_ranks()).rev() {
                    for _ in 0..20 {
                        got.push(ctx.recv(src));
                    }
                }
                got
            } else {
                for i in 0..20 {
                    ctx.send(0, ctx.rank() as u64 * 1000 + i);
                }
                Vec::new()
            }
        });
        assert!(report.ok());
        let want: Vec<u64> = (1..64u64)
            .rev()
            .flat_map(|src| (0..20).map(move |i| src * 1000 + i))
            .collect();
        assert_eq!(*report.result(0), want);
    }

    /// How rank 1 leaves right after its last send.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Leave {
        Clean,
        Crash,
        Panic,
    }

    /// Rank 1 computes for 1 s, sends `7` and leaves `how`; the root
    /// runs `root` against it.
    fn leaver_run<R: Send>(
        how: Leave,
        root: impl Fn(&mut Ctx<u64>) -> R + Sync,
    ) -> RunReport<Option<R>> {
        let mut engine = Engine::new(two_rank_platform());
        if how == Leave::Crash {
            // After the send (issued at 1.0 s), inside the next compute.
            engine = engine.with_faults(FaultPlan::new().crash(1, 1.005));
        }
        engine.run(move |ctx: &mut Ctx<u64>| {
            if ctx.rank() == 0 {
                return Some(root(ctx));
            }
            ctx.compute_par(100.0);
            ctx.send(0, 7);
            match how {
                Leave::Clean => {}
                Leave::Crash => ctx.compute_par(1.0),
                Leave::Panic => panic!("worker died"),
            }
            None
        })
    }

    #[test]
    fn a_message_sent_right_before_any_exit_is_delivered_first() {
        for how in [Leave::Clean, Leave::Crash, Leave::Panic] {
            let by_recv = leaver_run(how, |ctx| ctx.recv(1));
            assert_eq!(*by_recv.result(0), Some(7), "{how:?}: recv");
            let by_finite = leaver_run(how, |ctx| ctx.recv_deadline(1, 50.0));
            assert_eq!(*by_finite.result(0), Some(Ok(7)), "{how:?}: finite");
            let by_infinite = leaver_run(how, |ctx| ctx.recv_deadline(1, f64::INFINITY));
            assert_eq!(*by_infinite.result(0), Some(Ok(7)), "{how:?}: infinite");
            for report in [&by_finite, &by_infinite] {
                assert_eq!(report.failure_of(1).is_some(), how != Leave::Clean);
                assert!(report.failure_of(0).is_none());
            }
        }
    }

    #[test]
    fn an_exit_is_observed_only_after_the_mailbox_is_drained() {
        // After the one message: `recv_deadline` reports a failure as
        // `Failed`, permanently and at the failure instant, and a clean
        // exit as `Timeout` — under an infinite deadline too, where the
        // clock advances only to the exit.
        for how in [Leave::Clean, Leave::Crash, Leave::Panic] {
            let report = leaver_run(how, |ctx| {
                let first = ctx.recv_deadline(1, f64::INFINITY);
                let after_first = ctx.elapsed();
                let second = ctx.recv_deadline(1, f64::INFINITY);
                let after_second = ctx.elapsed();
                let third = ctx.recv_deadline(1, 60.0);
                (
                    first,
                    after_first,
                    second,
                    after_second,
                    third,
                    ctx.elapsed(),
                )
            });
            let (first, after_first, second, after_second, third, end) =
                report.result(0).clone().expect("root completes");
            assert_eq!(first, Ok(7), "{how:?}");
            // The clock advances to the exit, never back: the transfer
            // can outlive the send call, and so land after the exit.
            let left_at = report.ledgers[1].now;
            assert_eq!(after_second, after_first.max(left_at), "{how:?}");
            match how {
                Leave::Clean => {
                    assert!(matches!(second, Err(RecvError::Timeout { .. })));
                    assert_eq!(third, Err(RecvError::Timeout { deadline: 60.0 }));
                    assert!((end - 60.0).abs() < 1e-12, "a finite miss waits it out");
                }
                Leave::Crash | Leave::Panic => {
                    let failure = report.failure_of(1).expect("recorded").clone();
                    assert_eq!(failure.at, left_at, "{how:?}");
                    assert_eq!(second, Err(RecvError::Failed(failure.clone())), "{how:?}");
                    assert_eq!(third, Err(RecvError::Failed(failure)), "{how:?}");
                    assert_eq!(end, after_second, "no further wait");
                }
            }
        }
    }

    #[test]
    fn recv_on_an_exited_peer_unwinds_as_peer_lost_however_it_left() {
        for how in [Leave::Clean, Leave::Crash, Leave::Panic] {
            let report = leaver_run(how, |ctx| {
                let first = ctx.recv(1);
                let _ = ctx.recv(1); // nothing more is coming
                first
            });
            assert_eq!(report.results[0], None, "{how:?}");
            let root = report.failure_of(0).expect("root unwound");
            assert_eq!(root.cause, FailureCause::PeerLost { peer: 1 }, "{how:?}");
            assert!(root.at >= report.ledgers[1].now, "{how:?}");
        }
    }

    #[test]
    fn a_send_to_an_exited_rank_is_dropped_and_still_charges_the_sender() {
        // Rank 1 returns at once; the root first observes the exit (so
        // the send below is certainly late), then sends 1 Mbit into the
        // void: full latency on the sender's clock, nobody fails.
        let report = Engine::new(two_rank_platform()).run(|ctx: &mut Ctx<WireVec<u8>>| {
            if ctx.rank() == 1 {
                return (0.0, 0.0);
            }
            let gone = ctx.recv_deadline(1, f64::INFINITY);
            assert!(matches!(gone, Err(RecvError::Timeout { .. })));
            let before = ctx.elapsed();
            ctx.send(1, WireVec(vec![0u8; 125_000]));
            (before, ctx.elapsed())
        });
        assert!(report.ok());
        let (before, after) = *report.result(0);
        assert_eq!(after, before + crate::platform::DEFAULT_MSG_LATENCY_S);
    }

    #[test]
    fn peer_lost_cascades_down_a_binomial_tree_and_terminates() {
        // The root of a 64-rank binomial broadcast panics before
        // sending: every rank below unwinds as `PeerLost` on its tree
        // parent, level by level, and the run ends with all 64 ranks
        // accounted for.
        let p = 64;
        let cfg = crate::coll::CollectiveConfig::uniform(crate::coll::CollAlgorithm::BinomialTree);
        let report = Engine::new(Platform::uniform("t64", p, 0.01, 64, 1.0)).run(
            move |ctx: &mut Ctx<u64>| {
                if ctx.is_root() {
                    panic!("root died");
                }
                crate::coll::broadcast(ctx, &cfg, 0, None, 64).expect("broadcast")
            },
        );
        assert_eq!(report.failures.len(), p);
        assert!(report.results.iter().all(Option::is_none));
        let view = crate::coll::Membership::new(p);
        let tree = crate::coll::ScheduleMemo::default().get(
            crate::coll::CollAlgorithm::BinomialTree,
            0,
            &Platform::uniform("t64", p, 0.01, 64, 1.0),
            &view,
        );
        for rank in 1..p {
            let parent = tree.parent(rank).expect("non-root");
            assert_eq!(
                report.failure_of(rank).expect("accounted for").cause,
                FailureCause::PeerLost { peer: parent },
                "rank {rank}"
            );
        }
    }

    /// Regression test for the old abort path: a worker panic used to
    /// propagate out of [`Engine::run`] and kill the whole simulation.
    /// It now surfaces as structured [`RankFailure`]s in the report.
    #[test]
    fn worker_panic_is_structured_failure() {
        let engine = Engine::new(two_rank_platform());
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 1 {
                ctx.compute_par(100.0); // 1 s, so the failure has a time
                panic!("worker died");
            }
            ctx.recv(1)
        });
        assert_eq!(report.results[0], None);
        assert_eq!(report.results[1], None);
        assert_eq!(report.failures.len(), 2);
        let w = report.failure_of(1).expect("worker failure recorded");
        assert!((w.at - 1.0).abs() < 1e-12);
        assert_eq!(w.cause, FailureCause::Panic("worker died".to_string()));
        let r = report.failure_of(0).expect("root cascade recorded");
        assert_eq!(r.cause, FailureCause::PeerLost { peer: 1 });
        // The root learned of the death at the worker's failure time.
        assert!((r.at - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_worker_panic_mid_collective_keeps_the_trace_the_ledger_and_the_memo() {
        // What the deleted `parking_lot` shim's
        // `mutex_survives_a_panicked_holder` stood for, at the level it
        // matters: rank 15 (a leaf of the binomial tree) dies between
        // two 1 Mbit broadcasts; the run still hands back its trace, and
        // the survivors go on to build a schedule nobody had asked for
        // yet and to queue on the serial links.
        use crate::coll::{broadcast, broadcast_over, CollAlgorithm, CollectiveConfig, Membership};
        let platform = crate::presets::fully_heterogeneous();
        let p = platform.num_procs();
        let (report, trace) = Engine::new(platform).run_traced(move |ctx| {
            let root = ctx.is_root();
            let msg = |tag: u8| root.then(|| WireVec(vec![tag; 125_000]));
            let tree = CollectiveConfig::uniform(CollAlgorithm::BinomialTree);
            let first = broadcast(ctx, &tree, 0, msg(1), 1_000_000).expect("valid");
            if ctx.rank() == p - 1 {
                panic!("worker died");
            }
            let rest = Membership::from_survivors(1, p, &(0..p - 1).collect::<Vec<_>>());
            let star = CollectiveConfig::linear();
            let second = broadcast_over(ctx, &star, 0, &rest, msg(2), 1_000_000).expect("valid");
            (first.0[0], second.0[0])
        });
        assert_eq!(report.failures.len(), 1);
        let lost = report.failure_of(p - 1).expect("recorded");
        assert_eq!(lost.cause, FailureCause::Panic("worker died".to_string()));
        assert!(report.results[..p - 1].iter().all(|r| *r == Some((1, 2))));
        // The dead rank's one receive is on the trace beside the
        // survivors' two, and the star's remote receives waited in line.
        let queued = |rank: usize| -> Vec<f64> {
            let of_rank = trace.events.iter().filter(|e| e.rank == rank);
            of_rank
                .filter_map(|e| match e.kind {
                    TraceKind::Recv {
                        delivered: true,
                        queued,
                        ..
                    } => Some(queued),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(queued(p - 1).len(), 1);
        assert!((1..p - 1).all(|rank| queued(rank).len() == 2));
        assert!((1..p - 1).any(|rank| queued(rank).iter().any(|&q| q > 0.0)));
    }

    #[test]
    fn planned_crash_truncates_compute() {
        let engine = Engine::new(two_rank_platform()).with_faults(FaultPlan::new().crash(1, 0.25));
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 1 {
                ctx.compute_par(100.0); // nominally 1 s — dies at 0.25
                unreachable!("rank 1 must crash mid-compute");
            }
            match ctx.recv_deadline(1, 10.0) {
                Err(RecvError::Failed(f)) => f.at,
                other => panic!("expected failure, got {other:?}"),
            }
        });
        assert!((report.result(0) - 0.25).abs() < 1e-12);
        let f = report.failure_of(1).expect("crash recorded");
        assert_eq!(f.cause, FailureCause::Crash);
        assert!((f.at - 0.25).abs() < 1e-12);
        assert!((report.ledgers[1].now - 0.25).abs() < 1e-12);
        // The crashed rank's partial work is on its ledger.
        assert!((report.ledgers[1].compute_par - 0.25).abs() < 1e-12);
    }

    #[test]
    fn crash_runs_are_deterministic() {
        let plan = FaultPlan::new().crash(2, 0.4).slowdown(1, 0.0, 10.0, 3.0);
        let engine = Engine::new(Platform::uniform("t4", 4, 0.01, 1024, 10.0)).with_faults(plan);
        let run = || {
            engine.run(|ctx: &mut Ctx<u64>| {
                if ctx.rank() == 0 {
                    let mut got = Vec::new();
                    for src in 1..ctx.num_ranks() {
                        got.push(ctx.recv_deadline(src, 5.0).ok());
                    }
                    (got, ctx.elapsed())
                } else {
                    ctx.compute_par(100.0);
                    ctx.send(0, ctx.rank() as u64);
                    (Vec::new(), ctx.elapsed())
                }
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical fault plans must give identical reports");
        assert_eq!(a.failures.len(), 1);
        assert_eq!(a.failures[0].rank, 2);
    }

    #[test]
    fn slowdown_dilates_compute_and_send_to_dead_peer_is_dropped() {
        let plan = FaultPlan::new().crash(1, 0.1).slowdown(0, 0.0, 100.0, 2.0);
        let engine = Engine::new(two_rank_platform()).with_faults(plan);
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 0 {
                ctx.compute_seq(100.0); // 1 s nominal → 2 s dilated
                ctx.send(1, 42); // rank 1 is long dead: dropped
                ctx.elapsed()
            } else {
                ctx.wait_until(5.0); // crosses crash at 0.1
                unreachable!()
            }
        });
        assert!(*report.result(0) > 2.0, "dilated: {}", report.result(0));
        assert!((report.ledgers[1].now - 0.1).abs() < 1e-12);
        assert_eq!(report.failures.len(), 1);
    }

    #[test]
    fn recv_deadline_delivers_on_time_and_times_out() {
        let engine = Engine::new(two_rank_platform());
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 1 {
                ctx.compute_par(100.0); // 1 s
                ctx.send(0, 9);
                (0, 0.0, 0.0)
            } else {
                // Arrival ≈ 1 s + latency + transfer; deadline 0.5 misses.
                let miss = ctx.recv_deadline(1, 0.5);
                assert!(matches!(miss, Err(RecvError::Timeout { .. })));
                let t_after_miss = ctx.elapsed();
                assert!((t_after_miss - 0.5).abs() < 1e-12, "clock at deadline");
                let idle_before = ctx.ledger().idle;
                // Generous deadline: the stashed message is delivered.
                let v = ctx.recv_deadline(1, 10.0).expect("second poll succeeds");
                let idle_gain = ctx.ledger().idle - idle_before;
                (v, ctx.elapsed(), idle_gain)
            }
        });
        let (v, t, idle_gain) = *report.result(0);
        assert_eq!(v, 9);
        assert!(t > 1.0 && t < 1.1, "arrival near 1 s, got {t}");
        // Waiting 0.5 → ~1.0 is idle minus the transfer attribution.
        assert!(idle_gain > 0.0);
    }

    #[test]
    fn recv_deadline_past_deadline_polls_without_advancing() {
        let engine = Engine::new(two_rank_platform());
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 1 {
                ctx.compute_par(100.0);
                ctx.send(0, 1);
                0.0
            } else {
                ctx.compute_seq(200.0); // now = 2.0; message arrived ~1.0
                                        // Deadline in the past, but the message's arrival (≈1.0)
                                        // is ≤ deadline → delivered without moving the clock.
                let v = ctx.recv_deadline(1, 1.5).expect("already arrived");
                assert_eq!(v, 1);
                assert!((ctx.elapsed() - 2.0).abs() < 1e-12, "no time travel");
                // And a past deadline with no pending message: timeout,
                // clock untouched.
                let miss = ctx.recv_deadline(1, 0.1);
                assert!(matches!(miss, Err(RecvError::Timeout { .. })));
                assert!((ctx.elapsed() - 2.0).abs() < 1e-12);
                ctx.elapsed()
            }
        });
        assert!((report.result(0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn recv_deadline_exact_tie_delivers() {
        let engine = Engine::new(two_rank_platform());
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 1 {
                ctx.send(0, 3);
                0
            } else {
                // Compute the exact arrival: latency + 64-bit transfer.
                let transfer = ctx.platform().transfer_secs(1, 0, 64);
                let deadline = crate::platform::DEFAULT_MSG_LATENCY_S + transfer;
                ctx.recv_deadline(1, deadline)
                    .expect("exact-tie arrival is delivered")
            }
        });
        assert_eq!(*report.result(0), 3);
    }

    #[test]
    fn recv_deadline_timeout_accounts_idle_time() {
        let engine = Engine::new(two_rank_platform());
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 1 {
                ctx.compute_par(1000.0); // 10 s: far past the deadline
                ctx.send(0, 1);
                (0.0, 0.0)
            } else {
                let before = ctx.ledger().idle;
                let miss = ctx.recv_deadline(1, 2.0);
                assert!(matches!(miss, Err(RecvError::Timeout { deadline }) if deadline == 2.0));
                (ctx.elapsed(), ctx.ledger().idle - before)
            }
        });
        let (now, idle) = *report.result(0);
        assert!((now - 2.0).abs() < 1e-12);
        assert!((idle - 2.0).abs() < 1e-12, "the whole wait is idle");
    }

    #[test]
    fn failure_is_permanently_observable() {
        let engine = Engine::new(two_rank_platform()).with_faults(FaultPlan::new().crash(1, 0.5));
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 1 {
                ctx.wait_until(1.0);
                unreachable!()
            }
            let first = ctx.recv_deadline(1, 2.0);
            let second = ctx.recv_deadline(1, 3.0);
            assert_eq!(first, second, "failure reports must be stable");
            match second {
                Err(RecvError::Failed(f)) => (f.rank, f.at),
                other => panic!("expected permanent failure, got {other:?}"),
            }
        });
        assert_eq!(*report.result(0), (1, 0.5));
        // Observing a failure advances only to the failure instant.
        assert!((report.ledgers[0].now - 0.5).abs() < 1e-12);
    }

    #[test]
    fn link_outage_delays_transfer() {
        // Root in seg 0, worker in seg 1; outage on the link [0.0, 2.0).
        let procs = vec![
            crate::platform::ProcessorSpec {
                name: "r".into(),
                arch: "x",
                cycle_time: 0.01,
                memory_mb: 1024,
                cache_kb: 0,
                segment: 0,
                device: None,
            },
            crate::platform::ProcessorSpec {
                name: "w".into(),
                arch: "x",
                cycle_time: 0.01,
                memory_mb: 1024,
                cache_kb: 0,
                segment: 1,
                device: None,
            },
        ];
        let links = vec![vec![0.0, 10.0], vec![10.0, 0.0]];
        let plan = FaultPlan::new().link_outage(0, 1, 0.0, 2.0);
        let engine = Engine::new(Platform::new("lk", procs, links)).with_faults(plan);
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 0 {
                ctx.send(1, 5);
                0.0
            } else {
                let _ = ctx.recv(0);
                ctx.elapsed()
            }
        });
        // Transfer can only start at 2.0: arrival ≥ 2.0 despite ~0 send time.
        assert!(*report.result(1) >= 2.0, "got {}", report.result(1));
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(7u64.size_bits(), 64);
        assert_eq!(().size_bits(), 0);
        assert_eq!(WireVec(vec![0f32; 10]).size_bits(), 320);
        assert_eq!(3.5f64.size_bits(), 64);
    }

    #[test]
    fn wait_until_advances_idle() {
        let engine = Engine::new(Platform::uniform("one", 1, 0.01, 64, 0.0));
        let report = engine.run(|ctx: &mut Ctx<()>| {
            ctx.compute_par(100.0); // now = 1.0
            ctx.wait_until(2.5);
            ctx.wait_until(1.0); // in the past: no-op
            (ctx.elapsed(), ctx.ledger().idle)
        });
        let (now, idle) = *report.result(0);
        assert!((now - 2.5).abs() < 1e-12);
        assert!((idle - 1.5).abs() < 1e-12);
    }

    #[test]
    fn send_bits_overrides_payload_size() {
        let engine = Engine::new(two_rank_platform());
        let report = engine.run(|ctx: &mut Ctx<u64>| {
            if ctx.rank() == 0 {
                // Tiny payload, one-megabit declared size.
                ctx.send_bits(1, 7, 1_000_000);
                0.0
            } else {
                let v = ctx.recv(0);
                assert_eq!(v, 7);
                ctx.elapsed()
            }
        });
        // 1 Mbit at 10 ms/Mbit = 0.01 s transfer + latency.
        assert!(*report.result(1) > 0.0099, "got {}", report.result(1));
    }

    #[test]
    fn ctx_accessors() {
        let engine = Engine::new(two_rank_platform());
        let report = engine.run(|ctx: &mut Ctx<()>| {
            assert_eq!(ctx.platform().num_procs(), 2);
            (ctx.rank(), ctx.num_ranks(), ctx.is_root())
        });
        assert_eq!(*report.result(0), (0, 2, true));
        assert_eq!(*report.result(1), (1, 2, false));
    }

    #[test]
    fn many_ranks_noop() {
        // 128 threads spin up and tear down cleanly.
        let engine = Engine::new(Platform::uniform("many", 128, 0.01, 64, 1.0));
        let report = engine.run(|ctx: &mut Ctx<()>| ctx.rank());
        assert_eq!(report.results.len(), 128);
        assert_eq!(*report.result(127), 127);
    }

    #[test]
    fn single_rank_run() {
        let engine = Engine::new(Platform::uniform("one", 1, 0.02, 64, 0.0));
        let report = engine.run(|ctx: &mut Ctx<()>| {
            ctx.compute_seq(50.0);
            ctx.elapsed()
        });
        assert!((report.result(0) - 1.0).abs() < 1e-12);
        assert!((report.total_time - 1.0).abs() < 1e-12);
    }
}
