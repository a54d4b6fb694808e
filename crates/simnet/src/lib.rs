//! # simnet — virtual-time heterogeneous cluster simulator
//!
//! The paper evaluates its algorithms on four 16-node networks of
//! workstations (Tables 1–2) and a 256-node Beowulf cluster. This crate
//! stands in for those machines: it runs every *rank* as a real OS thread
//! executing real computation, while **time is virtual** — derived purely
//! from the platform model:
//!
//! * compute cost = megaflops × the processor's cycle-time `w_i`
//!   (seconds per megaflop, the paper's Table 1 metric),
//! * message cost = megabits × the link capacity `c_ij`
//!   (milliseconds per megabit, the paper's Table 2 metric),
//! * transfers that cross communication-segment boundaries contend for
//!   the serial inter-segment link (FIFO in virtual time), as described
//!   in §3.1 of the paper.
//!
//! Because reported times are functions of the platform model only, runs
//! are deterministic, host-independent, and reproduce the *relationships*
//! (who wins, by what factor) that the paper's testbed produced.
//!
//! ## Module map
//!
//! * [`platform`] — processors, segments and the link-capacity matrix.
//! * [`presets`] — the paper's four networks and the Thunderhead cluster.
//! * [`equivalent`] — Lastovetsky & Reddy's "equivalent homogeneous
//!   network" construction and checker: the Homo-X side of the paper's
//!   §3.1 optimality criterion, which `tests/experiment_shapes.rs` gates.
//! * [`clock`] — per-rank virtual clocks and time ledgers.
//! * [`contention`] — the serial inter-segment link ledger and the one
//!   rule that charges a message for crossing
//!   ([`contention::charge`]).
//! * [`engine`] — the message-passing runtime: one thread per rank over
//!   a run-shared fabric (a mailbox per rank, an exit board, the link
//!   ledger and the collective schedule memo, built in O(P) per run).
//! * [`coll`] — the collectives (broadcast, scatter, gather, reduce,
//!   allreduce), each one body over an epoch-numbered membership view:
//!   linear (the paper's root-mediated baseline), binomial tree,
//!   segment-hierarchical and pipelined-chunked schedules with
//!   cost-model driven `Auto` selection ([`coll::predict`]).
//! * [`faults`] — deterministic virtual-time fault plans: rank crashes,
//!   slowdown windows, link outage/degradation; structured failures.
//! * [`accel`] — the accelerator device model (GPU/FPGA specs, offload
//!   cost prediction, per-rank offload telemetry).
//! * [`report`] — COM/SEQ/PAR decomposition, imbalance, speedup,
//!   per-rank failure records.
//! * [`trace`] — per-rank virtual-time event timelines
//!   ([`Engine::run_traced`]) and their text Gantt chart.
//! * [`prof`] — post-run profiler: exact per-rank phase accounting,
//!   critical-path extraction with bottleneck attribution, Chrome-trace
//!   export.
//!
//! ## Example
//!
//! ```
//! use simnet::engine::{Engine, WireVec};
//! use simnet::presets;
//!
//! let platform = presets::fully_heterogeneous();
//! let engine = Engine::new(platform);
//! let report = engine.run(|ctx| {
//!     // Every rank computes 100 Mflop; rank 0 gathers a token from all.
//!     ctx.compute_par(100.0);
//!     if ctx.rank() == 0 {
//!         for src in 1..ctx.num_ranks() {
//!             let _tok: WireVec<f32> = ctx.recv(src);
//!         }
//!     } else {
//!         ctx.send(0, WireVec(vec![0.0f32]));
//!     }
//!     ctx.elapsed()
//! });
//! // The slowest processor (UltraSparc, 0.0451 s/Mflop) dominates.
//! assert!(report.total_time > 4.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::redundant_clone))]

pub mod accel;
pub mod clock;
pub mod coll;
pub mod contention;
pub mod engine;
pub mod equivalent;
mod fabric;
pub mod faults;
pub mod platform;
pub mod presets;
pub mod prof;
pub mod report;
pub mod trace;

pub use accel::{DeviceKind, DeviceSim, DeviceSpec, OffloadStats};
pub use coll::{
    CollAlgorithm, CollError, CollOp, CollectiveChoice, CollectiveConfig, GatherEntry, Membership,
    ScatterMode, Tree,
};
pub use engine::{Ctx, Engine, Wire};
pub use faults::{FailureCause, FaultPlan, FaultPlanError, RankFailure, RecvError};
pub use platform::{Platform, ProcessorSpec};
pub use prof::{
    chrome_trace, Bottleneck, CriticalPath, PathElement, PathOwner, PhaseBreakdown, PhaseKind,
    RankProfile, RunProfile,
};
pub use report::{CopyStats, EpochTransition, RankSummary, RunReport};

/// Locks a run-shared mutex, ignoring poison: rank threads unwind by
/// design (a scheduled crash, `PeerLost`, a worker's own panic) and the
/// survivors carry on. All three critical sections behind it end in
/// their single write, so an unwind inside one leaves the data as it
/// was: the link ledger (`LinkLedger::reserve` asserts, then updates
/// one entry), the trace sink (one `push`; `die()` records before it
/// unwinds) and the schedule memo (a tree is built, then pushed whole).
pub(crate) fn lock_unpoisoned<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::lock_unpoisoned;
    use std::sync::{Arc, Mutex};

    #[test]
    fn a_lock_survives_a_panicked_holder() {
        let shared = Arc::new(Mutex::new(0));
        let held = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = lock_unpoisoned(&held);
            panic!("poison attempt");
        })
        .join();
        assert!(shared.is_poisoned());
        *lock_unpoisoned(&shared) = 9;
        assert_eq!(*lock_unpoisoned(&shared), 9);
    }
}
