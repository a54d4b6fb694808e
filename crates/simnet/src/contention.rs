//! Serial inter-segment link contention: the charging rule, once.
//!
//! The paper's heterogeneous network consists of four fast switched
//! segments whose interconnecting links "only support serial
//! communication" (§3.1). Each unordered segment pair is a FIFO resource
//! in virtual time, kept in a [`LinkLedger`]; what a message pays for
//! crossing is [`charge`], which the engine calls for every message it
//! moves and the cost model ([`crate::coll::predict`]) for every message
//! it replays. **The rule:** the fault plan adjusts the transfer (an
//! outage of its link pushes the requested start past the window, a
//! degradation stretches the duration); then a transfer with rank 0
//! (the root) at one end *and* its ends in different segments waits
//! until its link is free and occupies it for the adjusted duration.
//! Every other transfer starts when requested and occupies nothing.
//!
//! **Determinism.** A run has one ledger, held by its fabric
//! (`simnet::fabric`), and exactly one rank writes to it: the engine
//! calls [`charge`] from whichever endpoint of the message is rank 0 —
//! when the root sends, inside that send; when the root receives, the
//! first time it takes the message off its mailbox. Both happen in the
//! root's own program order, so reservation order — and therefore every
//! virtual timestamp — is a function of the program alone, not of which
//! host thread ran first. The fabric only queues envelopes and never
//! looks at a clock.
//!
//! **What that leaves out.** Worker↔worker transfers skip the queue.
//! They are not rare: binomial trees and the up and down phases of a
//! fused allreduce relay worker↔worker, across segments on the
//! multi-segment networks, so those schedules
//! under-charge the serial links — and the root's own reservations are
//! made in program order, not in virtual-time order. An outage is also
//! tested at the *requested* start, before the queue: a transfer that
//! queues into an outage window of its link is granted a start inside
//! it. All three are ROADMAP open item 1c, now an edit to [`charge`];
//! the fabric, which sees every send, receive and exit of a run, is
//! where a virtual-time-ordered ledger would go.

use crate::faults::FaultPlan;
use crate::platform::Platform;
use std::collections::HashMap;
use std::ops::DerefMut;

/// FIFO reservation ledger for serial inter-segment links. No lock: a
/// run's fabric keeps one behind a mutex, a prediction owns one outright.
#[derive(Debug, Default)]
pub struct LinkLedger {
    /// `busy_until[(a, b)]` with `a < b`: virtual time at which the a↔b
    /// link becomes free.
    busy_until: HashMap<(usize, usize), f64>,
}

impl LinkLedger {
    /// A fresh ledger with all links free.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the `seg_a`↔`seg_b` link for a transfer of `duration`
    /// seconds that cannot start before `earliest`. Returns the actual
    /// start time (≥ `earliest`).
    ///
    /// Same-segment "reservations" (switched network) start immediately
    /// and occupy nothing.
    pub fn reserve(&mut self, seg_a: usize, seg_b: usize, earliest: f64, duration: f64) -> f64 {
        debug_assert!(duration >= 0.0);
        if seg_a == seg_b {
            return earliest;
        }
        let start = earliest.max(self.free_at(seg_a, seg_b));
        let key = (seg_a.min(seg_b), seg_a.max(seg_b));
        self.busy_until.insert(key, start + duration);
        start
    }

    /// Virtual time at which the `seg_a`↔`seg_b` link becomes free
    /// (0 when never used). Exposed for tests and diagnostics.
    pub fn free_at(&self, seg_a: usize, seg_b: usize) -> f64 {
        let key = (seg_a.min(seg_b), seg_a.max(seg_b));
        self.busy_until.get(&key).copied().unwrap_or(0.0)
    }
}

/// What one message pays on the wire, as [`charge`] resolved it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Charge {
    /// Virtual time at which the message lands at its destination.
    pub arrival: f64,
    /// Seconds the transfer holds the wire, link degradation included.
    pub transfer_secs: f64,
    /// Seconds it waited behind earlier reservations of its serial link.
    pub queued: f64,
}

/// Charges one `src → dst` message injected at virtual time `sent_at`
/// whose transfer nominally lasts `dur` seconds — the whole rule of the
/// module doc, in its order. `ledger` is called **only if the transfer
/// queues**, so a ledger behind a lock is locked only where a link is
/// shared: a single-segment platform never takes it.
///
/// Known limitations (ROADMAP 1c): two workers never reserve, and the
/// adjustment runs before the reservation, so an outage is tested at
/// the requested start and a transfer the queue delays into an outage
/// of its link starts inside it.
pub fn charge<L: DerefMut<Target = LinkLedger>>(
    platform: &Platform,
    faults: &FaultPlan,
    ledger: impl FnOnce() -> L,
    src: usize,
    dst: usize,
    sent_at: f64,
    dur: f64,
) -> Charge {
    let (seg_src, seg_dst) = (platform.segment_of(src), platform.segment_of(dst));
    let (earliest, dur) = faults.adjust_transfer(seg_src, seg_dst, sent_at, dur);
    let start = if (src == 0 || dst == 0) && seg_src != seg_dst {
        ledger().reserve(seg_src, seg_dst, earliest, dur)
    } else {
        earliest
    };
    Charge {
        arrival: start + dur,
        transfer_secs: dur,
        queued: start - earliest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn same_segment_never_queues() {
        let mut links = LinkLedger::new();
        assert_eq!(links.reserve(1, 1, 5.0, 10.0), 5.0);
        assert_eq!(links.reserve(1, 1, 5.0, 10.0), 5.0);
        assert_eq!(links.free_at(1, 1), 0.0);
    }

    #[test]
    fn cross_segment_transfers_serialize() {
        let mut links = LinkLedger::new();
        let s1 = links.reserve(0, 1, 0.0, 2.0);
        let s2 = links.reserve(0, 1, 0.0, 2.0);
        let s3 = links.reserve(1, 0, 0.0, 1.0); // same unordered pair
        assert_eq!(s1, 0.0);
        assert_eq!(s2, 2.0);
        assert_eq!(s3, 4.0);
        assert_eq!(links.free_at(0, 1), 5.0);
    }

    #[test]
    fn distinct_pairs_are_independent() {
        let mut links = LinkLedger::new();
        let a = links.reserve(0, 1, 0.0, 10.0);
        let b = links.reserve(2, 3, 0.0, 10.0);
        assert_eq!(a, 0.0);
        assert_eq!(b, 0.0);
    }

    #[test]
    fn earliest_respected_when_link_free() {
        let mut links = LinkLedger::new();
        let s = links.reserve(0, 1, 7.5, 1.0);
        assert_eq!(s, 7.5);
        assert_eq!(links.free_at(0, 1), 8.5);
    }

    #[test]
    fn gap_then_later_transfer() {
        let mut links = LinkLedger::new();
        links.reserve(0, 1, 0.0, 1.0); // busy until 1.0
        let s = links.reserve(0, 1, 10.0, 1.0); // link long free again
        assert_eq!(s, 10.0);
    }

    #[test]
    fn fifo_is_reservation_order_not_earliest_time() {
        // The queue discipline is *call order* (the root's program
        // order), not earliest-requested-start order: a later call with
        // an earlier `earliest` still queues behind prior reservations.
        let mut links = LinkLedger::new();
        let s1 = links.reserve(0, 1, 5.0, 1.0); // head of queue
        let s2 = links.reserve(0, 1, 0.0, 1.0); // wants 0.0, gets 6.0
        let s3 = links.reserve(1, 0, 6.0, 1.0); // same pair, queues again
        assert_eq!(s1, 5.0);
        assert_eq!(s2, 6.0);
        assert_eq!(s3, 7.0);
        assert_eq!(links.free_at(0, 1), 8.0);
    }

    #[test]
    fn contended_link_backlog_accumulates() {
        // Ten back-to-back reservations pack the link solid with no gaps.
        let mut links = LinkLedger::new();
        for i in 0..10 {
            let s = links.reserve(2, 7, 0.0, 0.5);
            assert!((s - 0.5 * i as f64).abs() < 1e-12, "slot {i} at {s}");
        }
        assert!((links.free_at(2, 7) - 5.0).abs() < 1e-12);
    }

    /// Ranks 0 and 1 on segment 0, ranks 2 and 3 on segment 1.
    fn two_by_two() -> Platform {
        let procs = [0, 0, 1, 1]
            .iter()
            .map(|&segment| crate::platform::ProcessorSpec {
                name: format!("s{segment}"),
                arch: "x",
                cycle_time: 0.01,
                memory_mb: 64,
                cache_kb: 0,
                segment,
                device: None,
            })
            .collect();
        let links = (0..4).map(|i| (0..4).map(|j| f64::from(u8::from(i != j))).collect());
        Platform::new("2x2", procs, links.collect())
    }

    #[test]
    fn charge_truth_table() {
        // {root sends, root receives, neither} × {same, cross segment}
        // × {no plan, outage, degradation}: a 0.25 s transfer injected
        // at 1.0 s while link s0–s1 is booked until 2.5 s and faulty
        // over [0.5, 2.0). Every number below is a dyadic rational, so
        // the expected values are exact.
        let platform = two_by_two();
        let plans = [
            FaultPlan::new(),
            FaultPlan::new().link_outage(0, 1, 0.5, 2.0),
            FaultPlan::new().link_degraded(0, 1, 0.5, 2.0, 3.0),
        ];
        let (same, cross) = ([(0, 1), (1, 0), (2, 3)], [(0, 2), (2, 0), (1, 2)]);
        // (arrival, transfer_secs, queued) per plan.
        let untouched: [(f64, f64, f64); 3] = [(1.25, 0.25, 0.0); 3];
        // Root at one end, crossing: behind the booking in every plan —
        // the outage has already pushed the request to 2.0 s, so only
        // 0.5 s of the wait is queueing.
        let reserved = [(2.75, 0.25, 1.5), (2.75, 0.25, 0.5), (3.25, 0.75, 1.5)];
        // Worker to worker, crossing: the plan applies, the queue does
        // not (ROADMAP 1c closes this hole; the pin is deliberate).
        let unqueued = [(1.25, 0.25, 0.0), (2.25, 0.25, 0.0), (1.75, 0.75, 0.0)];
        let cases = same
            .iter()
            .map(|&pair| (pair, untouched))
            .chain([(cross[0], reserved), (cross[1], reserved)])
            .chain([(cross[2], unqueued)]);
        for ((src, dst), want) in cases {
            let reserves = (src == 0 || dst == 0) && platform.crosses_segments(src, dst);
            for (plan, (arrival, transfer_secs, queued)) in plans.iter().zip(want) {
                let mut ledger = LinkLedger::new();
                ledger.reserve(0, 1, 0.0, 2.5);
                let fetched = Cell::new(0);
                let got = charge(
                    &platform,
                    plan,
                    || {
                        fetched.set(fetched.get() + 1);
                        &mut ledger
                    },
                    src,
                    dst,
                    1.0,
                    0.25,
                );
                let case = format!("{src}→{dst} under {plan:?}");
                assert_eq!(got.arrival.to_bits(), arrival.to_bits(), "{case}: {got:?}");
                assert_eq!(
                    got.transfer_secs.to_bits(),
                    transfer_secs.to_bits(),
                    "{case}: {got:?}"
                );
                assert_eq!(got.queued.to_bits(), queued.to_bits(), "{case}: {got:?}");
                // Only a root-endpoint crossing asks for the ledger, and
                // only it moves the link's high-water mark.
                assert_eq!(fetched.get(), u32::from(reserves), "{case}");
                let free_at = if reserves { arrival } else { 2.5 };
                assert_eq!(ledger.free_at(0, 1).to_bits(), free_at.to_bits(), "{case}");
            }
        }
    }

    #[test]
    fn a_single_segment_platform_never_fetches_the_ledger() {
        // What keeps a 256-rank Thunderhead run off the fabric's ledger
        // lock: no endpoint pair crosses, so the closure is never run.
        let platform = Platform::uniform("u4", 4, 0.01, 64, 1.0);
        for (src, dst) in [(0, 3), (3, 0), (1, 2)] {
            let got = charge(
                &platform,
                &FaultPlan::new(),
                || -> &mut LinkLedger { panic!("ledger fetched for {src}→{dst}") },
                src,
                dst,
                2.0,
                0.5,
            );
            let want = Charge {
                arrival: 2.5,
                transfer_secs: 0.5,
                queued: 0.0,
            };
            assert_eq!(got, want);
        }
    }
}
