//! Serial inter-segment link contention.
//!
//! The paper's heterogeneous network consists of four fast switched
//! segments whose interconnecting links "only support serial
//! communication" (§3.1). We model each unordered segment pair as a FIFO
//! resource in virtual time: a transfer crossing from segment `a` to
//! segment `b` must wait until the `(a,b)` link is free, then occupies it
//! for the transfer duration.
//!
//! **Determinism.** A run has one ledger, held by its fabric
//! (`simnet::fabric`), and exactly one rank writes to it: reservations
//! are made from whichever endpoint of the message is rank 0 (the root)
//! — when the root sends, inside that send; when the root receives, the
//! first time it takes the message off its mailbox. Both happen in the
//! root's own program order, so reservation order — and therefore every
//! virtual timestamp — is a function of the program alone, not of which
//! host thread ran first. The fabric only queues envelopes and never
//! looks at a clock.
//!
//! **What that leaves out.** Worker↔worker transfers skip the queue and
//! pay the raw transfer duration. They are not rare: binomial trees, the
//! up and down phases of a fused allreduce and the ft drivers' survivor
//! trees all relay worker↔worker, across segments on the multi-segment
//! networks, so those schedules under-charge the serial links — and the
//! root's own reservations are made in program order, not in virtual-time
//! order. Both are ROADMAP open item 1; the fabric, which sees every
//! send, receive and exit of a run, is where a virtual-time-ordered
//! ledger would go.

use parking_lot::Mutex;
use std::collections::HashMap;

/// FIFO reservation ledger for serial inter-segment links.
#[derive(Debug, Default)]
pub struct InterSegmentLinks {
    /// `busy_until[(a, b)]` with `a < b`: virtual time at which the a↔b
    /// link becomes free.
    busy_until: Mutex<HashMap<(usize, usize), f64>>,
}

impl InterSegmentLinks {
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
    pub fn reserve(&self, seg_a: usize, seg_b: usize, earliest: f64, duration: f64) -> f64 {
        debug_assert!(duration >= 0.0);
        if seg_a == seg_b {
            return earliest;
        }
        let key = (seg_a.min(seg_b), seg_a.max(seg_b));
        let mut map = self.busy_until.lock();
        let free_at = map.get(&key).copied().unwrap_or(0.0);
        let start = earliest.max(free_at);
        map.insert(key, start + duration);
        start
    }

    /// Virtual time at which the `seg_a`↔`seg_b` link becomes free
    /// (0 when never used). Exposed for tests and diagnostics.
    pub fn free_at(&self, seg_a: usize, seg_b: usize) -> f64 {
        let key = (seg_a.min(seg_b), seg_a.max(seg_b));
        self.busy_until.lock().get(&key).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_segment_never_queues() {
        let links = InterSegmentLinks::new();
        assert_eq!(links.reserve(1, 1, 5.0, 10.0), 5.0);
        assert_eq!(links.reserve(1, 1, 5.0, 10.0), 5.0);
        assert_eq!(links.free_at(1, 1), 0.0);
    }

    #[test]
    fn cross_segment_transfers_serialize() {
        let links = InterSegmentLinks::new();
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
        let links = InterSegmentLinks::new();
        let a = links.reserve(0, 1, 0.0, 10.0);
        let b = links.reserve(2, 3, 0.0, 10.0);
        assert_eq!(a, 0.0);
        assert_eq!(b, 0.0);
    }

    #[test]
    fn earliest_respected_when_link_free() {
        let links = InterSegmentLinks::new();
        let s = links.reserve(0, 1, 7.5, 1.0);
        assert_eq!(s, 7.5);
        assert_eq!(links.free_at(0, 1), 8.5);
    }

    #[test]
    fn gap_then_later_transfer() {
        let links = InterSegmentLinks::new();
        links.reserve(0, 1, 0.0, 1.0); // busy until 1.0
        let s = links.reserve(0, 1, 10.0, 1.0); // link long free again
        assert_eq!(s, 10.0);
    }

    #[test]
    fn fifo_is_reservation_order_not_earliest_time() {
        // The queue discipline is *call order* (the root's program
        // order), not earliest-requested-start order: a later call with
        // an earlier `earliest` still queues behind prior reservations.
        let links = InterSegmentLinks::new();
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
        let links = InterSegmentLinks::new();
        for i in 0..10 {
            let s = links.reserve(2, 7, 0.0, 0.5);
            assert!((s - 0.5 * i as f64).abs() < 1e-12, "slot {i} at {s}");
        }
        assert!((links.free_at(2, 7) - 5.0).abs() < 1e-12);
    }
}
