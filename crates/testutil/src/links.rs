//! Serial-link occupancy folded out of a run's [`Trace`] (ROADMAP 1b):
//! which cross-segment transfers held which inter-segment link, over
//! which virtual interval, and which of them started on a link another
//! still held. `tests/collectives.rs` asserts on it for whole
//! collectives; the chaos oracle counts it per scenario.

use simnet::trace::{Trace, TraceKind};
use simnet::Platform;

/// One delivered cross-segment transfer and the interval it occupied
/// its serial inter-segment link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkUse {
    /// The link, as the unordered segment pair `(low, high)`.
    pub link: (usize, usize),
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Virtual time the transfer took the link.
    pub start: f64,
    /// Virtual time it let go.
    pub end: f64,
}

/// Folds a trace into per-serial-link occupancy: every delivered
/// receive whose endpoints sit in different segments held the link
/// between them over `[sent_at + queued, sent_at + queued + transfer)`.
/// Sorted by `(link, start)`.
pub fn serial_link_uses(platform: &Platform, trace: &Trace) -> Vec<LinkUse> {
    let mut uses: Vec<LinkUse> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Recv {
                src,
                delivered: true,
                sent_at,
                transfer,
                queued,
            } => {
                let (a, b) = (platform.segment_of(src), platform.segment_of(e.rank));
                (a != b).then(|| LinkUse {
                    link: (a.min(b), a.max(b)),
                    src,
                    dst: e.rank,
                    start: sent_at + queued,
                    end: sent_at + queued + transfer,
                })
            }
            _ => None,
        })
        .collect();
    uses.sort_by(|x, y| {
        (x.link, x.start, x.end)
            .partial_cmp(&(y.link, y.start, y.end))
            .expect("virtual times are finite")
    });
    uses
}

/// Sweeps each link's transfers in start order and pairs every transfer
/// that starts before the link is free with the earlier transfer still
/// holding it (by more than rounding: a reservation starts exactly
/// where its predecessor ends, give or take the last bit of
/// `sent_at + queued`).
pub fn serial_link_overlaps(uses: &[LinkUse]) -> Vec<(LinkUse, LinkUse)> {
    let mut pairs = Vec::new();
    let mut holder: Option<LinkUse> = None;
    for &u in uses {
        match holder {
            Some(h) if h.link == u.link => {
                if u.start < h.end - 1e-9 {
                    pairs.push((h, u));
                }
                if u.end > h.end {
                    holder = Some(u);
                }
            }
            _ => holder = Some(u),
        }
    }
    pairs
}
