//! Seed-driven random generators shared by the property suites and the
//! chaos harness (`crates/chaos`).
//!
//! Everything here is deterministic in the seed: the same `u64` always
//! yields the same platform, fault plan, or draw sequence, on any host
//! — the property the chaos soak and the proptest suites both build
//! their reproducibility on. The RNG is the same self-contained
//! SplitMix64 stream `simnet::presets::random_heterogeneous` uses, so
//! no vendored `rand` is pulled into library builds.

use simnet::FaultPlan;

/// A SplitMix64 stream: tiny, fast, and statistically fine for test
/// generation (it is the seeding PRG of the `rand` ecosystem).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 mantissa bits: exact dyadic rationals, never 1.0.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An integer draw in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when the range is empty.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "SplitMix64::range: empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// A float draw in `[lo, hi)`.
    pub fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// One serializable fault event — the unit the chaos shrinker drops one
/// at a time. `FaultPlan` itself is write-only (a run-time schedule);
/// keeping events as data makes plans editable and printable.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Permanent crash of `rank` at virtual time `at`.
    Crash {
        /// The crashing rank.
        rank: usize,
        /// Crash instant (virtual seconds).
        at: f64,
    },
    /// Compute slowdown of `rank` by `factor` over `[from, until)`.
    Slowdown {
        /// The slowed rank.
        rank: usize,
        /// Window start (virtual seconds).
        from: f64,
        /// Window end (virtual seconds).
        until: f64,
        /// Dilation factor (> 1 is slower).
        factor: f64,
    },
    /// Inter-segment link outage over `[from, until)`.
    LinkOutage {
        /// One endpoint segment.
        seg_a: usize,
        /// The other endpoint segment.
        seg_b: usize,
        /// Window start (virtual seconds).
        from: f64,
        /// Window end (virtual seconds).
        until: f64,
    },
    /// Inter-segment link degradation by `factor` over `[from, until)`.
    LinkDegraded {
        /// One endpoint segment.
        seg_a: usize,
        /// The other endpoint segment.
        seg_b: usize,
        /// Window start (virtual seconds).
        from: f64,
        /// Window end (virtual seconds).
        until: f64,
        /// Transfer-time stretch factor (≥ 1).
        factor: f64,
    },
}

impl FaultEvent {
    /// Folds this event into a [`FaultPlan`] (builder style).
    pub fn apply(&self, plan: FaultPlan) -> FaultPlan {
        match *self {
            FaultEvent::Crash { rank, at } => plan.crash(rank, at),
            FaultEvent::Slowdown {
                rank,
                from,
                until,
                factor,
            } => plan.slowdown(rank, from, until, factor),
            FaultEvent::LinkOutage {
                seg_a,
                seg_b,
                from,
                until,
            } => plan.link_outage(seg_a, seg_b, from, until),
            FaultEvent::LinkDegraded {
                seg_a,
                seg_b,
                from,
                until,
                factor,
            } => plan.link_degraded(seg_a, seg_b, from, until, factor),
        }
    }

    /// `true` for crash events (the ones the ft survivor gates key on).
    pub fn is_crash(&self) -> bool {
        matches!(self, FaultEvent::Crash { .. })
    }
}

/// Builds the [`FaultPlan`] of an event list.
pub fn plan_of(events: &[FaultEvent]) -> FaultPlan {
    events
        .iter()
        .fold(FaultPlan::new(), |plan, e| e.apply(plan))
}

/// Draws up to `max_events` random fault events against a platform of
/// `ranks` ranks and `segments` segments. Crashes and slowdowns target
/// workers only (never rank 0 — the ft drivers reject coordinator
/// crashes structurally, and the engine suites treat the root as the
/// observer); at most one crash per rank, and never so many crashes
/// that fewer than two ranks survive.
pub fn random_events(
    rng: &mut SplitMix64,
    ranks: usize,
    segments: usize,
    max_events: usize,
) -> Vec<FaultEvent> {
    let mut events = Vec::new();
    if ranks < 2 {
        return events;
    }
    let mut crashed = vec![false; ranks];
    let mut crashes_left = (ranks - 2).min(2);
    for _ in 0..rng.range(0, max_events + 1) {
        match rng.range(0, 4) {
            0 if crashes_left > 0 => {
                let rank = rng.range(1, ranks);
                if crashed[rank] {
                    continue;
                }
                crashed[rank] = true;
                crashes_left -= 1;
                events.push(FaultEvent::Crash {
                    rank,
                    at: rng.in_range(0.0, 0.4),
                });
            }
            1 => {
                let from = rng.in_range(0.0, 0.3);
                events.push(FaultEvent::Slowdown {
                    rank: rng.range(1, ranks),
                    from,
                    until: from + rng.in_range(0.01, 0.3),
                    factor: rng.in_range(1.1, 6.0),
                });
            }
            2 if segments > 1 => {
                let seg_a = rng.range(0, segments);
                let seg_b = (seg_a + rng.range(1, segments)) % segments;
                let from = rng.in_range(0.0, 0.3);
                events.push(FaultEvent::LinkOutage {
                    seg_a,
                    seg_b,
                    from,
                    until: from + rng.in_range(0.005, 0.1),
                });
            }
            3 if segments > 1 => {
                let seg_a = rng.range(0, segments);
                let seg_b = (seg_a + rng.range(1, segments)) % segments;
                let from = rng.in_range(0.0, 0.3);
                events.push(FaultEvent::LinkDegraded {
                    seg_a,
                    seg_b,
                    from,
                    until: from + rng.in_range(0.01, 0.2),
                    factor: rng.in_range(1.5, 8.0),
                });
            }
            _ => {}
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_in_bounds() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix64::new(13);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            let n = r.range(3, 9);
            assert!((3..9).contains(&n));
            let f = r.in_range(-2.0, 2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn random_events_respect_the_safety_rules() {
        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(seed);
            let ranks = rng.range(2, 10);
            let segments = rng.range(1, 4);
            let events = random_events(&mut rng, ranks, segments, 5);
            let crashes: Vec<usize> = events
                .iter()
                .filter_map(|e| match e {
                    FaultEvent::Crash { rank, .. } => Some(*rank),
                    _ => None,
                })
                .collect();
            assert!(!crashes.contains(&0), "rank 0 must never crash");
            let mut unique = crashes.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), crashes.len(), "one crash per rank");
            assert!(ranks - crashes.len() >= 2, "two survivors minimum");
            // The plan builds without panicking (validation rules hold).
            let _ = plan_of(&events);
        }
    }
}
