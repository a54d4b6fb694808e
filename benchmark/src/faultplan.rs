//! The `ft-faults` fault schedule, drawn from `--seed` by the harness's
//! own generator — the program only ever sees the finished `FaultPlan`.
//!
//! The *shape* (which workers crash, who is slowed, which link drops,
//! where the windows sit as fractions of the run) is a pure function of
//! the seed and the platform; [`FaultShape::plan`] scales it by a run's
//! fault-free virtual time `T0`, so every algorithm and driver meets
//! its crashes at the same relative points.

use simnet::{FaultPlan, Platform};

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, and independent of
/// the program's own RNGs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; modulo bias is immaterial here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn between(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// The two crash instants, as fractions of the fault-free time `T0`.
pub const CRASH_AT: [f64; 2] = [0.3, 0.6];

/// Compute-time multiplier inside the slowdown window.
pub const SLOWDOWN_FACTOR: f64 = 3.0;

/// A fault schedule in units of `T0`. Rank 0 (the coordinator, which
/// the ft drivers cannot lose) is never touched.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultShape {
    /// The two workers that crash, at [`CRASH_AT`]`·T0` of their clocks.
    pub crash_ranks: [usize; 2],
    /// A third worker, slowed ×[`SLOWDOWN_FACTOR`] for a while.
    pub slow_rank: usize,
    /// `(from, until)` of the slowdown, as fractions of `T0`.
    pub slow_window: (f64, f64),
    /// The two segments whose serial link drops.
    pub link: (usize, usize),
    /// `(from, until)` of the outage, as fractions of `T0`.
    pub link_window: (f64, f64),
}

impl FaultShape {
    /// Draws the shape for `seed` on `platform`.
    ///
    /// # Panics
    /// Panics unless the platform has at least four ranks and two
    /// segments (the harness only calls it on the 16-node presets).
    pub fn draw(seed: u64, platform: &Platform) -> FaultShape {
        let ranks = platform.num_procs();
        let segments = (0..ranks)
            .map(|r| platform.segment_of(r))
            .max()
            .unwrap_or(0)
            + 1;
        assert!(
            ranks >= 4 && segments >= 2,
            "fault shape needs >= 4 ranks and >= 2 segments"
        );
        let mut rng = SplitMix64::new(seed);
        // Three distinct workers: partial Fisher–Yates over 1..ranks.
        let mut workers: Vec<usize> = (1..ranks).collect();
        for i in 0..3 {
            let j = i + rng.below(workers.len() - i);
            workers.swap(i, j);
        }
        let seg_a = rng.below(segments);
        let seg_b = (seg_a + 1 + rng.below(segments - 1)) % segments;
        let slow_from = rng.between(0.05, 0.5);
        let slow_len = rng.between(0.1, 0.3);
        let link_from = rng.between(0.05, 0.7);
        let link_len = rng.between(0.02, 0.1);
        FaultShape {
            crash_ranks: [workers[0], workers[1]],
            slow_rank: workers[2],
            slow_window: (slow_from, slow_from + slow_len),
            link: (seg_a.min(seg_b), seg_a.max(seg_b)),
            link_window: (link_from, link_from + link_len),
        }
    }

    /// The concrete plan for a run whose fault-free virtual time is `t0`.
    pub fn plan(&self, t0: f64) -> FaultPlan {
        FaultPlan::new()
            .crash(self.crash_ranks[0], CRASH_AT[0] * t0)
            .crash(self.crash_ranks[1], CRASH_AT[1] * t0)
            .slowdown(
                self.slow_rank,
                self.slow_window.0 * t0,
                self.slow_window.1 * t0,
                SLOWDOWN_FACTOR,
            )
            .link_outage(
                self.link.0,
                self.link.1,
                self.link_window.0 * t0,
                self.link_window.1 * t0,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::presets;

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // First outputs of the reference implementation for seed 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn the_draw_is_a_pure_function_of_the_seed() {
        let platform = presets::fully_heterogeneous();
        for seed in [0, 1, 20010916, u64::MAX] {
            assert_eq!(
                FaultShape::draw(seed, &platform),
                FaultShape::draw(seed, &platform)
            );
            assert_eq!(
                FaultShape::draw(seed, &platform).plan(2.5),
                FaultShape::draw(seed, &platform).plan(2.5)
            );
        }
        let distinct: std::collections::BTreeSet<String> = (0..32)
            .map(|seed| format!("{:?}", FaultShape::draw(seed, &platform)))
            .collect();
        assert!(distinct.len() > 16, "seeds barely vary the shape");
    }

    #[test]
    fn the_draw_never_picks_rank_zero_and_never_repeats_a_worker() {
        let platform = presets::fully_heterogeneous();
        for seed in 0..2000 {
            let shape = FaultShape::draw(seed, &platform);
            let picked = [shape.crash_ranks[0], shape.crash_ranks[1], shape.slow_rank];
            assert!(picked.iter().all(|&r| (1..16).contains(&r)), "{shape:?}");
            assert!(
                picked[0] != picked[1] && picked[0] != picked[2] && picked[1] != picked[2],
                "{shape:?}"
            );
            assert!(shape.link.0 < shape.link.1 && shape.link.1 < 4, "{shape:?}");
            assert!(shape.slow_window.0 < shape.slow_window.1);
            assert!(shape.link_window.0 < shape.link_window.1);
            let plan = shape.plan(1.0);
            assert_eq!(plan.crash_time(0), None);
            assert_eq!(plan.crash_time(shape.crash_ranks[0]), Some(CRASH_AT[0]));
            assert_eq!(plan.crash_time(shape.crash_ranks[1]), Some(CRASH_AT[1]));
        }
    }
}
