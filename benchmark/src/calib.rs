//! Host-speed calibration: a fixed, harness-owned loop timed next to
//! everything the end-to-end host metrics time.
//!
//! The benchmark runs on shared 1–2 core hosts whose speed moves by
//! ±25 % in phases that last from a fraction of a second to minutes
//! (CPU time inflates with wall time, so it is the cores that slow
//! down, not the scheduler that takes them away). No statistic of raw
//! seconds taken inside one run survives a phase change between two
//! runs. The loop below is timed immediately before and after every
//! timed interval; dividing the interval by the loop time cancels the
//! host's speed at that moment, and multiplying by [`NOMINAL_S`] turns
//! the ratio back into seconds — the seconds the interval would take on
//! a host that runs the loop in exactly `NOMINAL_S`.
//!
//! At the commit that added the benchmark, over ten runs the quartile
//! spread of the 256-rank workload's `wall_s` was 12–21 % in raw seconds
//! (fastest or median pass alike) and 5–9 % normalised.

use std::hint::black_box;
use std::time::Instant;

/// Loop time on the reference host (2-core 2.1 GHz Xeon VM) when
/// nothing disturbs it. Only a unit conversion: a different constant
/// scales every host metric alike and changes no comparison.
pub const NOMINAL_S: f64 = 0.006;

const BANDS: usize = 224;
const PIXELS: usize = 1024;
const SWEEPS: usize = 48;

/// The calibration loop and its (L2-resident) data.
#[derive(Debug)]
pub struct Calibrator {
    pixels: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Builds the loop's data: 1024 spectra of 224 doubles.
    pub fn new() -> Calibrator {
        Calibrator {
            pixels: (0..PIXELS * BANDS)
                .map(|i| (i % 97) as f64 * 0.01)
                .collect(),
        }
    }

    /// One pass of the loop: 48 sweeps of 1024 dot products of length
    /// 224 — the shape of the program's projection and SAD kernels.
    fn sweep_s(&self) -> f64 {
        let start = Instant::now();
        let probe = &self.pixels[..BANDS];
        let mut acc = 0.0f64;
        for _ in 0..SWEEPS {
            for px in black_box(&self.pixels).chunks_exact(BANDS) {
                let dot: f64 = px.iter().zip(probe).map(|(a, b)| a * b).sum();
                acc += dot * dot;
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }

    /// The host's speed right now: the fastest of three loop passes (a
    /// burst shorter than the loop cannot inflate all three).
    pub fn sample_s(&self) -> f64 {
        (0..3).map(|_| self.sweep_s()).fold(f64::INFINITY, f64::min)
    }
}

/// `raw_s` seconds measured between two calibration samples, expressed
/// in nominal-host seconds.
pub fn normalise(raw_s: f64, before_s: f64, after_s: f64) -> f64 {
    raw_s / ((before_s + after_s) / 2.0) * NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_takes_measurable_time_and_repeats_roughly() {
        let cal = Calibrator::new();
        let (a, b) = (cal.sample_s(), cal.sample_s());
        assert!(a > 0.0 && b > 0.0);
        // Same work both times: within a factor of four even on a
        // heavily shared test host.
        assert!(a / b < 4.0 && b / a < 4.0, "{a} vs {b}");
    }

    #[test]
    fn normalising_cancels_a_uniform_slowdown() {
        // A host 30 % slower inflates the interval and both samples alike.
        let quiet = normalise(2.0, 0.006, 0.006);
        let slow = normalise(2.0 * 1.3, 0.006 * 1.3, 0.006 * 1.3);
        assert!((quiet - slow).abs() < 1e-12);
        assert_eq!(quiet, 2.0);
        // A phase change inside the interval is split between the ends.
        assert!(normalise(2.3, 0.006, 0.0078) < 2.3 && normalise(2.3, 0.006, 0.0078) > 2.0 / 1.3);
    }
}
