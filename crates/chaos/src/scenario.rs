//! Scenario generation: one seed → one complete randomized experiment.
//!
//! A [`Scenario`] bundles everything a whole-stack run needs — platform
//! shape, attached accelerators, workload, chunking, fault schedule,
//! collective backend, offload policy and fault-tolerant driver — as
//! *plain data*. Every field is an editable scalar or list so the
//! shrinker ([`crate::shrink()`]) can mutate one dimension at a time and
//! the reproducer emitter can print the scenario back as a Rust
//! literal. Generation is a pure function of the seed: the same `u64`
//! yields the same scenario on any host.

use hetero_hsi::config::AlgoParams;
use hetero_hsi::ft::FtOptions;
use hetero_hsi::OffloadPolicy;
use hsi_cube::synth::{wtc_scene, SyntheticScene, WtcConfig};
use simnet::{presets, CollAlgorithm, DeviceSpec, FaultPlan, Platform};
use testutil::gen::{plan_of, random_events, FaultEvent, SplitMix64};

/// The four chunked algorithms of the paper, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Hetero-ATDCA target detection (grid-invariant output).
    Atdca,
    /// Hetero-UFCLS target generation (grid-invariant output).
    Ufcls,
    /// Hetero-PCT classification (output depends on the chunk grid).
    Pct,
    /// Hetero-MORPH classification (output depends on the chunk grid).
    Morph,
}

/// The two fault-tolerant master/worker drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Static WEA partition with re-planning on worker loss.
    Replan,
    /// Fixed-grid chunk self-scheduling with chunk re-queueing.
    SelfSched,
}

/// One complete randomized experiment, as editable plain data.
///
/// Invariants maintained by [`Scenario::generate`] and preserved by
/// the shrinker:
///
/// * `ranks ≥ 2`, `1 ≤ segments ≤ min(ranks, 4)` (the paper's network
///   has four);
/// * fault events only reference live coordinates (worker ranks
///   `1..ranks`, segments `0..segments`), rank 0 never crashes, and at
///   least two ranks survive every crash schedule;
/// * [`Algo::Pct`] / [`Algo::Morph`] always run under
///   [`Driver::SelfSched`] — their outputs are chunk-grid-deterministic
///   but not partition-invariant, so only the fixed grid supports the
///   output-identity oracle;
/// * `collective` is a concrete schedule (`Linear`, `BinomialTree` or
///   `SegmentHierarchical`) so the analytic replay oracle applies.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Generation seed (also salts the platform draw).
    pub seed: u64,
    /// Number of simulated processors.
    pub ranks: usize,
    /// Number of network segments.
    pub segments: usize,
    /// Ranks carrying a commodity-GPU accelerator.
    pub gpu_ranks: Vec<usize>,
    /// Ranks carrying an edge-FPGA accelerator.
    pub fpga_ranks: Vec<usize>,
    /// Algorithm under test.
    pub algo: Algo,
    /// Fault-tolerant driver.
    pub driver: Driver,
    /// Collective backend of the oracle's allreduce probe: the
    /// serial-link census and the analytic replay (`predict-exact`). The
    /// ft drivers open their rounds by direct sends whatever it names.
    pub collective: CollAlgorithm,
    /// Per-chunk offload policy.
    pub offload: OffloadPolicy,
    /// Scene lines.
    pub lines: usize,
    /// Scene samples per line.
    pub samples: usize,
    /// Scene spectral bands.
    pub bands: usize,
    /// ATDCA/UFCLS target count.
    pub num_targets: usize,
    /// Self-scheduling chunk height (lines).
    pub chunk_lines: usize,
    /// Fault schedule, as editable events.
    pub faults: Vec<FaultEvent>,
}

impl Scenario {
    /// Draws the scenario of `seed`. Pure: same seed, same scenario.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = SplitMix64::new(seed ^ 0x5eed_5eed_5eed_5eed);
        let ranks = rng.range(2, 9);
        let segments = rng.range(1, 1 + ranks.min(4));
        let algo = [Algo::Atdca, Algo::Ufcls, Algo::Pct, Algo::Morph][rng.range(0, 4)];
        // PCT/MORPH outputs are fixed-grid-deterministic but not
        // partition-invariant: re-planning changes the partition after
        // a crash, so only SelfSched keeps the identity oracle sound.
        let driver = match algo {
            Algo::Pct | Algo::Morph => Driver::SelfSched,
            _ if rng.chance(0.5) => Driver::Replan,
            _ => Driver::SelfSched,
        };
        let collective = [
            CollAlgorithm::Linear,
            CollAlgorithm::BinomialTree,
            CollAlgorithm::SegmentHierarchical,
        ][rng.range(0, 3)];
        let offload = testutil::POLICIES[rng.range(0, 3)];
        let mut gpu_ranks = Vec::new();
        let mut fpga_ranks = Vec::new();
        for rank in 0..ranks {
            if rng.chance(0.25) {
                if rng.chance(0.5) {
                    gpu_ranks.push(rank);
                } else {
                    fpga_ranks.push(rank);
                }
            }
        }
        let lines = rng.range(8, 21);
        let samples = rng.range(6, 13);
        let bands = rng.range(8, 21);
        let num_targets = rng.range(2, 5);
        let chunk_lines = rng.range(1, 7);
        let faults = random_events(&mut rng, ranks, segments, 3);
        Scenario {
            seed,
            ranks,
            segments,
            gpu_ranks,
            fpga_ranks,
            algo,
            driver,
            collective,
            offload,
            lines,
            samples,
            bands,
            num_targets,
            chunk_lines,
            faults,
        }
    }

    /// The scenario's platform: a random heterogeneous network derived
    /// from the stored scalars (so editing `ranks`/`segments` yields a
    /// valid nearby platform), with the listed accelerators attached.
    pub fn platform(&self) -> Platform {
        let mut platform = presets::random_heterogeneous(
            self.seed ^ 0x9e37_79b9_7f4a_7c15,
            self.ranks,
            self.segments,
            0.002,
            0.05,
        );
        for &rank in &self.gpu_ranks {
            platform = platform.with_device_at(rank, DeviceSpec::commodity_gpu());
        }
        for &rank in &self.fpga_ranks {
            platform = platform.with_device_at(rank, DeviceSpec::edge_fpga());
        }
        platform
    }

    /// The scenario's fault schedule as an engine-ready plan.
    pub fn fault_plan(&self) -> FaultPlan {
        plan_of(&self.faults)
    }

    /// The scenario's synthetic WTC scene.
    pub fn scene(&self) -> SyntheticScene {
        wtc_scene(WtcConfig {
            lines: self.lines,
            samples: self.samples,
            bands: self.bands,
            ..Default::default()
        })
    }

    /// Algorithm parameters (single morphological iteration keeps the
    /// per-scenario budget small; everything else defaults).
    pub fn params(&self) -> AlgoParams {
        AlgoParams {
            num_targets: self.num_targets,
            morph_iterations: 1,
            ..Default::default()
        }
    }

    /// Driver options for this scenario.
    pub fn ft_options(&self) -> FtOptions {
        FtOptions {
            chunk_lines: self.chunk_lines,
            offload: self.offload,
            ..FtOptions::default()
        }
    }

    /// `true` when at least one crash is scheduled.
    pub fn has_crash(&self) -> bool {
        self.faults.iter().any(FaultEvent::is_crash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50u64 {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
        assert_ne!(Scenario::generate(1), Scenario::generate(2));
    }

    #[test]
    fn generated_scenarios_are_structurally_valid() {
        for seed in 0..300u64 {
            let s = Scenario::generate(seed);
            assert!((2..=8).contains(&s.ranks), "seed {seed}: ranks {}", s.ranks);
            assert!(
                (1..=s.ranks.min(4)).contains(&s.segments),
                "seed {seed}: segments {}",
                s.segments
            );
            if matches!(s.algo, Algo::Pct | Algo::Morph) {
                assert_eq!(
                    s.driver,
                    Driver::SelfSched,
                    "seed {seed}: grid-dependent algo"
                );
            }
            assert!(
                matches!(
                    s.collective,
                    CollAlgorithm::Linear
                        | CollAlgorithm::BinomialTree
                        | CollAlgorithm::SegmentHierarchical
                ),
                "seed {seed}: collective must be concrete"
            );
            for event in &s.faults {
                match *event {
                    FaultEvent::Crash { rank, .. } => {
                        assert!(rank >= 1 && rank < s.ranks, "seed {seed}")
                    }
                    FaultEvent::Slowdown { rank, .. } => {
                        assert!(rank >= 1 && rank < s.ranks, "seed {seed}")
                    }
                    FaultEvent::LinkOutage { seg_a, seg_b, .. }
                    | FaultEvent::LinkDegraded { seg_a, seg_b, .. } => {
                        assert!(seg_a < s.segments && seg_b < s.segments, "seed {seed}");
                        assert_ne!(seg_a, seg_b, "seed {seed}");
                    }
                }
            }
            // The platform and plan build without panicking.
            let platform = s.platform();
            assert_eq!(platform.num_procs(), s.ranks);
            let _ = s.fault_plan();
        }
    }

    #[test]
    fn platform_is_a_pure_function_of_the_scenario() {
        let s = Scenario::generate(7);
        assert_eq!(s.platform(), s.platform());
        let mut wider = s.clone();
        wider.gpu_ranks = vec![0];
        assert_ne!(s.platform(), wider.platform());
    }
}
