//! Algorithm parameters and run options.

use crate::wea::WeaConfig;
use hsi_morpho::border::required_overlap;
use hsi_morpho::StructuringElement;
use simnet::coll::{CollectiveConfig, ScatterMode};

/// Parameters of the analysis algorithms, defaulting to the paper's
/// experimental settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoParams {
    /// Number of targets `t` extracted by ATDCA/UFCLS (paper: 18, the
    /// scene's estimated intrinsic dimensionality).
    pub num_targets: usize,
    /// Number of classes `c` for PCT/MORPH (paper: 7, the USGS
    /// dust/debris map classes).
    pub num_classes: usize,
    /// MORPH iterations `I_max` (paper: 5).
    pub morph_iterations: usize,
    /// Structuring-element radius (paper: a 3×3 square, radius 1).
    pub se_radius: usize,
    /// SAD threshold (radians) under which two spectra count as the same
    /// endmember when building unique sets.
    pub sad_threshold: f64,
}

impl Default for AlgoParams {
    fn default() -> Self {
        AlgoParams {
            num_targets: 18,
            num_classes: 7,
            morph_iterations: 5,
            se_radius: 1,
            sad_threshold: 0.04,
        }
    }
}

/// How the image is partitioned across processors — the Hetero-X /
/// Homo-X axis of the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionStrategy {
    /// WEA fractions (Algorithm 1): proportional to processor speed,
    /// memory-bounded, optionally link-aware.
    Heterogeneous(WeaConfig),
    /// Equal fractions — the "homogeneous version" of each algorithm.
    Homogeneous,
}

impl PartitionStrategy {
    /// The paper's heterogeneous default.
    pub fn hetero() -> Self {
        PartitionStrategy::Heterogeneous(WeaConfig::default())
    }
}

/// How many halo lines Hetero-MORPH's partitions carry on each side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapPolicy {
    /// `2 · radius(B) · I_max` lines: interior MEI scores are
    /// bit-identical to the sequential computation (proved in
    /// `hsi-morpho`'s tests). Costly at high processor counts, and
    /// kept because `ablation_overlap` (EXPERIMENTS.md A3) shows it
    /// winning on accuracy: at 256 CPUs it recovers 99.0 % debris
    /// accuracy against [`Self::SingleKernel`]'s 84.5 %.
    Exact,
    /// `radius(B)` lines: enough for any single kernel application, as
    /// the paper's wording ("avoid accesses outside the local image
    /// domain") and its near-linear 256-processor MORPH scaling imply.
    /// Pixels within `2·r·I_max` lines of a partition boundary may score
    /// slightly differently than sequentially — the accuracy impact is
    /// bounded by the `ablation_overlap` bench.
    #[default]
    SingleKernel,
}

impl OverlapPolicy {
    /// Halo lines per side for a structuring-element radius and
    /// iteration count.
    pub fn halo_lines(self, se_radius: usize, iterations: usize) -> usize {
        match self {
            OverlapPolicy::Exact => {
                required_overlap(&StructuringElement::square(se_radius), iterations)
            }
            OverlapPolicy::SingleKernel => se_radius,
        }
    }
}

/// Options governing a parallel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Partitioning strategy (Hetero vs Homo).
    pub strategy: PartitionStrategy,
    /// Whether the initial partition scatter pays transfer cost.
    /// Default [`ScatterMode::Free`]: the paper states its workloads'
    /// "amount of communication is much less than the amount of
    /// computation", and its reported totals are impossible if the ~1 GB
    /// image had paid Table-2 transfer rates — i.e., the image was
    /// effectively pre-staged. The `ablation_scatter` bench flips this
    /// to [`ScatterMode::Charged`] to quantify staging effects (where
    /// the makespan WEA shows its network adaptation). See DESIGN.md.
    pub scatter_mode: ScatterMode,
    /// MORPH halo sizing (see [`OverlapPolicy`]).
    pub morph_overlap: OverlapPolicy,
    /// Collective-communication backend for the algorithms' broadcast /
    /// gather / allreduce steps (see `simnet::coll` and docs/COMMS.md).
    /// Default [`CollectiveConfig::linear`], the paper's star schedule —
    /// existing timings are unchanged unless this is set explicitly.
    /// `collectives.allreduce` also selects ATDCA/UFCLS winner
    /// selection: `Linear` keeps the legacy gather → master re-score →
    /// broadcast split; any tree algorithm fuses it onto one
    /// `simnet::coll::allreduce` schedule.
    pub collectives: CollectiveConfig,
    /// When ranks offload their pixel-parallel kernels to an attached
    /// accelerator (see [`crate::offload`] and `simnet::accel`).
    /// Default [`crate::offload::OffloadPolicy::Never`] — existing runs
    /// are unchanged. `Auto` decides per kernel from the analytic cost
    /// model; WEA partitioning then reads *effective* (host + device)
    /// node speeds. Kernel outputs are bit-identical under every
    /// policy — only time accounting and partition sizing change.
    pub offload: crate::offload::OffloadPolicy,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            strategy: PartitionStrategy::hetero(),
            scatter_mode: ScatterMode::Free,
            morph_overlap: OverlapPolicy::default(),
            collectives: CollectiveConfig::linear(),
            offload: crate::offload::OffloadPolicy::Never,
        }
    }
}

impl RunOptions {
    /// Heterogeneous strategy with defaults.
    pub fn hetero() -> Self {
        RunOptions::default()
    }

    /// Homogeneous strategy with defaults.
    pub fn homo() -> Self {
        RunOptions {
            strategy: PartitionStrategy::Homogeneous,
            ..Default::default()
        }
    }

    /// Replaces the collective backend, builder-style.
    pub fn with_collectives(mut self, collectives: CollectiveConfig) -> Self {
        self.collectives = collectives;
        self
    }

    /// Replaces the offload policy, builder-style (see
    /// [`RunOptions::offload`]).
    pub fn with_offload(mut self, offload: crate::offload::OffloadPolicy) -> Self {
        self.offload = offload;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = AlgoParams::default();
        assert_eq!(p.num_targets, 18);
        assert_eq!(p.num_classes, 7);
        assert_eq!(p.morph_iterations, 5);
        assert_eq!(p.se_radius, 1);
    }

    #[test]
    fn strategy_constructors() {
        assert_eq!(RunOptions::homo().strategy, PartitionStrategy::Homogeneous);
        assert!(matches!(
            RunOptions::hetero().strategy,
            PartitionStrategy::Heterogeneous(_)
        ));
        assert_eq!(RunOptions::default().scatter_mode, ScatterMode::Free);
        assert_eq!(
            RunOptions::default().offload,
            crate::offload::OffloadPolicy::Never
        );
        assert_eq!(
            RunOptions::hetero()
                .with_offload(crate::offload::OffloadPolicy::Auto)
                .offload,
            crate::offload::OffloadPolicy::Auto
        );
    }
}
