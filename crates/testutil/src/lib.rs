//! Shared fixtures for the workspace integration suites.
//!
//! The thirteen root-level suites used to copy-paste the same
//! scene/params/engine helpers; this crate is the single home for them
//! (a dev-dependency of the root package only — it never ships in a
//! library build). Keep helpers here *generic*: suite-specific
//! constants belong in the suite.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use hetero_hsi::config::AlgoParams;
use hetero_hsi::ft::FtOptions;
use hetero_hsi::seq::DetectedTarget;
use hetero_hsi::OffloadPolicy;
use hsi_cube::synth::{wtc_scene, SyntheticScene, WtcConfig};
use hsi_linalg::covariance::CovarianceAccumulator;
use hsi_linalg::Matrix;
use simnet::engine::Engine;
use simnet::prof::RunProfile;
use simnet::{presets, CollAlgorithm, FaultPlan, Platform, RunReport};

pub mod gen;
pub mod golden;
pub mod links;

/// The smallest WTC scene (`WtcConfig::tiny()`): the standard fixture
/// for fault-injection, accel and profiler suites where virtual-time
/// relationships — not image fidelity — are under test.
pub fn tiny_scene() -> SyntheticScene {
    wtc_scene(WtcConfig::tiny())
}

/// A WTC scene with explicit geometry (other config fields default).
pub fn scene(lines: usize, samples: usize, bands: usize) -> SyntheticScene {
    wtc_scene(WtcConfig {
        lines,
        samples,
        bands,
        ..Default::default()
    })
}

/// The sample covariance of a scene's pixels: the matrix PCT's master
/// decomposes.
pub fn scene_covariance(scene: &SyntheticScene) -> Matrix {
    let mut acc = CovarianceAccumulator::new(scene.cube.bands());
    acc.push_pixels_f32(scene.cube.as_slice());
    acc.covariance().expect("non-empty scene")
}

/// The symmetric eigensolver's test matrices, named: two 224-band scene
/// covariances (full rank and rank ≤ 31), repeated eigenvalues with and
/// without a reduction to find them, the 1 × 1 and 2 × 2 sizes, and
/// `near_symmetric` matrices of order 3, 5, 17, 64 and 224.
pub fn eigen_matrices() -> Vec<(String, Matrix)> {
    let mut ones = Matrix::identity(4).scaled(2.0);
    for x in ones.as_mut_slice() {
        *x += 1.0;
    }
    let contract = [
        ("cov_32x16x224", scene_covariance(&scene(32, 16, 224))),
        ("cov_4x8x224", scene_covariance(&scene(4, 8, 224))),
        ("identity5", Matrix::identity(5)),
        (
            "diag313",
            Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 3.0]]),
        ),
        ("twoI_plus_ones4", ones),
        ("scalar", Matrix::from_rows(&[&[-4.5]])),
        (
            "second_difference2",
            Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]),
        ),
    ]
    .map(|(name, a)| (name.to_string(), a));
    let random =
        [3, 5, 17, 64, 224].map(|n| (format!("near_symmetric_n{n}"), near_symmetric(n, n as u64)));
    contract.into_iter().chain(random).collect()
}

/// An `n × n` matrix drawn from `seed`: symmetric entries in `[−1, 1)`
/// plus an asymmetric part of order `1e-9`, the size of the rounding a
/// covariance sum leaves between its two triangles.
fn near_symmetric(n: usize, seed: u64) -> Matrix {
    let mut rng = gen::SplitMix64::new(seed);
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = rng.in_range(-1.0, 1.0);
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
    for x in a.as_mut_slice() {
        *x += rng.in_range(-1e-9, 1e-9);
    }
    a
}

/// Algorithm parameters with explicit target count and morphological
/// iterations (other fields default).
pub fn params(num_targets: usize, morph_iterations: usize) -> AlgoParams {
    AlgoParams {
        num_targets,
        morph_iterations,
        ..Default::default()
    }
}

/// `(line, sample)` coordinates of a detection list — the
/// platform-invariant digest the invariance tests compare.
pub fn coords(targets: &[DetectedTarget]) -> Vec<(usize, usize)> {
    targets.iter().map(|t| (t.line, t.sample)).collect()
}

/// All three offload policies, in the canonical sweep order.
pub const POLICIES: [OffloadPolicy; 3] = [
    OffloadPolicy::Never,
    OffloadPolicy::Always,
    OffloadPolicy::Auto,
];

/// Rank counts straddling powers of two (binomial-tree edge cases) and
/// the paper's 16-processor networks — the canonical sweep of the
/// collective conformance suites.
pub const RANK_COUNTS: [usize; 8] = [2, 3, 4, 5, 8, 9, 16, 17];

/// Every selectable collective backend, in the canonical sweep order.
pub const BACKENDS: [CollAlgorithm; 5] = [
    CollAlgorithm::Linear,
    CollAlgorithm::BinomialTree,
    CollAlgorithm::SegmentHierarchical,
    CollAlgorithm::PipelinedChunked,
    CollAlgorithm::Auto,
];

/// The conformance suites' multi-segment heterogeneous platform of `p`
/// ranks: seeded off the rank count (so each count gets a distinct but
/// reproducible machine), segments interleaved `i % 3` so hierarchical
/// trees are non-trivial.
pub fn random_platform(p: usize) -> Platform {
    presets::random_heterogeneous(41 + p as u64, p, 3, 0.002, 0.05)
}

/// Default fault-tolerant driver options with an explicit offload
/// policy.
pub fn ft_opts(offload: OffloadPolicy) -> FtOptions {
    FtOptions {
        offload,
        ..FtOptions::default()
    }
}

/// An engine over the paper's fully-heterogeneous network with a fault
/// plan attached.
pub fn engine_with(plan: FaultPlan) -> Engine {
    Engine::new(presets::fully_heterogeneous()).with_faults(plan)
}

/// Asserts the profiler's two always-enforced gates on a profiled
/// report and returns the profile:
///
/// 1. **accounting identity** — every rank's phase fold equals its
///    wall-clock bitwise (`f64::to_bits`, no epsilon);
/// 2. **path bounds** — critical-path length ≤ makespan, slack ≥ 0,
///    and `fl(length + slack) == makespan` bitwise.
///
/// # Panics
/// Panics if the report carries no profile or either gate fails.
pub fn assert_profile_exact<R>(report: &RunReport<R>) -> &RunProfile {
    let profile = report
        .profile
        .as_ref()
        .expect("report has no profile: enable Engine::with_profiling");
    for r in &profile.ranks {
        assert!(
            r.identity_holds(),
            "rank {}: accounted {:e} ({:#x}) != wall {:e} ({:#x})",
            r.rank,
            r.phases.accounted(),
            r.phases.accounted().to_bits(),
            r.wall,
            r.wall.to_bits()
        );
    }
    assert!(
        profile.path_bounded(),
        "critical path out of bounds: length {:e}, slack {:e}, makespan {:e}",
        profile.critical_path.length,
        profile.critical_path.slack,
        profile.makespan
    );
    profile
}
