//! # hetero-hsi — heterogeneity-aware parallel hyperspectral algorithms
//!
//! The core contribution of Plaza, *"Heterogeneous Parallel Computing in
//! Remote Sensing Applications"* (CLUSTER 2006), reimplemented on the
//! `simnet` virtual-time cluster simulator:
//!
//! * [`wea`] — the **workload estimation algorithm** (Algorithm 1):
//!   heterogeneity-aware workload fractions `αᵢ`, the homogeneous
//!   variant, per-node memory upper bounds with recursive
//!   redistribution, and the link-aware generalisation implied by the
//!   paper's graph model `G = (P, E)`.
//! * [`par::atdca`] — Hetero-ATDCA (Algorithm 2): iterative target
//!   detection by orthogonal subspace projection.
//! * [`par::ufcls`] — Hetero-UFCLS (Algorithm 3): unsupervised fully
//!   constrained least-squares target generation.
//! * [`par::pct`] — Hetero-PCT (Algorithm 4): principal-component
//!   classification with a parallel covariance step.
//! * [`par::morph`] — Hetero-MORPH (Algorithm 5): spatial/spectral
//!   morphological classification with overlap borders.
//! * [`vd`] — virtual dimensionality (HFC and noise-floor estimators):
//!   where Table 3's `t = 18` comes from.
//! * [`eval`] — accuracy against ground truth (Tables 3 and 4);
//!   [`digest`] — bit-exact output digests for differential checks.
//!
//! The paper's §3.1 criterion — Hetero-X on a heterogeneous network
//! ≈ Homo-X on its equivalent homogeneous network
//! (`simnet::equivalent`) — is not a function here but a gate:
//! `tests/experiment_shapes.rs::table5_shape_adaptation`.
//!
//! Every parallel algorithm runs in two flavours selected by
//! [`config::PartitionStrategy`]: **Heterogeneous** (WEA fractions) or
//! **Homogeneous** (equal fractions) — the paper's Hetero-X/Homo-X
//! pairs. Sequential reference implementations live in [`seq`] and are
//! shared, kernel-for-kernel, with the workers ([`kernels`]), so the
//! parallel algorithms produce *identical* analysis results to the
//! sequential ones on every platform (asserted by the test suite).
//!
//! Virtual-time costs are charged from the analytic per-kernel megaflop
//! formulas in [`flops`]; see DESIGN.md for the fidelity argument.
//!
//! ATDCA and UFCLS differ by a per-pixel score, not by a program: the
//! crate-private `detect` module describes each detector once (its
//! system between rounds, `admit` and `nominate`, and the table of
//! charges), and [`seq`], [`par`] and [`sched`] each write the
//! detection loop once over that description. A new detector is one
//! impl there, not three drivers. What the host remembers of the image
//! lines between rounds ([`kernels::Carry`]) is not part of that
//! system: it is keyed by line, and each driver owns as many as it has
//! parties that never trade lines.
//!
//! The paper's §5 "future perspectives" — fault tolerance and dynamic
//! scheduling for nodes that do not deliver their nominal speed — live
//! in two modules: [`sched`] cuts all four algorithms into rounds of
//! line chunks behind the [`sched::ChunkedAlgo`] trait, and [`ft`]
//! drives them master/worker — static WEA batches with re-planning on
//! worker loss, or demand-driven chunk self-scheduling with chunk
//! re-queueing — over `simnet`'s deterministic fault plans. Hidden load
//! is one such plan (`FaultPlan::slowdown`): the static algorithms of
//! [`par`] plan from nominal speeds and pay the true ones, the
//! self-scheduler reroutes from completion feedback (ablation A4).
//!
//! Accelerator offload (the paper's "specialized hardware" outlook)
//! lives in [`offload`]: per-chunk host-vs-device decisions
//! ([`offload::OffloadPolicy`] on [`config::RunOptions`] /
//! [`ft::FtOptions`]) driven by the analytic cost model over
//! `simnet::accel` device specs, with WEA partitioning by *effective*
//! node speed — outputs stay bit-identical across policies.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::redundant_clone))]

pub mod config;
mod detect;
pub mod digest;
pub mod eval;
pub mod flops;
pub mod framework;
pub mod ft;
pub mod kernels;
pub mod msg;
pub mod offload;
pub mod par;
pub mod sched;
pub mod seq;
pub mod vd;
pub mod wea;

pub use config::{AlgoParams, PartitionStrategy, RunOptions};
pub use digest::OutputDigest;
pub use framework::ParallelRun;
pub use ft::{FtError, FtOptions, FtRun, Recovery};
pub use offload::{ChunkCost, ChunkTarget, OffloadPolicy};
pub use sched::ChunkedAlgo;

#[cfg(test)]
mod tests {
    /// The workspace manifest builds this crate and the kernel crates
    /// under it at `opt-level = 3` in the dev profile so tier-1 is fast.
    /// That must never grow into a release profile: the suites rely on
    /// debug assertions and overflow checks. (`cargo test --release`
    /// trips this by design: `-- --skip dev_profile`.)
    #[test]
    fn dev_profile_keeps_debug_assertions_and_overflow_checks() {
        use std::hint::black_box;
        assert!(std::panic::catch_unwind(|| debug_assert!(black_box(false))).is_err());
        assert!(std::panic::catch_unwind(|| black_box(u8::MAX) + black_box(1)).is_err());
    }

    /// `.cargo/config.toml` sets the ISA floor the kernels are compiled
    /// for (x86-64-v3; docs/PERF.md "The ISA floor"). Moving or losing
    /// that file costs ≈ 20 % of a sequential pass and changes no result,
    /// so nothing else would notice. A build handed `RUSTFLAGS` on
    /// purpose (CI's `sse2-floor` job) replaces the config's flags and is
    /// exempt.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn kernels_are_built_at_the_configured_isa_floor() {
        let avx2 = std::hint::black_box(cfg!(target_feature = "avx2"));
        assert!(
            avx2 || option_env!("RUSTFLAGS").is_some(),
            "no AVX2 and no RUSTFLAGS: .cargo/config.toml was not picked up"
        );
    }
}
