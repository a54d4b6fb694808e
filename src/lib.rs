//! # heterospec
//!
//! Heterogeneous parallel computing for hyperspectral remote sensing —
//! a full reproduction of **Plaza, "Heterogeneous Parallel Computing in
//! Remote Sensing Applications: Current Trends and Future Perspectives"
//! (IEEE CLUSTER 2006)** as a Rust workspace.
//!
//! This umbrella crate re-exports the five member crates:
//!
//! * [`linalg`] (`hsi-linalg`) — dense linear algebra: LU, Cholesky,
//!   Householder–QL eigen, Gram–Schmidt/OSP projection, LS/SCLS/NNLS/FCLS
//!   unmixing, mergeable covariance accumulators.
//! * [`cube`] (`hsi-cube`) — the hyperspectral image substrate: BIP
//!   cubes, spectral metrics (SAD/SID), the synthetic AVIRIS-like WTC
//!   scene generator with exact ground truth, ENVI-style I/O.
//! * [`simnet`] — the virtual-time heterogeneous cluster simulator:
//!   the paper's Tables 1–2 platforms, an MPI-like message-passing
//!   engine over threads with deterministic virtual clocks, COM/SEQ/PAR
//!   decomposition and imbalance reporting.
//! * [`morpho`] (`hsi-morpho`) — multichannel mathematical morphology:
//!   cumulative-SAD erosion/dilation and the morphological eccentricity
//!   index.
//! * [`hetero`] (`hetero-hsi`) — the paper's contribution: the WEA
//!   workload partitioner and the four parallel algorithms
//!   (ATDCA, UFCLS, PCT, MORPH) in Hetero-/Homo- variants.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! substitutions, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quick start
//!
//! ```
//! use heterospec::cube::synth::{wtc_scene, WtcConfig};
//! use heterospec::hetero::config::{AlgoParams, RunOptions};
//! use heterospec::simnet::engine::Engine;
//!
//! let scene = wtc_scene(WtcConfig::tiny());
//! let engine = Engine::new(heterospec::simnet::presets::fully_heterogeneous());
//! let params = AlgoParams { num_targets: 4, ..Default::default() };
//! let run = heterospec::hetero::par::atdca::run(
//!     &engine, &scene.cube, &params, &RunOptions::hetero());
//! assert_eq!(run.result.len(), 4);
//! assert!(run.report.total_time > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use hetero_hsi as hetero;
pub use hsi_cube as cube;
pub use hsi_linalg as linalg;
pub use hsi_morpho as morpho;
pub use simnet;
