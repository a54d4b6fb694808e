//! # hsi-cube — hyperspectral image substrate for `heterospec`
//!
//! Everything the parallel algorithms of Plaza (CLUSTER 2006) need to know
//! about hyperspectral imagery lives here:
//!
//! * [`cube`] — the [`HyperCube`] container: a `lines × samples × bands`
//!   image cube stored band-interleaved-by-pixel (BIP), so each pixel's
//!   full spectral signature is one contiguous slice. A cube is a window
//!   on shared, immutable sample storage: row-block extraction (with
//!   optional overlap borders), the paper's hybrid spatial-domain
//!   partitioning, hands out windows on the one image instead of copies,
//!   and writing is copy-on-write.
//! * [`metrics`] — spectral similarity measures: the spectral angle
//!   distance (SAD, eq. 1 of the paper), spectral information divergence
//!   (SID), Euclidean distance and pixel brightness.
//! * [`labels`] — label images and classification accuracy scoring
//!   against ground truth (the paper's Table 4 metric).
//! * [`synth`] — a parametric synthetic-scene generator standing in for
//!   the AVIRIS World Trade Center scene: 224-band material signatures,
//!   blackbody thermal hot spots (700–1300 °F), spatially coherent class
//!   regions with linear mixing and sensor noise, plus exact ground truth.
//! * [`library`] — named reference spectra and a supervised
//!   spectral-angle-mapper (SAM) classifier: the accuracy ceiling
//!   `tests/end_to_end.rs` holds the unsupervised algorithms against.
//! * [`io`] — minimal ENVI-style raw+header I/O so cubes can be persisted
//!   and exchanged with real tooling.
//!
//! The design keeps pixels in `f32` (AVIRIS-like dynamic range needs no
//! more) while all reductions accumulate in `f64`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cube;
pub mod io;
pub mod labels;
pub mod library;
pub mod metrics;
pub mod synth;

pub use cube::HyperCube;
pub use labels::LabelImage;
