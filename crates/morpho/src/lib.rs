//! # hsi-morpho — multichannel mathematical morphology for hyperspectral
//! imagery
//!
//! Implements the spatial/spectral operators behind the paper's
//! Hetero-MORPH classifier (Algorithm 5):
//!
//! * [`se`] — flat structuring elements `B` (square, cross, disk).
//! * [`cumdist`] — the cumulative SAD distance
//!   `D_B(F(x,y)) = Σ_{(i,j)∈B} SAD(F(x,y), F(i,j))` (paper eq. 2),
//!   which orders pixel *vectors* inside a spatial neighbourhood by how
//!   much they stand out from it.
//! * [`ops`] — multichannel erosion and dilation (paper eqs. 3–4):
//!   erosion selects the neighbourhood pixel minimising `D_B` (the most
//!   highly *mixed*), dilation the one maximising it (the spectrally
//!   *purest* representative).
//! * [`mei`] — the morphological eccentricity index (paper eq. 5):
//!   `MEI(x,y) = SAD((F ⊖ B)(x,y), (F ⊕ B)(x,y))`, iterated `I_max`
//!   times with `F ← F ⊕ B` between iterations.
//! * [`border`] — overlap-border arithmetic for partitioned processing
//!   (how many halo lines a worker needs so its interior scores match
//!   the sequential result exactly).
//!
//! Border handling inside a cube is **edge replication** (coordinates
//! clamp to the image), the standard choice for flat SEs and the one
//! that makes partition overlap reasoning exact.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod border;
pub mod cumdist;
pub mod mei;
pub mod ops;
pub mod se;

pub use mei::MeiResult;
pub use se::StructuringElement;
