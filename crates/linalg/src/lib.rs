//! # hsi-linalg — dense linear algebra substrate for `heterospec`
//!
//! A small, self-contained dense linear-algebra library implementing exactly
//! the operations the parallel hyperspectral algorithms of Plaza (CLUSTER
//! 2006) require:
//!
//! * [`Matrix`] — a row-major dense matrix over `f64` with the usual
//!   products, transposes and norms ([`matrix`]).
//! * LU decomposition with partial pivoting for solving, inversion and
//!   determinants ([`lu`]) — used for the `(UᵀU)⁻¹` factor of the
//!   orthogonal-subspace projector in ATDCA.
//! * Cholesky decomposition for symmetric positive-definite systems
//!   ([`cholesky`]) — used by the least-squares solvers.
//! * Eigendecomposition of symmetric matrices by Householder
//!   tridiagonalisation and implicit-shift QL ([`eigen`]) — used for the
//!   principal component transform (PCT).
//! * Modified Gram–Schmidt orthonormalisation and orthogonal-subspace
//!   projection ([`ortho`]) — the `P_U^⊥ = I − U(UᵀU)⁻¹Uᵀ` operator of
//!   ATDCA, applied either explicitly or through an orthonormal basis.
//! * Least-squares unmixing solvers ([`lstsq`]): unconstrained (LS),
//!   sum-to-one constrained (SCLS), non-negativity constrained (NNLS,
//!   Lawson–Hanson) and fully constrained (FCLS) — the machinery behind
//!   UFCLS; the per-pixel form solves inside a reusable workspace, and
//!   the per-line form resumes each pixel's recorded active-set
//!   iteration when the endmember set has only grown.
//! * Streaming mean/covariance accumulation with mergeable partial sums
//!   ([`covariance`]) — the parallel covariance step of Hetero-PCT.
//!
//! The crate is dependency-free and deterministic: no randomised pivoting,
//! no platform-specific intrinsics, identical results on every host.
//!
//! ## Quick example
//!
//! ```
//! use hsi_linalg::{Matrix, lu::LuDecomposition};
//!
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
//! let lu = LuDecomposition::new(&a).unwrap();
//! let x = lu.solve(&[10.0, 9.0]).unwrap();
//! assert!((x[0] - 1.5).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cholesky;
pub mod covariance;
pub mod eigen;
pub mod error;
pub mod lstsq;
pub mod lu;
pub mod matrix;
pub mod ortho;

pub use error::LinAlgError;
pub use matrix::Matrix;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinAlgError>;
