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
//! no platform-specific intrinsics, identical results on every host and at
//! every ISA floor the workspace is built for ([`require_built_isa`]).
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
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

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

/// Exits with a sentence, instead of dying on an illegal instruction, when
/// this build's ISA floor is above what the running CPU offers.
///
/// `.cargo/config.toml` builds the workspace for `x86-64-v3` (docs/PERF.md,
/// "The ISA floor"). No float sum is re-associated or contracted at either
/// floor, so the rebuild the message names changes host time only. Every
/// binary calls this before its first kernel.
pub fn require_built_isa() {
    #[cfg(target_arch = "x86_64")]
    if cfg!(target_feature = "avx2") && !std::arch::is_x86_feature_detected!("avx2") {
        eprintln!(
            "error: built for x86-64-v3 but this CPU has no AVX2; rebuild with \
             `RUSTFLAGS='-C target-cpu=x86-64'` — results are bit-identical, only host time differs"
        );
        std::process::exit(2);
    }
}
