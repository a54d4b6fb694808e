//! Virtual dimensionality (VD) estimation.
//!
//! The paper sets the number of targets to `t = 18` "after calculating
//! the intrinsic dimensionality of the data" (citing Chang's
//! monograph). The standard estimator is Harsanyi–Farrand–Chang (HFC):
//! compare the eigenvalues of the sample **correlation** matrix
//! `R = E[xxᵀ]` with those of the **covariance** matrix
//! `K = R − mmᵀ`. A spectral dimension carries signal when the
//! correlation eigenvalue exceeds the covariance eigenvalue by more
//! than the noise allows — under pure noise the two spectra coincide,
//! while every deterministic endmember contributes mean energy that
//! appears in `R` but not in `K`.
//!
//! The Neyman–Pearson test at false-alarm probability `P_f` declares
//! dimension `i` signal-bearing when
//! `λ_R(i) − λ_K(i) > σ_i · z(P_f)`, with the variance of the
//! eigenvalue difference approximated (as in HFC) by
//! `σ_i² ≈ (2/N)(λ_R(i)² + λ_K(i)²)`.

use hsi_cube::HyperCube;
use hsi_linalg::covariance::CovarianceAccumulator;
use hsi_linalg::eigen::SymmetricEigen;
use hsi_linalg::Matrix;

/// Result of a VD estimation.
#[derive(Debug, Clone)]
pub struct VdEstimate {
    /// The estimated number of spectrally distinct signal sources.
    pub dimension: usize,
    /// Per-band eigenvalues of the correlation matrix (descending).
    pub corr_eigenvalues: Vec<f64>,
    /// Per-band eigenvalues of the covariance matrix (descending).
    pub cov_eigenvalues: Vec<f64>,
}

/// Standard-normal quantile via the Acklam rational approximation
/// (|error| < 1.2e-9; ample for HFC thresholds).
fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e1,
        2.209460984245205e2,
        -2.759285104469687e2,
        1.383_577_518_672_69e2,
        -3.066479806614716e1,
        2.506628277459239,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e1,
        1.615858368580409e2,
        -1.556989798598866e2,
        6.680131188771972e1,
        -1.328068155288572e1,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-3,
        -3.223964580411365e-1,
        -2.400758277161838,
        -2.549732539343734,
        4.374664141464968,
        2.938163982698783,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-3,
        3.224671290700398e-1,
        2.445134137142996,
        3.754408661907416,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// The eigendecompositions of the sample correlation `R` and covariance
/// `K` of a non-empty `cube`, from one pass of the mean and covariance
/// sums (`R = K + m mᵀ`).
fn spectra(cube: &HyperCube) -> (SymmetricEigen, SymmetricEigen) {
    let n = cube.bands();
    let mut acc = CovarianceAccumulator::new(n);
    acc.push_pixels_f32(cube.as_slice());
    let mean = acc.mean().expect("non-empty");
    let cov = acc.covariance().expect("non-empty");
    let mut corr = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            corr[(i, j)] = cov[(i, j)] + mean[i] * mean[j];
        }
    }
    let e_corr = SymmetricEigen::consume(corr).expect("corr eigen");
    let e_cov = SymmetricEigen::consume(cov).expect("cov eigen");
    (e_corr, e_cov)
}

/// Estimates the virtual dimensionality of a cube with the HFC method
/// at false-alarm probability `p_fa` (the customary values are 1e-3 to
/// 1e-5; the paper's `t = 18` corresponds to ~1e-3 on its scene).
///
/// # Panics
/// Panics on an empty cube or `p_fa` outside `(0, 1)`.
pub fn hfc(cube: &HyperCube, p_fa: f64) -> VdEstimate {
    assert!(cube.num_pixels() > 0, "hfc: empty cube");
    let n = cube.bands();
    let samples = cube.num_pixels() as f64;
    let (e_corr, e_cov) = spectra(cube);
    let z = -normal_quantile(p_fa); // threshold multiplier > 0

    let mut dimension = 0;
    for i in 0..n {
        let lr = e_corr.eigenvalues[i].max(0.0);
        let lk = e_cov.eigenvalues[i].max(0.0);
        let sigma = ((2.0 / samples) * (lr * lr + lk * lk)).sqrt();
        if lr - lk > z * sigma {
            dimension += 1;
        }
    }
    VdEstimate {
        dimension,
        corr_eigenvalues: e_corr.eigenvalues,
        cov_eigenvalues: e_cov.eigenvalues,
    }
}

/// Noise-floor VD estimator: counts covariance eigenvalues exceeding
/// `factor ×` the estimated noise level, where the noise level is the
/// median of the lower half of the eigenvalue spectrum (under the usual
/// assumption that most spectral dimensions are noise-only). More
/// liberal than HFC — closer to how practitioners eyeball a scree plot
/// — and the estimator whose output matches the material count of the
/// synthetic scenes.
pub fn noise_floor(cube: &HyperCube, factor: f64) -> VdEstimate {
    assert!(cube.num_pixels() > 0, "noise_floor: empty cube");
    let n = cube.bands();
    let (e_corr, e_cov) = spectra(cube);
    // Median of the lower half as the noise level.
    let tail = &e_cov.eigenvalues[n / 2..];
    let mut sorted: Vec<f64> = tail.iter().map(|l| l.max(0.0)).collect();
    sorted.sort_by(f64::total_cmp);
    let noise = sorted[sorted.len() / 2].max(1e-300);
    let dimension = e_cov
        .eigenvalues
        .iter()
        .filter(|&&l| l > factor * noise)
        .count();
    VdEstimate {
        dimension,
        corr_eigenvalues: e_corr.eigenvalues,
        cov_eigenvalues: e_cov.eigenvalues,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi_cube::synth::{wtc_scene, WtcConfig};

    #[test]
    fn quantile_matches_known_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.001) + 3.090232).abs() < 1e-4);
        // Symmetry.
        assert!((normal_quantile(0.01) + normal_quantile(0.99)).abs() < 1e-9);
    }

    #[test]
    fn pure_noise_has_low_dimension() {
        // A cube of i.i.d. noise around a constant: one mean direction,
        // nothing else.
        let mut cube = HyperCube::zeros(24, 24, 16);
        let mut state = 7u64;
        for v in cube.as_mut_slice() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v = 0.5 + 1e-3 * (((state >> 33) as f32) / (u32::MAX as f32) - 0.5);
        }
        let est = hfc(&cube, 1e-3);
        assert!(est.dimension <= 2, "noise VD = {}", est.dimension);
    }

    #[test]
    fn wtc_scene_dimensions() {
        let s = wtc_scene(WtcConfig {
            lines: 96,
            samples: 64,
            bands: 96,
            ..Default::default()
        });
        // HFC is conservative (it tests mean-energy only, and single-
        // pixel thermal targets are invisible to global second-order
        // statistics) but must find several signal dimensions.
        let est = hfc(&s.cube, 1e-3);
        assert!(
            (2..=24).contains(&est.dimension),
            "HFC VD = {}",
            est.dimension
        );
        // The noise-floor estimator should land near the material count
        // (11 materials; the paper's t = 18 includes thermal sources).
        let nf = noise_floor(&s.cube, 20.0);
        assert!(
            (6..=24).contains(&nf.dimension),
            "noise-floor VD = {}",
            nf.dimension
        );
    }

    #[test]
    fn more_materials_more_dimension() {
        use hsi_cube::synth::materials;
        use hsi_cube::synth::scene::SceneBuilder;
        let few = SceneBuilder::new(48, 48, 64)
            .seed(3)
            .materials(materials::full_library().into_iter().take(3).collect())
            .build();
        let many = SceneBuilder::new(48, 48, 64)
            .seed(3)
            .materials(materials::full_library())
            .build();
        let vd_few = noise_floor(&few.cube, 20.0).dimension;
        let vd_many = noise_floor(&many.cube, 20.0).dimension;
        assert!(
            vd_many > vd_few,
            "11 materials (VD {vd_many}) vs 3 (VD {vd_few})"
        );
    }

    #[test]
    fn eigen_spectra_are_descending() {
        let s = wtc_scene(WtcConfig::tiny());
        let est = hfc(&s.cube, 1e-4);
        for w in est.corr_eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        // Correlation eigenvalues dominate covariance eigenvalues in
        // the leading (signal) dimensions.
        assert!(est.corr_eigenvalues[0] > est.cov_eigenvalues[0]);
    }
}
