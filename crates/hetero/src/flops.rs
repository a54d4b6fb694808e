//! Analytic kernel cost model (megaflops).
//!
//! Virtual compute time = megaflops × the processor's cycle-time. Every
//! kernel the algorithms execute has a documented flop-count formula
//! here, derived from its inner-loop structure; the same formulas govern
//! sequential baselines and parallel workers, so speedups are
//! self-consistent. Counts are *representative* (multiply-add = 2 flops,
//! transcendental ≈ 10), matching how the paper's cycle-times
//! (secs/megaflop) were themselves benchmarked.

/// Flops for one dot product of length `n` (mul + add per element).
#[inline]
pub fn dot(n: usize) -> f64 {
    2.0 * n as f64
}

/// Flops for one SAD evaluation over `n` bands: three interleaved dot
/// products plus `sqrt`, division and `acos` (≈ 10 flops of
/// transcendental work).
#[inline]
pub fn sad(n: usize) -> f64 {
    6.0 * n as f64 + 10.0
}

/// Flops for one brightness evaluation `xᵀx`.
#[inline]
pub fn brightness(n: usize) -> f64 {
    dot(n)
}

/// Flops to score one pixel against an orthonormal basis of size `k`
/// (`‖x‖² − Σ (qᵢᵀx)²`): `k + 1` dot products plus `k` multiply-adds.
#[inline]
pub fn projection_score(n: usize, k: usize) -> f64 {
    dot(n) * (k + 1) as f64 + 2.0 * k as f64
}

/// Flops to orthonormalise one new vector against `k` basis vectors
/// (two modified Gram–Schmidt passes + normalisation).
#[inline]
pub fn basis_push(n: usize, k: usize) -> f64 {
    2.0 * (k as f64) * (dot(n) + 2.0 * n as f64) + 3.0 * n as f64
}

/// Flops for one FCLS unmixing of a pixel against `t` endmembers over
/// `n` bands, modelled after the fast Gram-side implementation (Heinz &
/// Chang) the paper's runtimes imply: the correlation vector (`t` dots
/// of length `n`) plus the solve with cached factorisations (≈ `2t²`,
/// active-set iterations amortised). The residual uses the Pythagorean
/// identity on precomputed terms. Calibrated so UFCLS's total lands
/// just below ATDCA's, as in the paper's Table 3 (916 s vs 1263 s).
///
/// This is the *modelled* solver's cost, not a count of what the host
/// executes: `hsi_linalg::lstsq` runs an active-set NNLS per pixel (about
/// seven passive-set solves from the empty set, each re-factoring only
/// the changed rows; across UFCLS rounds it resumes the pixel's recorded
/// iteration at the step the new endmember first changes, or skips it)
/// and forms the residual vector explicitly.
#[inline]
pub fn fcls(n: usize, t: usize) -> f64 {
    let t_f = t as f64;
    t_f * dot(n) + 2.0 * t_f * t_f
}

/// Flops to accumulate one pixel into a mean/covariance accumulator:
/// the upper triangle of `xxᵀ` (`n(n+1)/2` multiply-adds) plus the sum.
#[inline]
pub fn covariance_accumulate(n: usize) -> f64 {
    (n * (n + 1)) as f64 + 2.0 * n as f64
}

/// Flops for the master's Jacobi eigendecomposition of an `n × n`
/// symmetric matrix (≈ 10 sweeps × n²/2 rotations × 12n updates).
///
/// This is the cost of the solver the *modelled 2006 master* runs, and
/// it is what the virtual clock charges. The host no longer runs that
/// solver: `hsi_linalg::eigen` is Householder + QL (≈ 9n³ flops), which
/// changes how long the simulation takes, not what it reports.
#[inline]
pub fn jacobi_eigen(n: usize) -> f64 {
    60.0 * (n as f64).powi(3)
}

/// Flops to PCT-transform one pixel into `c` components (`c` dots plus
/// the mean subtraction).
#[inline]
pub fn pct_transform(n: usize, c: usize) -> f64 {
    (c as f64) * dot(n) + n as f64
}

/// Flops to classify one `c`-dimensional transformed pixel against `p`
/// class representatives by SAD.
#[inline]
pub fn pct_classify(c: usize, p: usize) -> f64 {
    (p as f64) * sad(c)
}

/// Flops for one MEI iteration on a block of `pixels` pixels over `n`
/// bands with a structuring element of `se_len` offsets: two `D_B`
/// passes (`se_len` SADs per pixel each, for the erosion and dilation
/// rankings, as the paper's runtimes imply), the two extremum scans
/// (`2·se_len` compares) and the per-pixel erosion/dilation SAD.
/// Calibrated so MORPH is the most expensive algorithm, ≈ 1.9–2.3× the
/// ATDCA total, matching the paper's Tables 3–4 (2334 s vs 1263 s).
///
/// This is the *virtual* clock's charge — the modelled 2006 node
/// evaluates every SAD of the definition. The *host* does less
/// (`hsi_morpho::cumdist` forms one `D_B` map per iteration, from one
/// norm per pixel and one dot per unordered pixel pair); that moves
/// wall-clock only.
#[inline]
pub fn mei_iteration(pixels: usize, n: usize, se_len: usize) -> f64 {
    let per_pixel = 2.0 * (se_len as f64) * sad(n) + 2.0 * se_len as f64 + sad(n);
    per_pixel * pixels as f64
}

/// Flops to classify one pixel against `p` full-spectrum class
/// representatives by SAD (MORPH's final labelling step).
#[inline]
pub fn sad_classify(n: usize, p: usize) -> f64 {
    (p as f64) * sad(n)
}

/// Flops for greedily deduplicating `m` spectra against a growing unique
/// set bounded by `cap` (worst case `m × cap` SADs).
#[inline]
pub fn unique_set(n: usize, m: usize, cap: usize) -> f64 {
    (m as f64) * (cap as f64) * sad(n)
}

/// Flops to build the `t × t` endmember Gram matrix over `n` bands
/// (FCLS problem setup, once per UFCLS iteration).
#[inline]
pub fn gram(n: usize, t: usize) -> f64 {
    (t * t) as f64 * dot(n)
}

/// Converts flops to megaflops.
#[inline]
pub fn mflop(flops: f64) -> f64 {
    flops / 1.0e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_scale_linearly_in_bands() {
        assert_eq!(dot(224), 448.0);
        assert!(sad(224) > 3.0 * dot(224));
        assert_eq!(brightness(100), 200.0);
    }

    #[test]
    fn projection_grows_with_basis() {
        assert!(projection_score(224, 5) > projection_score(224, 1));
        // k = 0 is just the brightness dot.
        assert_eq!(projection_score(224, 0), dot(224));
    }

    #[test]
    fn fcls_grows_with_endmember_count() {
        let small = fcls(224, 2);
        let big = fcls(224, 8);
        assert!(big > 3.9 * small, "fcls should be ~linear in t");
        // The quadratic solve term is visible but not dominant at small t.
        assert!(fcls(224, 8) < 5.0 * small);
    }

    #[test]
    fn paper_sequential_cost_ordering() {
        // The paper's single-processor times order the algorithms as
        // UFCLS < ATDCA < PCT < MORPH (916 < 1263 < 1884 < 2334 s).
        // Check the per-pixel cost model reproduces that ordering for
        // the paper's parameters (t = 18, c = 7, 3x3 SE, 5 iterations).
        let n = 224;
        let atdca: f64 = (0..18).map(|k| projection_score(n, k)).sum();
        let ufcls: f64 = brightness(n) + (1..18).map(|t| fcls(n, t)).sum::<f64>();
        let pct =
            covariance_accumulate(n) + pct_transform(n, 7) + pct_classify(7, 7) + 28.0 * sad(n); // unique-set scan at cap = 4c
        let morph = mei_iteration(1, n, 9) * 5.0 + sad_classify(n, 7);
        assert!(ufcls < atdca, "UFCLS {ufcls} !< ATDCA {atdca}");
        assert!(atdca < pct, "ATDCA {atdca} !< PCT {pct}");
        assert!(pct < morph, "PCT {pct} !< MORPH {morph}");
    }

    #[test]
    fn mei_linear_in_pixels_and_se() {
        let base = mei_iteration(100, 64, 9);
        assert!((mei_iteration(200, 64, 9) - 2.0 * base).abs() < 1e-9);
        assert!(mei_iteration(100, 64, 25) > 2.0 * base);
    }

    #[test]
    fn mflop_conversion() {
        assert_eq!(mflop(2_000_000.0), 2.0);
    }

    #[test]
    fn eigen_is_master_scale_work() {
        // 224-band eigendecomposition ≈ 674 Gflop-ish? No: 60·224³ ≈ 674 Mflop.
        let f = jacobi_eigen(224);
        assert!(f > 5.0e8 && f < 1.0e9, "got {f}");
    }
}
