//! Spectral similarity metrics.
//!
//! The paper's algorithms are built on two per-pixel reductions: the
//! **brightness** `xᵀx` (ATDCA step 2) and the **spectral angle distance**
//! (SAD, eq. 1), used by PCT and MORPH for spectral matching:
//!
//! ```text
//! SAD(x, y) = arccos( x·y / (‖x‖·‖y‖) )
//! ```
//!
//! SID (spectral information divergence) is provided as a secondary metric
//! for cross-checks; it treats normalised spectra as probability
//! distributions and sums the two relative entropies.
//!
//! All metrics take `f32` spectra (the cube's native type) and accumulate
//! in `f64`.
//!
//! A 224-band reduction on one accumulator waits out the add latency 224
//! times. [`dots`] runs several such sums **abreast** — one accumulator
//! each, every one still adding its own terms in band order, so each sum
//! has the bits it has alone — and [`sad_from_sums`] is the tail of
//! [`sad`] for a caller that already holds some of its three sums.

/// How many sums the per-pixel scans run abreast: enough independent
/// accumulators to cover the add latency, few enough to stay in registers.
const ABREAST: usize = 4;

/// Pixel brightness `xᵀx` (squared Euclidean norm).
#[inline]
pub fn brightness(x: &[f32]) -> f64 {
    x.iter().map(|&v| (v as f64) * (v as f64)).sum()
}

/// Dot product of two spectra in `f64`.
///
/// # Panics
/// Debug-asserts equal lengths.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(&a, &b)| (a as f64) * (b as f64))
        .sum()
}

/// Spectral angle distance in radians, in `[0, π]`.
///
/// Degenerate cases follow the hyperspectral convention: two zero spectra
/// are identical (`0`); one zero spectrum is maximally dissimilar (`π/2`).
///
/// ```
/// use hsi_cube::metrics::sad;
/// let a = [1.0f32, 0.0];
/// let b = [0.0f32, 1.0];
/// assert!((sad(&a, &b) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
/// assert!(sad(&a, &a) < 1e-9);
/// ```
#[inline]
pub fn sad(x: &[f32], y: &[f32]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let (mut xy, mut xx, mut yy) = (0.0f64, 0.0f64, 0.0f64);
    for (&a, &b) in x.iter().zip(y) {
        let (a, b) = (a as f64, b as f64);
        xy += a * b;
        xx += a * a;
        yy += b * b;
    }
    sad_from_sums(xy, xx, yy)
}

/// [`sad`] from its three band-order sums `x·y`, `‖x‖²` and `‖y‖²` (as
/// [`dots`] forms them), zero-spectrum conventions included. Symmetric to
/// the bit in `(xx, yy)`, as `x·y` is in `(x, y)`: one IEEE multiply
/// commutes.
#[inline]
pub fn sad_from_sums(xy: f64, xx: f64, yy: f64) -> f64 {
    if xx == 0.0 && yy == 0.0 {
        return 0.0;
    }
    if xx == 0.0 || yy == 0.0 {
        return std::f64::consts::FRAC_PI_2;
    }
    let c = (xy / (xx.sqrt() * yy.sqrt())).clamp(-1.0, 1.0);
    c.acos()
}

/// The `L` dot products `xs[k]·ys[k]`, summed abreast: each in band order
/// from zero on its own accumulator, so each is the sum [`sad`] forms for
/// that pair. Pass one spectrum `L` times to share its loads; pass the
/// same array twice for squared norms.
///
/// The products of a few bands are formed first (they are independent,
/// and exact in `f64`), then added in band order: the adds are the only
/// ordered part.
///
/// # Panics
/// Panics when a spectrum is shorter than `xs[0]`.
#[inline]
pub fn dots<const L: usize>(xs: [&[f32]; L], ys: [&[f32]; L]) -> [f64; L] {
    const BLOCK: usize = 4;
    let n = xs.first().map_or(0, |x| x.len());
    let (xs, ys) = (xs.map(|x| &x[..n]), ys.map(|y| &y[..n]));
    let mut sums = [0.0f64; L];
    let blocked = n - n % BLOCK;
    for at in (0..blocked).step_by(BLOCK) {
        let mut products = [[0.0f64; BLOCK]; L];
        for ((lane, x), y) in products.iter_mut().zip(&xs).zip(&ys) {
            let block = x[at..at + BLOCK].iter().zip(&y[at..at + BLOCK]);
            for (product, (&a, &b)) in lane.iter_mut().zip(block) {
                *product = a as f64 * b as f64;
            }
        }
        for band in 0..BLOCK {
            for (sum, lane) in sums.iter_mut().zip(&products) {
                *sum += lane[band];
            }
        }
    }
    for band in blocked..n {
        for ((sum, x), y) in sums.iter_mut().zip(&xs).zip(&ys) {
            *sum += x[band] as f64 * y[band] as f64;
        }
    }
    sums
}

/// `each(i, x·ys[i])` for every `i`, in order: [`dots`] over groups of
/// four spectra (the last group may be narrower) sharing `x`'s
/// loads.
pub fn dots_with(x: &[f32], ys: &[&[f32]], mut each: impl FnMut(usize, f64)) {
    for (g, group) in ys.chunks(ABREAST).enumerate() {
        let mut sums = [0.0f64; ABREAST];
        match *group {
            [a, b, c, d] => sums = dots([x; 4], [a, b, c, d]),
            [a, b, c] => sums[..3].copy_from_slice(&dots([x; 3], [a, b, c])),
            [a, b] => sums[..2].copy_from_slice(&dots([x; 2], [a, b])),
            [a] => sums[..1].copy_from_slice(&dots([x], [a])),
            _ => unreachable!("chunks of at most {ABREAST}"),
        }
        for (k, &sum) in sums[..group.len()].iter().enumerate() {
            each(g * ABREAST + k, sum);
        }
    }
}

/// `out[i] = x·y` for `(x, y) = pair(i)`, every `i` in `0..out.len()`:
/// [`dots`], four pairs at a time and the last few singly. Squared
/// norms are the pairs `(x, x)`.
pub fn dots_into<'a>(pair: impl Fn(usize) -> (&'a [f32], &'a [f32]), out: &mut [f64]) {
    let mut groups = out.chunks_exact_mut(ABREAST);
    let mut first = 0;
    for group in &mut groups {
        let pairs: [_; ABREAST] = std::array::from_fn(|k| pair(first + k));
        group.copy_from_slice(&dots(pairs.map(|(x, _)| x), pairs.map(|(_, y)| y)));
        first += ABREAST;
    }
    for (k, sum) in groups.into_remainder().iter_mut().enumerate() {
        let (x, y) = pair(first + k);
        [*sum] = dots([x], [y]);
    }
}

/// Euclidean distance between two spectra.
#[inline]
pub fn euclidean(x: &[f32], y: &[f32]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(&a, &b)| {
            let d = a as f64 - b as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Spectral information divergence (symmetric Kullback–Leibler sum over
/// the band-normalised spectra). Negative band values are clamped to zero
/// before normalisation; two spectra with zero mass are identical.
pub fn sid(x: &[f32], y: &[f32]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    const EPS: f64 = 1e-12;
    let sx: f64 = x.iter().map(|&v| (v as f64).max(0.0)).sum();
    let sy: f64 = y.iter().map(|&v| (v as f64).max(0.0)).sum();
    if sx <= 0.0 && sy <= 0.0 {
        return 0.0;
    }
    if sx <= 0.0 || sy <= 0.0 {
        return f64::INFINITY;
    }
    let mut div = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let p = ((a as f64).max(0.0) / sx) + EPS;
        let q = ((b as f64).max(0.0) / sy) + EPS;
        div += p * (p / q).ln() + q * (q / p).ln();
    }
    div.max(0.0)
}

/// A candidate set prepared for many [`SadCandidates::nearest`] queries:
/// the candidates' squared norms are formed once, not once per query.
#[derive(Debug, Clone)]
pub struct SadCandidates<'a> {
    spectra: Vec<&'a [f32]>,
    norms: Vec<f64>,
}

impl<'a> SadCandidates<'a> {
    /// Prepares `spectra` (equally long) as the candidates.
    pub fn new(spectra: &'a [Vec<f32>]) -> Self {
        let spectra: Vec<&[f32]> = spectra.iter().map(Vec::as_slice).collect();
        let mut norms = vec![0.0; spectra.len()];
        dots_into(|i| (spectra[i], spectra[i]), &mut norms);
        SadCandidates { spectra, norms }
    }

    /// Index of the candidate most similar (smallest SAD) to `x`; each
    /// distance is [`sad`]'s to the bit. Ties resolve to the lowest index.
    /// Returns `None` when there are no candidates.
    pub fn nearest(&self, x: &[f32]) -> Option<usize> {
        let [xx] = dots([x], [x]);
        let mut best: Option<(usize, f64)> = None;
        dots_with(x, &self.spectra, |i, xy| {
            let d = sad_from_sums(xy, xx, self.norms[i]);
            match best {
                Some((_, bd)) if d >= bd => {}
                _ => best = Some((i, d)),
            }
        });
        best.map(|(i, _)| i)
    }
}

/// Index of the entry of `candidates` most similar (smallest SAD) to `x`.
/// Ties resolve to the lowest index. Returns `None` when `candidates` is
/// empty. A loop over many `x` should build one [`SadCandidates`].
pub fn nearest_by_sad(x: &[f32], candidates: &[Vec<f32>]) -> Option<usize> {
    SadCandidates::new(candidates).nearest(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn brightness_is_squared_norm() {
        assert_eq!(brightness(&[3.0, 4.0]), 25.0);
        assert_eq!(brightness(&[]), 0.0);
    }

    #[test]
    fn sad_identical_spectra_zero() {
        let x = [0.2f32, 0.4, 0.8];
        assert!(sad(&x, &x) < 1e-7);
        // Scale invariance: SAD ignores magnitude.
        let y: Vec<f32> = x.iter().map(|v| v * 7.5).collect();
        assert!(sad(&x, &y) < 1e-6);
    }

    #[test]
    fn sad_orthogonal_is_half_pi() {
        let x = [1.0f32, 0.0];
        let y = [0.0f32, 1.0];
        assert!((sad(&x, &y) - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn sad_opposite_is_pi() {
        let x = [1.0f32, 2.0];
        let y = [-1.0f32, -2.0];
        assert!((sad(&x, &y) - PI).abs() < 1e-6);
    }

    #[test]
    fn sad_zero_vector_conventions() {
        let z = [0.0f32, 0.0];
        let x = [1.0f32, 1.0];
        assert_eq!(sad(&z, &z), 0.0);
        assert_eq!(sad(&z, &x), FRAC_PI_2);
        assert_eq!(sad(&x, &z), FRAC_PI_2);
    }

    #[test]
    fn sad_symmetry() {
        let x = [0.3f32, 0.9, 0.1];
        let y = [0.7f32, 0.2, 0.5];
        assert!((sad(&x, &y) - sad(&y, &x)).abs() < 1e-15);
    }

    #[test]
    fn euclidean_basic() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sid_properties() {
        let x = [0.2f32, 0.5, 0.3];
        let y = [0.3f32, 0.3, 0.4];
        assert!(sid(&x, &x) < 1e-9);
        assert!(sid(&x, &y) > 0.0);
        assert!((sid(&x, &y) - sid(&y, &x)).abs() < 1e-12);
        // Scale invariance.
        let y2: Vec<f32> = y.iter().map(|v| v * 3.0).collect();
        assert!((sid(&x, &y) - sid(&x, &y2)).abs() < 1e-6);
    }

    #[test]
    fn nearest_by_sad_picks_most_similar() {
        let cands = vec![vec![1.0f32, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        assert_eq!(nearest_by_sad(&[0.9, 0.05], &cands), Some(0));
        assert_eq!(nearest_by_sad(&[0.05, 0.9], &cands), Some(1));
        assert_eq!(nearest_by_sad(&[0.5, 0.5], &cands), Some(2));
        assert_eq!(nearest_by_sad(&[1.0, 0.0], &[]), None);
    }

    /// `sad` from separately formed sums: [`dots`] for the three of them.
    fn sad_split(x: &[f32], y: &[f32]) -> f64 {
        let [xy, xx, yy] = dots([x, x, y], [y, x, y]);
        sad_from_sums(xy, xx, yy)
    }

    /// The naive loop `nearest_by_sad` replaced: one `sad` per candidate.
    fn nearest_naive(x: &[f32], candidates: &[Vec<f32>]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in candidates.iter().enumerate() {
            let d = sad(x, c);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    }

    #[test]
    fn dots_into_and_dots_with_are_dots_one_at_a_time() {
        let spectra: Vec<Vec<f32>> = (0..11)
            .map(|i| {
                (0..9)
                    .map(|b| ((i * 7 + b * 3) % 13) as f32 * 0.1 - 0.4)
                    .collect()
            })
            .collect();
        let alone = |x: &[f32], y: &[f32]| dots([x], [y])[0].to_bits();
        for count in 0..=spectra.len() {
            let mut out = vec![0.0; count];
            dots_into(|i| (&spectra[i], &spectra[(i + 1) % 11]), &mut out);
            for (i, sum) in out.iter().enumerate() {
                assert_eq!(sum.to_bits(), alone(&spectra[i], &spectra[(i + 1) % 11]));
            }
            let ys: Vec<&[f32]> = spectra[..count].iter().map(Vec::as_slice).collect();
            let mut seen = 0;
            dots_with(&spectra[10], &ys, |i, sum| {
                assert_eq!((i, sum.to_bits()), (seen, alone(&spectra[10], ys[i])));
                seen += 1;
            });
            assert_eq!(seen, count);
        }
    }

    proptest::proptest! {
        /// The lemma the morphology pair table rests on: `sad` is symmetric
        /// to the bit, and is its three sums through `sad_from_sums`
        /// however those were formed — on zero, equal and negated spectra
        /// too.
        #[test]
        fn sad_is_symmetric_and_equals_its_split_form_to_the_bit(
            len in 1usize..=300,
            a in proptest::collection::vec(-1.0f32..1.0, 300),
            b in proptest::collection::vec(-1.0f32..1.0, 300),
        ) {
            let (x, y) = (&a[..len], &b[..len]);
            let zero = vec![0.0f32; len];
            let negated: Vec<f32> = x.iter().map(|v| -v).collect();
            for (p, q) in [(x, y), (x, x), (x, &negated[..]), (x, &zero[..]), (&zero[..], &zero[..])] {
                proptest::prop_assert_eq!(sad(p, q).to_bits(), sad(q, p).to_bits());
                proptest::prop_assert_eq!(sad_split(p, q).to_bits(), sad(p, q).to_bits());
                proptest::prop_assert_eq!(sad_split(q, p).to_bits(), sad(p, q).to_bits());
            }
        }

        #[test]
        fn nearest_by_sad_is_the_naive_loop(
            count in 0usize..=9,
            which_len in 0usize..3,
            duplicate in 0usize..9,
            values in proptest::collection::vec(-1.0f32..1.0, 10 * 224),
        ) {
            let len = [1, 7, 224][which_len];
            let x = &values[..len];
            let mut candidates: Vec<Vec<f32>> = (1..=count)
                .map(|i| values[i * 224..i * 224 + len].to_vec())
                .collect();
            // A tie: the same spectrum twice must resolve to the lower index.
            if count > 1 {
                candidates[count - 1] = candidates[duplicate % (count - 1)].clone();
            }
            proptest::prop_assert_eq!(nearest_by_sad(x, &candidates), nearest_naive(x, &candidates));
        }
    }

    #[test]
    fn sad_triangle_inequality_holds_on_samples() {
        // SAD is the geodesic distance on the sphere, so the triangle
        // inequality must hold for non-negative spectra.
        let a = [0.9f32, 0.1, 0.3];
        let b = [0.4f32, 0.6, 0.2];
        let c = [0.1f32, 0.8, 0.5];
        assert!(sad(&a, &c) <= sad(&a, &b) + sad(&b, &c) + 1e-12);
    }
}
