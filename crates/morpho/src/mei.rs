//! The morphological eccentricity index (MEI, paper eq. 5 / Algorithm 5
//! step 2).
//!
//! Per iteration `j = 1..I_max`:
//!
//! 1. compute the `D_B` map of the current cube `F`,
//! 2. at every pixel, let `e = (F ⊖ B)(x,y)` and `d = (F ⊕ B)(x,y)` (the
//!    most mixed and the purest neighbourhood representatives: minimum
//!    and maximum `D_B`) and update
//!    `MEI(x,y) ← max(MEI(x,y), SAD(F(e), F(d)))`,
//! 3. propagate: `F ← F ⊕ B` (held as a coordinate map into the input,
//!    since a dilation only moves pixels around).
//!
//! Following Plaza et al.'s AMEE formulation (the algorithm this paper's
//! MORPH classifier builds on), the score is credited to the
//! **dilation-selected pixel** — the spectrally purest representative of
//! its neighbourhood — not to the window centre: that is what makes the
//! top-MEI pixels good class-endmember candidates rather than mixed
//! boundary pixels. The max-update accumulates eccentricity across
//! spatial scales (one dilation per iteration widens the effective
//! neighbourhood by the SE radius). Pixels in uniform neighbourhoods
//! keep `MEI ≈ 0`.

use crate::cumdist::{cumdist_map_of, par_lines_flat_map, squared_norms};
use crate::ops::extremes_at;
use crate::se::StructuringElement;
use hsi_cube::metrics::{dots_into, sad_from_sums};
use hsi_cube::HyperCube;

/// Result of an MEI computation.
#[derive(Debug, Clone, PartialEq)]
pub struct MeiResult {
    /// Row-major MEI score per pixel.
    pub scores: Vec<f64>,
    lines: usize,
    samples: usize,
}

impl MeiResult {
    /// Score at `(line, sample)`.
    #[inline]
    pub fn at(&self, line: usize, sample: usize) -> f64 {
        self.scores[line * self.samples + sample]
    }

    /// Shape `(lines, samples)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.lines, self.samples)
    }

    /// The `k` pixels with the highest MEI scores, best first, with
    /// deterministic (row-major) tie-breaking. Returns fewer when the
    /// image has fewer pixels.
    pub fn top_k(&self, k: usize) -> Vec<(usize, usize, f64)> {
        let mut idx: Vec<usize> = (0..self.scores.len()).collect();
        idx.sort_by(|&a, &b| {
            self.scores[b]
                .partial_cmp(&self.scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx.into_iter()
            .take(k)
            .map(|i| (i / self.samples, i % self.samples, self.scores[i]))
            .collect()
    }
}

/// Computes the MEI map with `iterations` erosion/dilation rounds of the
/// structuring element `se`.
///
/// ```
/// use hsi_cube::HyperCube;
/// use hsi_morpho::{mei::mei, StructuringElement};
/// // A uniform image has zero eccentricity everywhere.
/// let cube = HyperCube::from_vec(4, 4, 2, vec![0.5; 32]);
/// let result = mei(&cube, &StructuringElement::square(1), 2);
/// assert!(result.scores.iter().all(|&v| v < 1e-6));
/// ```
///
/// # Panics
/// Panics when `iterations == 0`.
pub fn mei(cube: &HyperCube, se: &StructuringElement, iterations: usize) -> MeiResult {
    assert!(iterations > 0, "mei: need at least one iteration");
    let (lines, samples) = (cube.lines(), cube.samples());
    let mut scores = vec![0.0f64; cube.num_pixels()];
    // Dilation only ever copies pixels, so the propagated cube `F` is the
    // input seen through a coordinate map, `F(x,y) = cube(origin[x,y])`:
    // no iteration allocates anything cube-sized, and the squared norms
    // of `F`'s pixels are the input's, summed once.
    let mut origin: Vec<(usize, usize)> = (0..lines)
        .flat_map(|line| (0..samples).map(move |sample| (line, sample)))
        .collect();
    let flat = |(l, s): (usize, usize)| l * samples + s;
    let input_norms = squared_norms(cube, |l, s| cube.pixel(l, s));

    for it in 0..iterations {
        let current = |(l, s): (usize, usize)| {
            let (l, s) = origin[flat((l, s))];
            cube.pixel(l, s)
        };
        let norms: Vec<f64> = origin.iter().map(|&o| input_norms[flat(o)]).collect();
        let (dist, pairs) = cumdist_map_of(cube, |l, s| current((l, s)), &norms, se);
        // Per pixel, `d = (F ⊕ B)(x,y)` and SAD(F(e), F(d)): the map's own
        // angle when the element joins `e` and `d`; else from a dot formed
        // here — a line's worth several abreast — and the norms above.
        let picks = par_lines_flat_map(lines, |line, part: &mut Vec<((usize, usize), f64)>| {
            let at = part.len();
            let mut unjoined = Vec::new();
            for sample in 0..samples {
                let (e, d) = extremes_at(cube, se, &dist, line, sample);
                let joined = pairs.between(e, d);
                if joined.is_none() {
                    unjoined.push((sample, e));
                }
                part.push((d, joined.unwrap_or(0.0)));
            }
            let mut xy = vec![0.0f64; unjoined.len()];
            let spectra = |i: usize| {
                let (sample, e) = unjoined[i];
                (current(e), current(part[at + sample].0))
            };
            dots_into(spectra, &mut xy);
            for (&(sample, e), xy) in unjoined.iter().zip(xy) {
                let (d, angle) = &mut part[at + sample];
                *angle = sad_from_sums(xy, norms[flat(e)], norms[flat(*d)]);
            }
        });
        for &(d, v) in &picks {
            // Credit the score to the pure (dilation-selected) pixel.
            let slot = &mut scores[flat(d)];
            if v > *slot {
                *slot = v;
            }
        }
        // Propagate for the next scale (skip the final, unused dilation).
        if it + 1 < iterations {
            origin = picks.iter().map(|&(d, _)| origin[flat(d)]).collect();
        }
    }
    MeiResult {
        scores,
        lines,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 7x7, 2 bands, two homogeneous halves with a vertical boundary.
    fn two_region_cube() -> HyperCube {
        let mut c = HyperCube::zeros(7, 7, 2);
        for l in 0..7 {
            for s in 0..7 {
                let px = c.pixel_mut(l, s);
                if s < 4 {
                    px[0] = 1.0;
                    px[1] = 0.05;
                } else {
                    px[0] = 0.05;
                    px[1] = 1.0;
                }
            }
        }
        c
    }

    #[test]
    fn uniform_image_scores_zero() {
        let c = HyperCube::from_vec(5, 5, 3, vec![0.3; 75]);
        let r = mei(&c, &StructuringElement::square(1), 3);
        assert!(r.scores.iter().all(|&v| v < 1e-9));
    }

    #[test]
    fn boundary_pixels_score_high() {
        let c = two_region_cube();
        let r = mei(&c, &StructuringElement::square(1), 1);
        // Windows straddling the boundary credit their eccentricity to
        // the dilation-selected pure pixel: the column-3 pixels (last
        // pure-A column) receive SAD ≈ π/2 scores.
        assert!(r.at(3, 3) > 1.0, "boundary MEI too low: {}", r.at(3, 3));
        // Deep interior pixels see one class only.
        assert!(r.at(3, 0) < 1e-6, "interior MEI: {}", r.at(3, 0));
        assert!(r.at(3, 6) < 1e-6, "interior MEI: {}", r.at(3, 6));
    }

    #[test]
    fn more_iterations_extend_reach() {
        let c = two_region_cube();
        let one = mei(&c, &StructuringElement::square(1), 1);
        let three = mei(&c, &StructuringElement::square(1), 3);
        // Dilation shifts the boundary between iterations, so the pure
        // pixels of the *other* class (column 4) acquire scores only at
        // later scales.
        assert!(one.at(3, 4) < 1e-6, "got {}", one.at(3, 4));
        assert!(three.at(3, 4) > 1.0, "got {}", three.at(3, 4));
        // Scores never decrease with iterations (max-accumulated).
        for (a, b) in one.scores.iter().zip(&three.scores) {
            assert!(b + 1e-12 >= *a);
        }
    }

    #[test]
    fn top_k_orders_descending() {
        let c = two_region_cube();
        let r = mei(&c, &StructuringElement::square(1), 2);
        let top = r.top_k(5);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
        // Best pixels hug the boundary columns 3-4.
        assert!(top[0].1 == 3 || top[0].1 == 4);
    }

    #[test]
    fn top_k_truncates_at_pixel_count() {
        let c = HyperCube::from_vec(2, 2, 2, vec![0.1; 8]);
        let r = mei(&c, &StructuringElement::square(1), 1);
        assert_eq!(r.top_k(10).len(), 4);
    }

    #[test]
    fn coordinate_map_equals_materialised_propagation() {
        use crate::cumdist::cumdist_map;
        use crate::ops::{apply_selection, select_with_map, Extremum};
        use hsi_cube::metrics::sad;
        // Textured cube (an LCG), so selections differ pixel to pixel.
        let (lines, samples) = (9, 6);
        let cube = crate::cumdist::tests::textured_cube(lines, samples, 5, 12345);
        let iterations = 4;
        for se in crate::cumdist::tests::elements() {
            // The definition, with `F ← F ⊕ B` built as a cube each round.
            let mut scores = vec![0.0f64; cube.num_pixels()];
            let mut current = cube.clone();
            for _ in 0..iterations {
                let dist = cumdist_map(&current, &se);
                let ero = select_with_map(&current, &se, &dist, Extremum::Min);
                let dil = select_with_map(&current, &se, &dist, Extremum::Max);
                for line in 0..lines {
                    for sample in 0..samples {
                        let (el, es) = ero.at(line, sample);
                        let (dl, ds) = dil.at(line, sample);
                        let v = sad(current.pixel(el, es), current.pixel(dl, ds));
                        let slot = &mut scores[dl * samples + ds];
                        if v > *slot {
                            *slot = v;
                        }
                    }
                }
                current = apply_selection(&current, &dil);
            }

            let got = mei(&cube, &se, iterations);
            assert!(got.scores.iter().any(|&v| v > 0.0));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.scores), bits(&scores), "{:?}", se.offsets());
        }
    }

    #[test]
    fn deterministic() {
        let c = two_region_cube();
        let a = mei(&c, &StructuringElement::square(1), 3);
        let b = mei(&c, &StructuringElement::square(1), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn works_with_cross_and_disk_elements() {
        let c = two_region_cube();
        // All SE shapes run cleanly; the "fat" elements that see both
        // sides of the boundary must find strong eccentricity (a thin
        // cross on this axis-aligned boundary can tie-break to zero).
        for se in [StructuringElement::cross(1), StructuringElement::disk(2)] {
            let r = mei(&c, &se, 1);
            assert_eq!(r.shape(), (7, 7));
            assert!(r.scores.iter().all(|v| v.is_finite()));
        }
        // The square element sees both sides of the boundary at every
        // offset pattern and must find strong eccentricity (thin/round
        // elements can tie-break to zero on this noise-free toy).
        let r = mei(&c, &StructuringElement::square(2), 1);
        assert_eq!(r.shape(), (7, 7));
        assert!(r.scores.iter().any(|&v| v > 1.0));
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        mei(&two_region_cube(), &StructuringElement::square(1), 0);
    }
}
