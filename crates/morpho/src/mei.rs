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
//! **Who owns the memo.** Because `F` is always the input rearranged,
//! every SAD of every scale is an angle between two *input* pixels. One
//! [`mei`] call owns one pair memo (`cumdist::PairMemo`) for all its
//! scales — `D_B`'s neighbour pairs and the erosion–dilation pair of
//! step 2 alike — so a pair is measured by the first question that meets
//! it: ≈ a quarter of the dots of measuring per scale at `I_max = 5`
//! (`docs/PERF.md`, "Memos keyed by the data"). The virtual clock is
//! charged the definition's `|B|` SADs per pixel and scale regardless.
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

use crate::cumdist::{cumdist_map_of, identity, par_lines_flat_map, PairMemo};
use crate::ops::extremes_at;
use crate::se::StructuringElement;
use hsi_cube::HyperCube;

/// Result of an MEI computation.
#[derive(Debug, Clone, PartialEq)]
pub struct MeiResult {
    /// Row-major MEI score per pixel.
    pub scores: Vec<f64>,
    lines: usize,
    samples: usize,
    dots: (usize, usize),
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

    /// How many band-length dot products the host formed between
    /// different input pixels, all scales together: `(for D_B's
    /// neighbour pairs, for erosion–dilation pairs no earlier question
    /// had answered)`. A tally of host work, not of the charged cost:
    /// each unordered pair of input pixels is measured once per call.
    pub fn dots_formed(&self) -> (usize, usize) {
        self.dots
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
    // no iteration allocates anything cube-sized, and every angle any
    // scale asks for is an angle between two input pixels — this call's
    // memo keeps them, so a pair is measured by the first scale that
    // meets it and by none after.
    let mut origin = identity(cube);
    let mut memo = PairMemo::new(cube, se);
    let flat = |(l, s): (usize, usize)| l * samples + s;
    let mut extreme_dots = 0;

    for it in 0..iterations {
        let dist = cumdist_map_of(&mut memo, &origin, se);
        let for_the_map = memo.dots();
        // Per pixel, `e = (F ⊖ B)(x,y)` and `d = (F ⊕ B)(x,y)`…
        let picks = par_lines_flat_map(lines, |line, part| {
            part.extend((0..samples).map(|sample| extremes_at(cube, se, &dist, line, sample)));
        });
        // …and SAD(F(e), F(d)), asked of the same memo: the map has met
        // the pair already when the element joins `e` and `d`.
        let slots: Vec<u32> = picks
            .iter()
            .map(|&(e, d)| memo.slot(origin[flat(e)], origin[flat(d)]))
            .collect();
        memo.measure();
        extreme_dots += memo.dots() - for_the_map;
        for (&(_, d), slot) in picks.iter().zip(slots) {
            // Credit the score to the pure (dilation-selected) pixel.
            let (v, held) = (memo.angle(slot), &mut scores[flat(d)]);
            if v > *held {
                *held = v;
            }
        }
        // Propagate for the next scale (skip the final, unused dilation).
        if it + 1 < iterations {
            origin = picks.iter().map(|&(_, d)| origin[flat(d)]).collect();
        }
    }
    MeiResult {
        scores,
        lines,
        samples,
        dots: (memo.dots() - extreme_dots, extreme_dots),
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

    /// MEI as the paper writes it: every scale's `D_B` from the definition
    /// ([`cumdist_at`], one SAD per offset), erosion and dilation picked
    /// from that map, one SAD per pixel, and `F ← F ⊕ B` built as a cube.
    fn mei_by_the_definition(
        cube: &HyperCube,
        se: &StructuringElement,
        iterations: usize,
    ) -> Vec<f64> {
        use crate::cumdist::cumdist_at;
        use crate::ops::{apply_selection, select_with_map, Extremum};
        use hsi_cube::metrics::sad;
        let samples = cube.samples();
        let mut scores = vec![0.0f64; cube.num_pixels()];
        let mut current = cube.clone();
        for _ in 0..iterations {
            let dist: Vec<f64> = (0..cube.num_pixels())
                .map(|i| cumdist_at(&current, se, i / samples, i % samples))
                .collect();
            let ero = select_with_map(&current, se, &dist, Extremum::Min);
            let dil = select_with_map(&current, se, &dist, Extremum::Max);
            for (&(el, es), &(dl, ds)) in ero.coords.iter().zip(&dil.coords) {
                let v = sad(current.pixel(el, es), current.pixel(dl, ds));
                let slot = &mut scores[dl * samples + ds];
                if v > *slot {
                    *slot = v;
                }
            }
            current = apply_selection(&current, &dil);
        }
        scores
    }

    /// The memo hands every scale the angles the definition forms afresh:
    /// same bits on every pinned element, the all-zero and the repeated
    /// pixel of the textured cube included, for any pool width.
    #[test]
    fn memoised_scales_equal_the_per_scale_definition() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // 21 lines: three chunks of the fixed grid.
        for (lines, samples, iterations) in [(9, 6, 4), (21, 5, 3), (2, 2, 5), (1, 7, 2)] {
            let cube = crate::cumdist::tests::textured_cube(lines, samples, 5, 12345);
            for se in crate::cumdist::tests::elements() {
                let want = mei_by_the_definition(&cube, &se, iterations);
                for width in [1, 2, 5] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(width)
                        .build()
                        .expect("pool");
                    let got = pool.install(|| mei(&cube, &se, iterations));
                    assert_eq!(
                        bits(&got.scores),
                        bits(&want),
                        "{lines}x{samples} {:?} on {width} threads",
                        se.offsets()
                    );
                }
            }
        }
    }

    /// One dot per unordered pair of different input pixels, whichever
    /// scale meets it first: a second scale over an unchanged image asks
    /// again and forms nothing.
    #[test]
    fn a_pair_of_input_pixels_is_measured_once() {
        let cube = crate::cumdist::tests::textured_cube(6, 5, 4, 99);
        let se = StructuringElement::square(1);
        // 3×3 on 6×5: 6·4 + 5·5 + 2·5·4 neighbour pairs.
        let scale_0 = 6 * 4 + 5 * 5 + 2 * 5 * 4;
        assert_eq!(mei(&cube, &se, 1).dots_formed().0, scale_0);
        let five = mei(&cube, &se, 5).dots_formed().0;
        assert!((scale_0..2 * scale_0).contains(&five), "{five}");
        // A constant image: every pick is a neighbour of its window, and
        // the first scale measured every pair of neighbours.
        let flat = HyperCube::from_vec(6, 5, 4, vec![0.5; 120]);
        assert_eq!(mei(&flat, &se, 5).dots_formed(), (scale_0, 0));
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
