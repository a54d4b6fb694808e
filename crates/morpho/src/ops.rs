//! Multichannel erosion and dilation (paper eqs. 3–4).
//!
//! Classical grayscale morphology ranks scalars; the multichannel
//! extension ranks pixel *vectors* by the cumulative SAD distance `D_B`:
//!
//! * erosion `(F ⊖ B)(x,y)` selects the neighbourhood pixel with the
//!   **minimum** `D_B` — the one most like its surroundings, in AMEE's
//!   reading the most highly *mixed*,
//! * dilation `(F ⊕ B)(x,y)` selects the **maximum** — the one that
//!   stands out most, the spectrally *purest* representative (the pixel
//!   [`crate::mei`] credits its score to).
//!
//! Both return, per output pixel, the *coordinates* of the selected input
//! pixel; [`apply_selection`] materialises the corresponding cube. Ties
//! break on the structuring element's sorted offset order, so results
//! are deterministic.
//!
//! The implementation builds the `D_B` map once and then ranks
//! neighbourhoods by table lookup — the standard factorisation. On the
//! *virtual* clock that map is `O(n·|B|)` SADs
//! (`hetero_hsi::flops::mei_iteration` charges the modelled node for
//! every one); the *host* builds it from one norm per pixel and one dot
//! per unordered pixel pair ([`crate::cumdist`]).

use crate::cumdist::{clamped, cumdist_map, par_lines_flat_map};
use crate::se::StructuringElement;
use hsi_cube::HyperCube;

/// Which extremum of `D_B` an operation selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extremum {
    /// Erosion: minimise `D_B` (most mixed neighbour).
    Min,
    /// Dilation: maximise `D_B` (purest neighbour).
    Max,
}

/// Per-pixel selected coordinates of a morphological operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// For each output pixel (row-major), the input coordinates chosen.
    pub coords: Vec<(usize, usize)>,
    lines: usize,
    samples: usize,
}

impl Selection {
    /// Selected input coordinates for output pixel `(line, sample)`.
    #[inline]
    pub fn at(&self, line: usize, sample: usize) -> (usize, usize) {
        self.coords[line * self.samples + sample]
    }

    /// Output dimensions `(lines, samples)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.lines, self.samples)
    }
}

/// Runs erosion or dilation given a precomputed `D_B` map.
///
/// Output pixels are independent, so line chunks run in parallel and
/// concatenate in line order: the selection (including the documented
/// sorted-offset tie-break, which is purely per-pixel) is bit-identical
/// to a sequential scan for any thread count.
pub fn select_with_map(
    cube: &HyperCube,
    se: &StructuringElement,
    dist: &[f64],
    which: Extremum,
) -> Selection {
    assert_eq!(dist.len(), cube.num_pixels(), "select: wrong map size");
    let samples = cube.samples();
    let coords = par_lines_flat_map(cube.lines(), |line, part| {
        part.extend((0..samples).map(|sample| {
            let (min, max) = extremes_at(cube, se, dist, line, sample);
            match which {
                Extremum::Min => min,
                Extremum::Max => max,
            }
        }));
    });
    Selection {
        coords,
        lines: cube.lines(),
        samples,
    }
}

/// The pixels of `(line, sample)`'s neighbourhood with the minimum and the
/// maximum `D_B` — what erosion and dilation select there — each the
/// first in offset order among equals.
pub(crate) fn extremes_at(
    cube: &HyperCube,
    se: &StructuringElement,
    dist: &[f64],
    line: usize,
    sample: usize,
) -> ((usize, usize), (usize, usize)) {
    let mut extremes: Option<[((usize, usize), f64); 2]> = None;
    for &(dl, ds) in se.offsets() {
        let (l, s) = clamped(cube, line, sample, dl, ds);
        let d = dist[l * cube.samples() + s];
        match &mut extremes {
            None => extremes = Some([((l, s), d); 2]),
            Some([min, max]) => {
                if d < min.1 {
                    *min = ((l, s), d);
                }
                if d > max.1 {
                    *max = ((l, s), d);
                }
            }
        }
    }
    let [min, max] = extremes.expect("SE is never empty");
    (min.0, max.0)
}

/// Multichannel erosion `(F ⊖ B)`: selected coordinates per pixel.
pub fn erosion(cube: &HyperCube, se: &StructuringElement) -> Selection {
    let map = cumdist_map(cube, se);
    select_with_map(cube, se, &map, Extremum::Min)
}

/// Multichannel dilation `(F ⊕ B)`: selected coordinates per pixel.
pub fn dilation(cube: &HyperCube, se: &StructuringElement) -> Selection {
    let map = cumdist_map(cube, se);
    select_with_map(cube, se, &map, Extremum::Max)
}

/// Materialises the cube `G` with `G(x,y) = F(selection.at(x,y))`
/// (gather parallelised over line chunks; pure copies, so the output is
/// exactly the sequential one).
pub fn apply_selection(cube: &HyperCube, sel: &Selection) -> HyperCube {
    assert_eq!(sel.shape(), (cube.lines(), cube.samples()));
    let data = par_lines_flat_map(cube.lines(), |line, part: &mut Vec<f32>| {
        for sample in 0..cube.samples() {
            let (l, s) = sel.at(line, sample);
            part.extend_from_slice(cube.pixel(l, s));
        }
    });
    HyperCube::from_vec(cube.lines(), cube.samples(), cube.bands(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 5x5, 2 bands: all pixels class A except a 1-pixel anomaly at (2,2).
    fn anomaly_cube() -> HyperCube {
        let mut c = HyperCube::zeros(5, 5, 2);
        for l in 0..5 {
            for s in 0..5 {
                let px = c.pixel_mut(l, s);
                px[0] = 1.0;
                px[1] = 0.1;
            }
        }
        let px = c.pixel_mut(2, 2);
        px[0] = 0.1;
        px[1] = 1.0;
        c
    }

    #[test]
    fn dilation_selects_the_anomaly() {
        // The anomaly has the largest D_B in every neighbourhood that
        // contains it: dilation must pick (2,2) for all its neighbours.
        let c = anomaly_cube();
        let se = StructuringElement::square(1);
        let dil = dilation(&c, &se);
        for l in 1..4 {
            for s in 1..4 {
                assert_eq!(dil.at(l, s), (2, 2), "at ({l},{s})");
            }
        }
    }

    #[test]
    fn erosion_avoids_the_anomaly() {
        let c = anomaly_cube();
        let se = StructuringElement::square(1);
        let ero = erosion(&c, &se);
        for l in 0..5 {
            for s in 0..5 {
                assert_ne!(ero.at(l, s), (2, 2), "erosion picked the anomaly");
            }
        }
    }

    #[test]
    fn constant_cube_selects_deterministically() {
        // All D_B equal: the first offset in sorted order wins, so the
        // result is reproducible.
        let c = HyperCube::from_vec(3, 3, 2, vec![0.5; 18]);
        let se = StructuringElement::square(1);
        let a = dilation(&c, &se);
        let b = dilation(&c, &se);
        assert_eq!(a, b);
    }

    #[test]
    fn apply_selection_materialises_vectors() {
        let c = anomaly_cube();
        let se = StructuringElement::square(1);
        let dil = dilation(&c, &se);
        let g = apply_selection(&c, &dil);
        // The anomaly's spectrum has spread to its 3x3 neighbourhood.
        for l in 1..4 {
            for s in 1..4 {
                assert_eq!(g.pixel(l, s), c.pixel(2, 2));
            }
        }
    }

    #[test]
    fn erosion_dilation_identity_on_constant() {
        let c = HyperCube::from_vec(4, 4, 3, vec![0.25; 48]);
        let se = StructuringElement::cross(1);
        let e = apply_selection(&c, &erosion(&c, &se));
        let d = apply_selection(&c, &dilation(&c, &se));
        assert_eq!(e, c);
        assert_eq!(d, c);
    }

    #[test]
    fn selection_shape_reported() {
        let c = anomaly_cube();
        let sel = erosion(&c, &StructuringElement::square(1));
        assert_eq!(sel.shape(), (5, 5));
    }

    #[test]
    #[should_panic(expected = "wrong map size")]
    fn wrong_map_size_panics() {
        let c = anomaly_cube();
        let se = StructuringElement::square(1);
        select_with_map(&c, &se, &[0.0; 3], Extremum::Min);
    }
}
