//! The cumulative SAD distance `D_B` (paper eq. 2).
//!
//! `D_B(F(x,y)) = Σ_{(i,j) ∈ Z²(B)} SAD(F(x,y), F(i,j))` sums a pixel's
//! spectral angle to every pixel in its `B`-neighbourhood. A spectrally
//! *pure* pixel surrounded by similar material has a small `D_B`; a mixed
//! pixel (straddling a material boundary) has a large one. Erosion and
//! dilation ([`crate::ops`]) order the neighbourhood by this scalar.
//!
//! Out-of-image coordinates clamp to the border (edge replication).

use crate::se::StructuringElement;
use hsi_cube::metrics::sad;
use hsi_cube::HyperCube;
use rayon::prelude::*;

/// Fixed line-chunk granularity of the parallel morphology kernels.
/// The grid depends only on the image height, never on the thread
/// count, and chunk results are concatenated in index order — so every
/// operation is bit-identical to its sequential scan.
pub(crate) const PAR_CHUNK_LINES: usize = 8;

/// Runs `per_line` over every line in fixed chunks (parallel across
/// chunks, sequential within), concatenating the per-line outputs in
/// line order.
pub(crate) fn par_lines_flat_map<T: Send>(
    lines: usize,
    per_line: impl Fn(usize, &mut Vec<T>) + Sync,
) -> Vec<T> {
    let chunks: Vec<Vec<T>> = (0..lines.div_ceil(PAR_CHUNK_LINES))
        .into_par_iter()
        .map(|c| {
            let lo = c * PAR_CHUNK_LINES;
            let hi = (lo + PAR_CHUNK_LINES).min(lines);
            let mut part = Vec::new();
            for line in lo..hi {
                per_line(line, &mut part);
            }
            part
        })
        .collect();
    chunks.into_iter().flatten().collect()
}

/// Clamps `(line, sample)` + offset to the image, returning valid
/// coordinates under edge replication.
#[inline]
pub fn clamped(
    cube: &HyperCube,
    line: usize,
    sample: usize,
    dl: isize,
    ds: isize,
) -> (usize, usize) {
    let l = (line as isize + dl).clamp(0, cube.lines() as isize - 1) as usize;
    let s = (sample as isize + ds).clamp(0, cube.samples() as isize - 1) as usize;
    (l, s)
}

/// `D_B` at one pixel.
pub fn cumdist_at(cube: &HyperCube, se: &StructuringElement, line: usize, sample: usize) -> f64 {
    cumdist_at_of(cube, &|l, s| cube.pixel(l, s), se, line, sample)
}

/// `D_B` at one pixel of the image that has `shape`'s dimensions and the
/// spectra `pixel` hands out.
fn cumdist_at_of<'a>(
    shape: &HyperCube,
    pixel: &impl Fn(usize, usize) -> &'a [f32],
    se: &StructuringElement,
    line: usize,
    sample: usize,
) -> f64 {
    let center = pixel(line, sample);
    let mut sum = 0.0;
    for &(dl, ds) in se.offsets() {
        let (l, s) = clamped(shape, line, sample, dl, ds);
        sum += sad(center, pixel(l, s));
    }
    sum
}

/// `D_B` for every pixel, as a row-major map.
///
/// This is the hot kernel of the MORPH family: `|B|` SAD evaluations per
/// pixel. Complexity `O(lines × samples × |B| × bands)`. Line chunks are
/// computed in parallel (each pixel's `D_B` is independent) and
/// concatenated in line order, so the map is bit-identical to a
/// sequential scan for any thread count.
pub fn cumdist_map(cube: &HyperCube, se: &StructuringElement) -> Vec<f64> {
    cumdist_map_of(cube, |l, s| cube.pixel(l, s), se)
}

/// [`cumdist_map`] of an image given by `shape`'s dimensions and a pixel
/// lookup, so a caller whose image is a rearrangement of a cube's pixels
/// (MEI's propagated cube) need not materialise it.
pub(crate) fn cumdist_map_of<'a>(
    shape: &HyperCube,
    pixel: impl Fn(usize, usize) -> &'a [f32] + Sync,
    se: &StructuringElement,
) -> Vec<f64> {
    par_lines_flat_map(shape.lines(), |line, part| {
        for sample in 0..shape.samples() {
            part.push(cumdist_at_of(shape, &pixel, se, line, sample));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4x4, 2 bands: left half points one way, right half another.
    fn split_cube() -> HyperCube {
        let mut c = HyperCube::zeros(4, 4, 2);
        for l in 0..4 {
            for s in 0..4 {
                let px = c.pixel_mut(l, s);
                if s < 2 {
                    px[0] = 1.0;
                    px[1] = 0.0;
                } else {
                    px[0] = 0.0;
                    px[1] = 1.0;
                }
            }
        }
        c
    }

    #[test]
    fn constant_cube_has_zero_cumdist() {
        let c = HyperCube::from_vec(3, 3, 2, vec![0.5; 18]);
        let se = StructuringElement::square(1);
        let map = cumdist_map(&c, &se);
        assert!(map.iter().all(|&v| v < 1e-6));
    }

    #[test]
    fn boundary_pixels_score_higher() {
        let c = split_cube();
        let se = StructuringElement::square(1);
        let map = cumdist_map(&c, &se);
        let at = |l: usize, s: usize| map[l * 4 + s];
        // Column 1 touches the boundary; column 0 is interior-left.
        assert!(at(1, 1) > at(1, 0));
        // Symmetric on the right side.
        assert!(at(1, 2) > at(1, 3));
    }

    #[test]
    fn clamping_replicates_edges() {
        let c = split_cube();
        assert_eq!(clamped(&c, 0, 0, -1, -1), (0, 0));
        assert_eq!(clamped(&c, 3, 3, 2, 2), (3, 3));
        assert_eq!(clamped(&c, 1, 1, 1, 0), (2, 1));
    }

    #[test]
    fn cumdist_at_matches_manual_sum() {
        let c = split_cube();
        let se = StructuringElement::cross(1);
        // Pixel (1,1): neighbours (0,1),(2,1),(1,0) same class (SAD 0),
        // (1,2) orthogonal (SAD π/2), self 0.
        let d = cumdist_at(&c, &se, 1, 1);
        assert!((d - std::f64::consts::FRAC_PI_2).abs() < 1e-9, "{d}");
    }

    #[test]
    fn map_has_one_entry_per_pixel() {
        let c = split_cube();
        let se = StructuringElement::square(1);
        assert_eq!(cumdist_map(&c, &se).len(), 16);
    }
}
