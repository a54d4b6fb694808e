//! The cumulative SAD distance `D_B` (paper eq. 2).
//!
//! `D_B(F(x,y)) = Σ_{(i,j) ∈ Z²(B)} SAD(F(x,y), F(i,j))` sums a pixel's
//! spectral angle to every pixel in its `B`-neighbourhood. A pixel that
//! resembles its neighbours — in AMEE's reading a *mixed* one, made of
//! the materials around it — has a small `D_B`; a pixel that stands out
//! from its neighbourhood, the spectrally *purest* one there, has a large
//! one. Erosion and dilation ([`crate::ops`]) order the neighbourhood by
//! this scalar.
//!
//! Out-of-image coordinates clamp to the border (edge replication).

use crate::se::StructuringElement;
use hsi_cube::metrics::{dots_into, dots_with, sad, sad_from_sums};
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

/// `D_B` at one pixel: the definition, one [`sad`] per offset. The map
/// builder below forms the same sums from shared parts; the tests hold it
/// to this function bit for bit.
pub fn cumdist_at(cube: &HyperCube, se: &StructuringElement, line: usize, sample: usize) -> f64 {
    let center = cube.pixel(line, sample);
    let mut sum = 0.0;
    for &(dl, ds) in se.offsets() {
        let (l, s) = clamped(cube, line, sample, dl, ds);
        sum += sad(center, cube.pixel(l, s));
    }
    sum
}

/// `D_B` for every pixel, as a row-major map.
///
/// This is the hot kernel of the MORPH family. The definition asks for
/// `|B|` SADs per pixel — `3·|B|` band sums — and that is what the
/// *virtual* clock is charged (`hetero_hsi::flops::mei_iteration`). The
/// *host* forms each sum once (`cumdist_map_of` below): one squared norm
/// per pixel and one dot and angle per unordered pixel pair within the
/// element's reach, `O(lines × samples × (1 + |B|/2) × bands)`. Line
/// chunks are computed in parallel (each value depends on the pixels
/// alone) and concatenated in line order, so the map is bit-identical to
/// a sequential scan for any thread count.
pub fn cumdist_map(cube: &HyperCube, se: &StructuringElement) -> Vec<f64> {
    let pixel = |l, s| cube.pixel(l, s);
    let norms = squared_norms(cube, pixel);
    cumdist_map_of(cube, pixel, &norms, se).0
}

/// `‖F(p)‖²` of every pixel of the image that has `shape`'s dimensions and
/// the spectra `pixel` hands out, row-major.
pub(crate) fn squared_norms<'a>(
    shape: &HyperCube,
    pixel: impl Fn(usize, usize) -> &'a [f32] + Sync,
) -> Vec<f64> {
    let samples = shape.samples();
    par_lines_flat_map(shape.lines(), |line, part: &mut Vec<f64>| {
        let at = part.len();
        part.resize(at + samples, 0.0);
        let own = |sample| (pixel(line, sample), pixel(line, sample));
        dots_into(own, &mut part[at..]);
    })
}

/// The lexicographically positive deltas `q − p` between a pixel `p` and
/// any neighbour `q` an offset of the element can reach from either end,
/// border clamping included: clamping shrinks an offset toward zero axis
/// by axis, so every shrunk offset counts, turned positive.
fn pair_deltas(se: &StructuringElement) -> Vec<(isize, isize)> {
    let toward_zero = |d: isize| if d < 0 { d..=0 } else { 0..=d };
    let mut deltas: Vec<(isize, isize)> = se
        .offsets()
        .iter()
        .flat_map(|&(dl, ds)| {
            toward_zero(dl).flat_map(move |l| toward_zero(ds).map(move |s| (l, s)))
        })
        .filter(|&d| d != (0, 0))
        .map(|(l, s)| if (l, s) < (0, 0) { (-l, -s) } else { (l, s) })
        .collect();
    deltas.sort_unstable();
    deltas.dedup();
    deltas
}

/// `SAD(F(p), F(q))` of every unordered pair of distinct pixels an offset
/// of the element joins, each formed once: kept at the lexicographically
/// smaller end, one entry per [`pair_deltas`] delta.
pub(crate) struct PairAngles<'n> {
    samples: usize,
    norms: &'n [f64],
    deltas: Vec<(isize, isize)>,
    /// `angles[p·|deltas| + k]` is `SAD(F(p), F(p + deltas[k]))`; entries
    /// whose far end lies outside the image are never read.
    angles: Vec<f64>,
}

impl PairAngles<'_> {
    /// The angle between the pixels at `a` and `b`, [`sad`]'s to the bit
    /// either way round — `SAD(x, x)` when they are one pixel; `None` for
    /// two pixels the element does not join.
    pub(crate) fn between(&self, a: (usize, usize), b: (usize, usize)) -> Option<f64> {
        let (near, far) = if a < b { (a, b) } else { (b, a) };
        let p = near.0 * self.samples + near.1;
        if near == far {
            let xx = self.norms[p];
            return Some(sad_from_sums(xx, xx, xx));
        }
        let delta = (
            far.0 as isize - near.0 as isize,
            far.1 as isize - near.1 as isize,
        );
        let slot = self.deltas.binary_search(&delta).ok()?;
        Some(self.angles[p * self.deltas.len() + slot])
    }
}

/// [`cumdist_map`] of an image given by `shape`'s dimensions, a pixel
/// lookup and the pixels' [`squared_norms`], so a caller whose image is a
/// rearrangement of a cube's pixels (MEI's propagated cube) need not
/// materialise it or re-sum its norms. Also returns the pair angles the
/// map was summed from.
///
/// `SAD(x, y)` is `x·y`, `‖x‖²` and `‖y‖²` through one tail
/// ([`sad_from_sums`]), and symmetric to the bit. So each pair's dot is
/// formed once — at the lexicographically smaller end, that end's loads
/// shared by several dots abreast ([`dots_with`]) — and turned into its
/// angle once. `D_B` then sums its SADs in `se.offsets()` order from
/// look-ups: `SAD(x, x)` when an offset clamps onto the pixel itself,
/// else the pair's angle from whichever end holds it. Every sum has the
/// operands and the order [`cumdist_at`] gives it.
pub(crate) fn cumdist_map_of<'a, 'n>(
    shape: &HyperCube,
    pixel: impl Fn(usize, usize) -> &'a [f32] + Sync,
    norms: &'n [f64],
    se: &StructuringElement,
) -> (Vec<f64>, PairAngles<'n>) {
    let (lines, samples) = (shape.lines(), shape.samples());
    assert_eq!(norms.len(), lines * samples, "cumdist: wrong norm count");
    let deltas = pair_deltas(se);
    let angles = par_lines_flat_map(lines, |line, part: &mut Vec<f64>| {
        let mut slots = Vec::with_capacity(deltas.len());
        let mut far = Vec::with_capacity(deltas.len());
        for sample in 0..samples {
            slots.clear();
            far.clear();
            for (k, &(dl, ds)) in deltas.iter().enumerate() {
                let l = line.checked_add_signed(dl).filter(|&l| l < lines);
                let s = sample.checked_add_signed(ds).filter(|&s| s < samples);
                if let (Some(l), Some(s)) = (l, s) {
                    slots.push((k, l * samples + s));
                    far.push(pixel(l, s));
                }
            }
            let (p, at) = (line * samples + sample, part.len());
            part.resize(at + deltas.len(), 0.0);
            dots_with(pixel(line, sample), &far, |i, xy| {
                let (k, q) = slots[i];
                part[at + k] = sad_from_sums(xy, norms[p], norms[q]);
            });
        }
    });
    let pairs = PairAngles {
        samples,
        norms,
        deltas,
        angles,
    };
    let dist = par_lines_flat_map(lines, |line, part: &mut Vec<f64>| {
        for sample in 0..samples {
            let mut sum = 0.0;
            for &(dl, ds) in se.offsets() {
                let q = clamped(shape, line, sample, dl, ds);
                sum += pairs
                    .between((line, sample), q)
                    .expect("pair_deltas covers every clamped offset");
            }
            part.push(sum);
        }
    });
    (dist, pairs)
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// The elements the map is pinned on: the paper's, a wider square, a
    /// thin one, a round one and one that is neither symmetric nor convex.
    pub(crate) fn elements() -> Vec<StructuringElement> {
        vec![
            StructuringElement::square(1),
            StructuringElement::square(2),
            StructuringElement::cross(2),
            StructuringElement::disk(2),
            StructuringElement::from_offsets(vec![(0, 1), (1, -1), (2, 0)]),
        ]
    }

    /// A textured cube (an LCG) with an all-zero pixel and a repeated one
    /// wherever the image is large enough to hold them.
    pub(crate) fn textured_cube(
        lines: usize,
        samples: usize,
        bands: usize,
        seed: u32,
    ) -> HyperCube {
        let mut state = seed;
        let data = (0..lines * samples * bands)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                0.05 + (state >> 8) as f32 / (1 << 24) as f32
            })
            .collect();
        let mut cube = HyperCube::from_vec(lines, samples, bands, data);
        if cube.num_pixels() > 3 {
            cube.pixel_mut(lines / 2, samples / 2).fill(0.0);
            let first = cube.pixel(0, 0).to_vec();
            cube.pixel_mut(lines - 1, samples - 1)
                .copy_from_slice(&first);
        }
        cube
    }

    fn assert_map_is_the_definition(cube: &HyperCube, se: &StructuringElement) {
        let map = cumdist_map(cube, se);
        assert_eq!(map.len(), cube.num_pixels());
        for (i, got) in map.iter().enumerate() {
            let (line, sample) = cube.coord_of(i);
            let want = cumdist_at(cube, se, line, sample);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{}x{} {:?} at ({line},{sample}): {got} vs {want}",
                cube.lines(),
                cube.samples(),
                se.offsets()
            );
        }
    }

    #[test]
    fn map_equals_definition_on_degenerate_geometry() {
        // 1×1, single rows and columns, and images smaller than every
        // element's radius: all clamping, hardly any interior.
        for (lines, samples) in [
            (1, 1),
            (1, 2),
            (2, 1),
            (1, 9),
            (9, 1),
            (2, 2),
            (2, 5),
            (3, 3),
        ] {
            for se in elements() {
                assert_map_is_the_definition(&textured_cube(lines, samples, 5, 7), &se);
            }
        }
    }

    #[test]
    fn pair_deltas_of_the_paper_element_are_its_positive_half() {
        let se = StructuringElement::square(1);
        assert_eq!(pair_deltas(&se), vec![(0, 1), (1, -1), (1, 0), (1, 1)]);
        // Clamping can shrink (1,-1) to (0,-1) and (2,0) to (1,0).
        let se = StructuringElement::from_offsets(vec![(0, 1), (1, -1), (2, 0)]);
        assert_eq!(pair_deltas(&se), vec![(0, 1), (1, -1), (1, 0), (2, 0)]);
    }

    #[test]
    fn thread_counts_give_one_map() {
        let pool = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool")
        };
        // 21 lines: three chunks of the fixed grid.
        let cube = textured_cube(21, 5, 6, 99);
        for se in elements() {
            let bits = |map: Vec<f64>| map.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let one = bits(pool(1).install(|| cumdist_map(&cube, &se)));
            for threads in [2, 3] {
                assert_eq!(bits(pool(threads).install(|| cumdist_map(&cube, &se))), one);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn map_equals_definition_on_random_geometry(
            lines in 1usize..12,
            samples in 1usize..8,
            bands in 1usize..9,
            seed in 0u32..u32::MAX,
            which in 0usize..5,
        ) {
            let se = &elements()[which];
            assert_map_is_the_definition(&textured_cube(lines, samples, bands, seed), se);
        }
    }
}
