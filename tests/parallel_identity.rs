//! Property tests for the data-parallel kernel layer: every parallel
//! kernel must be **bit-identical** to its sequential scan for any
//! thread count, any cube geometry (hence any chunk-grid alignment),
//! and in particular on duplicate scores, where the documented
//! lowest-`(line, sample)` tie-break must survive parallel reduction.
//!
//! The chunk grid is fixed (`PAR_CHUNK_LINES` lines per chunk,
//! independent of worker count) and chunk results merge in index order,
//! so width-invariance plus a width-1 sequential reference pins the
//! exact scalar semantics.

use heterospec::cube::HyperCube;
use heterospec::hetero::kernels;
use heterospec::linalg::covariance::CovarianceAccumulator;
use heterospec::linalg::ortho::OrthoBasis;
use heterospec::linalg::Matrix;
use heterospec::morpho::cumdist::cumdist_map;
use heterospec::morpho::ops::{dilation, erosion};
use heterospec::morpho::StructuringElement;
use proptest::prelude::*;

/// Geometry ceilings: small enough to keep the suite fast, large enough
/// that cubes straddle chunk boundaries (`PAR_CHUNK_LINES` = 8) both
/// evenly and with ragged tails.
const MAX_LINES: usize = 21;
const MAX_SAMPLES: usize = 6;
const MAX_BANDS: usize = 5;
const MAX_VALS: usize = MAX_LINES * MAX_SAMPLES * MAX_BANDS;
/// The covariance property's band ceiling: two full 4 × 8 register
/// tiles of `Σxxᵀ` and a ragged third.
const MAX_COV_BANDS: usize = 19;
const MAX_COV_VALS: usize = MAX_LINES * MAX_SAMPLES * MAX_COV_BANDS;

/// Thread widths exercised against the width-1 reference: even, odd,
/// and oversubscribed relative to the chunk count.
const WIDTHS: [usize; 3] = [2, 3, 8];

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("test pool")
}

/// Builds a cube of the given geometry from a prefix of `vals`.
fn cube_from(vals: &[f32], lines: usize, samples: usize, bands: usize) -> HyperCube {
    HyperCube::from_vec(
        lines,
        samples,
        bands,
        vals[..lines * samples * bands].to_vec(),
    )
}

/// The accumulator's wire buffer as bits (`PartialEq` takes −0.0 for +0.0).
fn bits(acc: &CovarianceAccumulator) -> Vec<u64> {
    acc.to_flat().iter().map(|v| v.to_bits()).collect()
}

/// `covariance_partial` against per-sample pushes, one fresh
/// accumulator per chunk merged in chunk order, at widths 1 and 3:
/// dims below, at and past one 4 × 8 tile and the benchmark's 224;
/// chunks of 8 lines and 1 line of `samples` pixels each, across the
/// 64-pixel panel.
#[test]
fn covariance_partial_equals_per_sample_pushes_sweep() {
    let lines = kernels::PAR_CHUNK_LINES + 1;
    for dim in [1, 4, 5, 8, 9, 12, 13, 31, 224] {
        for samples in [0, 1, 63, 64, 65, 130] {
            let mut state = (dim * 1000 + samples) as u64;
            let data: Vec<f32> = (0..lines * samples * dim)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 40) as f32) / (1 << 24) as f32 - 0.5
                })
                .collect();
            let cube = HyperCube::from_vec(lines, samples, dim, data);
            let mut want = CovarianceAccumulator::new(dim);
            for (lo, hi) in [
                (0, kernels::PAR_CHUNK_LINES),
                (kernels::PAR_CHUNK_LINES, lines),
            ] {
                let mut chunk = CovarianceAccumulator::new(dim);
                for i in lo * samples..hi * samples {
                    chunk.push_f32(cube.pixel_flat(i));
                }
                want.merge(&chunk).unwrap();
            }
            for w in [1, 3] {
                let got = pool(w).install(|| kernels::covariance_partial(&cube, (0, lines)).0);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "dim {dim}, {samples} samples, width {w}"
                );
            }
        }
    }
}

/// The old way to the master's total: every chunk of a shard's fixed
/// grid summed by per-sample pushes into an accumulator of its own, the
/// later chunks merged into the first, and the shards merged in order
/// into a zeroed total (an empty shard as a zeroed accumulator).
fn merged_shard_by_shard(cube: &HyperCube, ranges: &[(usize, usize)]) -> CovarianceAccumulator {
    let (dim, samples) = (cube.bands(), cube.samples());
    let mut total = CovarianceAccumulator::new(dim);
    for &(lo, hi) in ranges {
        let mut shard: Option<CovarianceAccumulator> = None;
        for clo in (lo..hi).step_by(kernels::PAR_CHUNK_LINES) {
            let chi = (clo + kernels::PAR_CHUNK_LINES).min(hi);
            let mut chunk = CovarianceAccumulator::new(dim);
            for i in clo * samples..chi * samples {
                chunk.push_f32(cube.pixel_flat(i));
            }
            match &mut shard {
                Some(shard) => shard.merge(&chunk).unwrap(),
                None => shard = Some(chunk),
            }
        }
        let shard = shard.unwrap_or_else(|| CovarianceAccumulator::new(dim));
        total.merge(&shard).unwrap();
    }
    total
}

/// `covariance_of_shards` — each shard summed where the master merges
/// it, split by rows of `Σxxᵀ` over the pool — against the shard-by-shard
/// merge, bit for bit: one-line shards, uneven ranges of 3, 13 and 52
/// lines (ragged chunk tails of 5 and 4 lines), out of line order, an
/// empty range first and in between; at widths 1, 2, 3 and 8; dims
/// below, at and past one 4 × 8 tile and the benchmark's 224. Pixels
/// include `−0.0`, whose products a zeroed start turns into `+0.0`.
#[test]
fn covariance_of_shards_equals_the_shard_by_shard_merge_sweep() {
    let (lines, samples) = (68, 2);
    let one_line: Vec<_> = (0..lines).map(|l| (l, l + 1)).collect();
    let layouts: [&[(usize, usize)]; 4] = [
        &one_line,
        &[(0, 3), (3, 3), (3, 16), (16, 68)],
        &[(16, 68), (0, 3), (3, 16)],
        &[(5, 5), (0, 13), (13, 13), (13, 16)],
    ];
    for dim in [1, 4, 5, 8, 9, 12, 13, 31, 224] {
        let mut state = dim as u64;
        let data: Vec<f32> = (0..lines * samples * dim)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Thirds fill every mantissa bit at every exponent, so
                // sums round, and regrouping them moves bits.
                match state >> 60 {
                    0 => -0.0,
                    _ => (((state >> 40) as f32) / (1 << 24) as f32 - 0.5) / 3.0,
                }
            })
            .collect();
        let cube = HyperCube::from_vec(lines, samples, dim, data);
        for ranges in layouts {
            let want = bits(&merged_shard_by_shard(&cube, ranges));
            for w in [1, 2, 3, 8] {
                let got = pool(w).install(|| kernels::covariance_of_shards(&cube, ranges));
                assert_eq!(
                    bits(&got),
                    want,
                    "dim {dim}, {} shards, width {w}",
                    ranges.len()
                );
            }
        }
    }
}

/// Folds raw `(lo, span)` draws into a valid line sub-range of `lines`.
fn line_range(lines: usize, lo: usize, span: usize) -> (usize, usize) {
    let lo = lo % lines;
    let span = 1 + span % (lines - lo);
    (lo, lo + span)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The argmax scans (brightness, orthogonal projection) return the
    /// same winner — score *and* coordinates — at every width.
    #[test]
    fn argmax_kernels_width_invariant(
        vals in proptest::collection::vec(0.0f32..1.0, MAX_VALS),
        lines in 1usize..=MAX_LINES,
        samples in 1usize..=MAX_SAMPLES,
        bands in 2usize..=MAX_BANDS,
        lo in 0usize..MAX_LINES,
        span in 0usize..MAX_LINES,
    ) {
        let cube = cube_from(&vals, lines, samples, bands);
        let range = line_range(lines, lo, span);
        let mut basis = OrthoBasis::new(bands);
        let first: Vec<f64> = cube.pixel(0, 0).iter().map(|&v| v as f64).collect();
        basis.push(&first);
        let bright = pool(1).install(|| kernels::brightest(&cube, range).0);
        let proj = pool(1).install(|| kernels::max_projection(&cube, &basis, range).0);
        for w in WIDTHS {
            let p = pool(w);
            prop_assert_eq!(p.install(|| kernels::brightest(&cube, range).0), bright.clone());
            prop_assert_eq!(
                p.install(|| kernels::max_projection(&cube, &basis, range).0),
                proj.clone()
            );
        }
    }

    /// Duplicate scores: on a constant cube every pixel ties, so the
    /// winner must be the *first* pixel of the range in row-major order
    /// — at every width.
    #[test]
    fn argmax_tie_break_survives_parallelism(
        lines in 1usize..=MAX_LINES,
        samples in 1usize..=MAX_SAMPLES,
        bands in 2usize..=MAX_BANDS,
        lo in 0usize..MAX_LINES,
        span in 0usize..MAX_LINES,
        level in 0.1f32..1.0,
    ) {
        let cube = HyperCube::from_vec(
            lines, samples, bands, vec![level; lines * samples * bands]);
        let range = line_range(lines, lo, span);
        for w in [1, 2, 3, 8] {
            let best = pool(w)
                .install(|| kernels::brightest(&cube, range).0)
                .expect("non-empty range");
            prop_assert_eq!((best.line, best.sample), (range.0, 0), "width {}", w);
        }
    }

    /// The covariance path is bit-identical three ways: tiled panel
    /// update vs per-pixel scalar pushes, arbitrary pixel-boundary
    /// splits of the tiled update, and the chunk-parallel kernel across
    /// widths. Bands reach past two 4 × 8 tiles of `Σxxᵀ`, ragged in
    /// rows and columns.
    #[test]
    fn covariance_blocked_split_and_parallel_identical(
        vals in proptest::collection::vec(-1.0f32..1.0, MAX_COV_VALS),
        lines in 1usize..=MAX_LINES,
        samples in 1usize..=MAX_SAMPLES,
        bands in 2usize..=MAX_COV_BANDS,
        split in 0usize..MAX_COV_VALS,
    ) {
        let cube = cube_from(&vals, lines, samples, bands);
        let mut scalar = CovarianceAccumulator::new(bands);
        for i in 0..cube.num_pixels() {
            scalar.push_f32(cube.pixel_flat(i));
        }
        let mut blocked = CovarianceAccumulator::new(bands);
        blocked.push_pixels_f32(cube.as_slice());
        prop_assert_eq!(bits(&scalar), bits(&blocked));
        // Any pixel-boundary split feeds the same per-element
        // accumulation order, so halves == whole exactly.
        let cut = (split % (cube.num_pixels() + 1)) * bands;
        let mut halves = CovarianceAccumulator::new(bands);
        halves.push_pixels_f32(&cube.as_slice()[..cut]);
        halves.push_pixels_f32(&cube.as_slice()[cut..]);
        prop_assert_eq!(bits(&scalar), bits(&halves));
        // The chunk-parallel kernel regroups sums at chunk seams, but
        // the grid is width-independent: identical at every width.
        let reference = pool(1).install(|| kernels::covariance_partial(&cube, (0, lines)).0);
        for w in WIDTHS {
            let got = pool(w).install(|| kernels::covariance_partial(&cube, (0, lines)).0);
            prop_assert_eq!(bits(&got), bits(&reference), "width {}", w);
        }
    }

    /// The classification scans (PCT feature-space labels, full-space
    /// SAD labels) emit identical label vectors at every width.
    #[test]
    fn label_kernels_width_invariant(
        vals in proptest::collection::vec(0.01f32..1.0, MAX_VALS),
        lines in 1usize..=MAX_LINES,
        samples in 1usize..=MAX_SAMPLES,
        bands in 2usize..=MAX_BANDS,
        lo in 0usize..MAX_LINES,
        span in 0usize..MAX_LINES,
    ) {
        let cube = cube_from(&vals, lines, samples, bands);
        let range = line_range(lines, lo, span);
        let classes: Vec<Vec<f32>> = vec![
            cube.pixel(0, 0).to_vec(),
            cube.pixel(lines - 1, samples - 1).to_vec(),
        ];
        // A 2-component "transform": first two coordinate projections.
        let mut rows = vec![vec![0.0f64; bands]; 2];
        rows[0][0] = 1.0;
        rows[1][bands - 1] = 1.0;
        let transform = Matrix::from_rows(&[&rows[0], &rows[1]]);
        let mean = vec![0.5f64; bands];
        let reps: Vec<Vec<f64>> = vec![vec![0.1, 0.2], vec![0.4, 0.1]];
        let sad_ref = pool(1).install(|| kernels::sad_label(&cube, range, &classes).0);
        let pct_ref =
            pool(1).install(|| kernels::pct_label(&cube, range, &transform, &mean, &reps).0);
        for w in WIDTHS {
            let p = pool(w);
            prop_assert_eq!(
                p.install(|| kernels::sad_label(&cube, range, &classes).0),
                sad_ref.clone()
            );
            prop_assert_eq!(
                p.install(|| kernels::pct_label(&cube, range, &transform, &mean, &reps).0),
                pct_ref.clone()
            );
        }
    }

    /// Morphology — the cumulative-SAD map and both selections
    /// (including the sorted-offset tie-break on equal distances) — is
    /// width-invariant.
    #[test]
    fn morphology_width_invariant(
        vals in proptest::collection::vec(0.01f32..1.0, MAX_VALS),
        lines in 1usize..=MAX_LINES,
        samples in 1usize..=MAX_SAMPLES,
        bands in 2usize..=MAX_BANDS,
        radius in 1usize..=2,
    ) {
        let cube = cube_from(&vals, lines, samples, bands);
        let se = StructuringElement::square(radius);
        let map_ref = pool(1).install(|| cumdist_map(&cube, &se));
        let ero_ref = pool(1).install(|| erosion(&cube, &se));
        let dil_ref = pool(1).install(|| dilation(&cube, &se));
        for w in WIDTHS {
            let p = pool(w);
            prop_assert_eq!(p.install(|| cumdist_map(&cube, &se)), map_ref.clone());
            prop_assert_eq!(p.install(|| erosion(&cube, &se)), ero_ref.clone());
            prop_assert_eq!(p.install(|| dilation(&cube, &se)), dil_ref.clone());
        }
    }
}

/// A NaN score ranks below every number wherever its pixel falls — the
/// first pixel of the scan, of a kernel chunk, of a rank's partition:
/// the stateless kernel, `seq` and `par` on 16 ranks pick the same
/// targets, and none is a NaN pixel. (A NaN first in a scan range used
/// to win it, and the candidate fold took NaN for a tie.)
#[test]
fn a_nan_pixel_never_wins_wherever_it_falls() {
    use heterospec::hetero::wea::{apportion_rows, homo_fractions};
    use heterospec::hetero::{par, seq, AlgoParams, RunOptions};
    use heterospec::simnet::engine::Engine;
    use heterospec::simnet::presets;

    let mut cube = testutil::scene(256, 16, 32).cube;
    let platform = presets::thunderhead(16);
    // Homogeneous partitions: rank 5's first line is a rank boundary.
    let rows = apportion_rows(&homo_fractions(&platform), cube.lines());
    let boundary: usize = rows[..5].iter().sum();
    assert_eq!(boundary % kernels::PAR_CHUNK_LINES, 0);
    let nan_at = [(0, 0), (kernels::PAR_CHUNK_LINES, 0), (boundary, 0)];
    for &(line, sample) in &nan_at {
        cube.pixel_mut(line, sample)[3] = f32::NAN;
    }

    let (best, _) = kernels::brightest(&cube, (0, cube.lines()));
    let best = best.expect("a pixel");
    assert!(best.score.is_finite(), "{best:?}");
    let params = AlgoParams {
        num_targets: 6,
        ..AlgoParams::default()
    };
    let engine = Engine::new(platform);
    let coords = |targets: &[seq::DetectedTarget]| -> Vec<(usize, usize)> {
        targets.iter().map(|t| (t.line, t.sample)).collect()
    };
    for (name, sequential, parallel) in [
        (
            "ATDCA",
            seq::atdca(&cube, &params).result,
            par::atdca::run(&engine, &cube, &params, &RunOptions::homo()).result,
        ),
        (
            "UFCLS",
            seq::ufcls(&cube, &params).result,
            par::ufcls::run(&engine, &cube, &params, &RunOptions::homo()).result,
        ),
    ] {
        assert_eq!(coords(&parallel), coords(&sequential), "{name}");
        assert_eq!(coords(&sequential)[0], (best.line, best.sample), "{name}");
        for at in coords(&sequential) {
            assert!(!nan_at.contains(&at), "{name}: NaN pixel {at:?} won");
        }
    }
}
