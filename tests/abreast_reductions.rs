//! Abreast reductions: the scan kernels run the per-pixel band sums of a
//! line four pixels (or four candidates) at a time, one accumulator each,
//! with a scalar tail, `pct_label` a pixel's projections eight rows at a
//! time, and the master's unique-set merge four representatives at a
//! time from norms formed once. The contract is **bit identity** with the
//! one-at-a-time definitions — `OrthoBasis::complement_score`,
//! `FclsProblem::solve_f32`, `metrics::sad`, `Matrix::matvec` — for every
//! line width around the lane count, through every state a carry can be
//! in, and for a pixel whose solve fails next to three that do not.
//!
//! Run in release too (CI's solver smoke step): optimised codegen is
//! where an interleave could be mis-vectorised.

use heterospec::cube::metrics::sad;
use heterospec::cube::HyperCube;
use heterospec::hetero::flops;
use heterospec::hetero::kernels::{self, FclsCarry, ProjectionCarry, ScoredPixel};
use heterospec::hetero::seq::reduce_candidates;
use heterospec::linalg::lstsq::{FclsProblem, FclsWorkspace, NnlsTrails};
use heterospec::linalg::ortho::OrthoBasis;
use heterospec::linalg::Matrix;
use proptest::prelude::*;
use std::cmp::Ordering;

/// Line widths below, at, just above and well above the lane count.
const SAMPLES: [usize; 7] = [1, 2, 3, 4, 5, 16, 17];
const LINES: usize = 3;
/// Not a multiple of four: the band loop has a tail too.
const BANDS: usize = 9;

/// `count` values in `[0.05, 1.05)` from an LCG.
fn texture(count: usize, seed: u32) -> Vec<f32> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            0.05 + (state >> 8) as f32 / (1 << 24) as f32
        })
        .collect()
}

fn cube(samples: usize, seed: u32) -> HyperCube {
    let data = texture(LINES * samples * BANDS, seed);
    HyperCube::from_vec(LINES, samples, BANDS, data)
}

fn wide(px: &[f32]) -> Vec<f64> {
    px.iter().map(|&v| f64::from(v)).collect()
}

/// The vectors a system grows from (independent of any cube, so the
/// narrowest one still gets a full-rank system).
fn spectra(count: usize) -> Vec<Vec<f64>> {
    texture(count * BANDS, 4242)
        .chunks(BANDS)
        .map(wide)
        .collect()
}

/// Coordinates and score **bits** of a kernel result.
fn bits(best: &Option<ScoredPixel>) -> Option<(usize, usize, u64)> {
    best.as_ref().map(|b| (b.line, b.sample, b.score.to_bits()))
}

/// The first row-major strict maximum of a per-pixel score.
fn reference(cube: &HyperCube, score: impl Fn(&[f32]) -> f64) -> Option<(usize, usize, u64)> {
    let mut best: Option<(usize, usize, f64)> = None;
    for i in 0..cube.num_pixels() {
        let s = score(cube.pixel_flat(i));
        if best.is_none_or(|(_, _, b)| s > b) {
            let (line, sample) = cube.coord_of(i);
            best = Some((line, sample, s));
        }
    }
    best.map(|(line, sample, s)| (line, sample, s.to_bits()))
}

fn projection_reference(cube: &HyperCube, basis: &OrthoBasis) -> Option<(usize, usize, u64)> {
    reference(cube, |px| basis.complement_score(&wide(px)))
}

fn fcls_reference(cube: &HyperCube, problem: &FclsProblem) -> Option<(usize, usize, u64)> {
    reference(cube, |px| {
        problem
            .solve_f32(px)
            .map_or(f64::NEG_INFINITY, |u| u.residual_sq)
    })
}

#[test]
fn projection_lanes_equal_the_per_pixel_score() {
    for samples in SAMPLES {
        let cube = cube(samples, 11);
        let whole = (0, LINES);
        let pushes = spectra(7);
        let mut basis = OrthoBasis::new(BANDS);
        let carry = ProjectionCarry::default();
        // Fresh, deepened by one, deepened by several.
        for grow in [2, 1, 3] {
            for v in &pushes[basis.len()..basis.len() + grow] {
                assert!(basis.push(v));
            }
            let want = projection_reference(&cube, &basis);
            let carried = kernels::max_projection_carried(&cube, &basis, whole, &carry);
            assert_eq!(
                bits(&carried.0),
                want,
                "samples {samples}, k {}",
                basis.len()
            );
            let stateless = kernels::max_projection(&cube, &basis, whole);
            assert_eq!(bits(&stateless.0), want, "samples {samples}");
        }
        // A basis that shares only the first vector forces a restart…
        let mut forked = OrthoBasis::new(BANDS);
        forked.push(&pushes[0]);
        forked.push(&pushes[6]);
        // …and the original one after it another.
        for handed in [&forked, &basis] {
            let carried = kernels::max_projection_carried(&cube, handed, whole, &carry);
            assert_eq!(bits(&carried.0), projection_reference(&cube, handed));
        }
    }
}

#[test]
fn fcls_lanes_equal_the_per_pixel_solve() {
    for samples in SAMPLES {
        let cube = cube(samples, 23);
        let whole = (0, LINES);
        let pushes = spectra(7);
        let grown = |t: usize| {
            let rows: Vec<&[f64]> = pushes[..t].iter().map(Vec::as_slice).collect();
            FclsProblem::new(Matrix::from_rows(&rows)).expect("problem")
        };
        let carry = FclsCarry::default();
        // Fresh, deepened by one, deepened by several.
        for t in [2, 3, 6] {
            let problem = grown(t);
            let want = fcls_reference(&cube, &problem);
            let carried = kernels::max_fcls_error_carried(&cube, &problem, whole, &carry);
            assert_eq!(bits(&carried.0), want, "samples {samples}, t {t}");
            let stateless = kernels::max_fcls_error(&cube, &problem, whole);
            assert_eq!(bits(&stateless.0), want, "samples {samples}");
        }
        // A set that shares only the first endmember forces a restart…
        let forked = FclsProblem::new(Matrix::from_rows(&[&pushes[0], &pushes[6]])).unwrap();
        // …and the original one after it another.
        for handed in [&forked, &grown(6)] {
            let carried = kernels::max_fcls_error_carried(&cube, handed, whole, &carry);
            assert_eq!(bits(&carried.0), fcls_reference(&cube, handed));
        }
    }
}

#[test]
fn sad_label_equals_the_naive_loop() {
    for samples in SAMPLES {
        let cube = cube(samples, 37);
        // Candidate counts below, at and above the lane count, the last
        // with a repeated class: the tie goes to the lower index.
        for count in [1, 3, 4, 7] {
            let mut classes: Vec<Vec<f32>> = (0..count)
                .map(|i| cube.pixel_flat((i * 5 + 1) % cube.num_pixels()).to_vec())
                .collect();
            if count == 7 {
                classes[6] = classes[2].clone();
            }
            let want: Vec<u16> = (0..cube.num_pixels())
                .map(|i| {
                    let mut best = (0, f64::INFINITY);
                    for (c, class) in classes.iter().enumerate() {
                        let d = sad(cube.pixel_flat(i), class);
                        if d < best.1 {
                            best = (c, d);
                        }
                    }
                    best.0 as u16
                })
                .collect();
            let (labels, _) = kernels::sad_label(&cube, (0, LINES), &classes);
            assert_eq!(labels, want, "samples {samples}, {count} classes");
        }
    }
}

/// The unique-set merge one `sad` per (candidate, representative) pair:
/// candidates by descending score (ties to the lower index), each
/// compared with the representatives in founding order up to the one it
/// joins, founding a new one below the `4c` cap; the top `c` by support,
/// then founding score. Returns them and the SAD evaluations made.
fn reduce_by_pairs(scored: &[(Vec<f32>, f64)], threshold: f64, c: usize) -> (Vec<Vec<f32>>, usize) {
    let mut order: Vec<usize> = (0..scored.len()).collect();
    order.sort_by(|&a, &b| {
        let by_score = scored[b].1.partial_cmp(&scored[a].1);
        by_score.unwrap_or(Ordering::Equal).then(a.cmp(&b))
    });
    let cap = 4 * c.max(1);
    let mut reps: Vec<(Vec<f32>, usize, f64)> = Vec::new();
    let mut evals = 0;
    for i in order {
        let (s, score) = (&scored[i].0, scored[i].1);
        let mut joined = false;
        for (rep, support, _) in reps.iter_mut() {
            evals += 1;
            if sad(s, rep) <= threshold {
                *support += 1;
                joined = true;
                break;
            }
        }
        if !joined && reps.len() < cap {
            reps.push((s.clone(), 1, score));
        }
    }
    reps.sort_by(|a, b| {
        let by_score = b.2.partial_cmp(&a.2).unwrap_or(Ordering::Equal);
        b.1.cmp(&a.1).then(by_score)
    });
    reps.truncate(c);
    (reps.into_iter().map(|(s, _, _)| s).collect(), evals)
}

/// Spectra by their bits.
fn spectra_bits(spectra: &[Vec<f32>]) -> Vec<Vec<u32>> {
    spectra
        .iter()
        .map(|s| s.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// `reduce_candidates` against the per-pair loop: the same
/// representatives in the same order, bit for bit, and the megaflops of
/// the same SAD evaluation count.
fn assert_merge_equals_the_pairs(scored: &[(Vec<f32>, f64)], threshold: f64, c: usize) {
    let (want, evals) = reduce_by_pairs(scored, threshold, c);
    let (got, mflops) = reduce_candidates(scored, threshold, c);
    assert_eq!(
        spectra_bits(&got),
        spectra_bits(&want),
        "threshold {threshold}, c {c}"
    );
    let n = scored.first().map_or(1, |s| s.0.len());
    let charged = flops::mflop(flops::sad(n) * evals as f64);
    assert_eq!(
        mflops.to_bits(),
        charged.to_bits(),
        "{evals} SAD evaluations"
    );
}

/// A candidate pool with `kinds[i]` choosing candidate `i`: a zero
/// spectrum, a copy of an earlier candidate, or spectrum `i` of `vals`;
/// scores from a set of four, so they tie.
fn pool_of(vals: &[f32], kinds: &[usize], count: usize) -> Vec<(Vec<f32>, f64)> {
    let mut pool: Vec<(Vec<f32>, f64)> = Vec::new();
    for (i, &kind) in kinds[..count].iter().enumerate() {
        let spectrum = match kind % 5 {
            0 => vec![0.0; BANDS],
            1 if i > 0 => pool[kind / 5 % i].0.clone(),
            _ => vals[i * BANDS..(i + 1) * BANDS].to_vec(),
        };
        pool.push((spectrum, (kind / 7 % 4) as f64));
    }
    pool
}

const MAX_CANDIDATES: usize = 48;
/// Thresholds that join nothing but equal directions, some, most, and
/// everything but a zero spectrum against a nonzero one.
const THRESHOLDS: [f64; 4] = [0.0, 0.05, 0.4, 1.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_unique_set_merge_equals_the_per_pair_loop(
        vals in proptest::collection::vec(-0.2f32..1.0, MAX_CANDIDATES * BANDS),
        kinds in proptest::collection::vec(0usize..1000, MAX_CANDIDATES),
        count in 0usize..=MAX_CANDIDATES,
        threshold in 0usize..THRESHOLDS.len(),
        c in 1usize..5,
    ) {
        let pool = pool_of(&vals, &kinds, count);
        assert_merge_equals_the_pairs(&pool, THRESHOLDS[threshold], c);
    }
}

/// The corners the draws may miss, by name: zero spectra on both sides
/// of a comparison, all-tied scores, duplicates, and a cap that fills
/// before the pool runs out (every candidate its own direction).
#[test]
fn the_unique_set_merge_equals_the_per_pair_loop_at_its_corners() {
    let zero = vec![0.0f32; BANDS];
    let spread: Vec<Vec<f32>> = (0..40)
        .map(|i| {
            (0..BANDS)
                .map(|b| if b == i % BANDS { 1.0 } else { 0.01 * i as f32 })
                .collect()
        })
        .collect();
    let tied: Vec<(Vec<f32>, f64)> = spread.iter().map(|s| (s.clone(), 1.0)).collect();
    let mut zeros = vec![
        (zero.clone(), 2.0),
        (spread[3].clone(), 3.0),
        (zero.clone(), 1.0),
    ];
    zeros.extend(tied[..6].iter().cloned());
    let duplicates: Vec<(Vec<f32>, f64)> = (0..24)
        .map(|i| (spread[i % 5].clone(), (i % 3) as f64))
        .collect();
    let ranked: Vec<(Vec<f32>, f64)> = spread.iter().cloned().zip((0..40).map(f64::from)).collect();
    for pool in [&tied, &zeros, &duplicates, &ranked, &Vec::new()] {
        for threshold in THRESHOLDS {
            for c in 1..4 {
                assert_merge_equals_the_pairs(pool, threshold, c);
            }
        }
    }
    // The cap is reached: 40 directions, 4c = 8 representatives.
    let (reps, evals) = reduce_by_pairs(&ranked, 0.0, 2);
    assert_eq!((reps.len(), evals), (2, 28 + 32 * 8));
}

/// `pct_label` forms a pixel's `c` projections in one pass over its bands,
/// eight rows at a time; its labels must be those of the per-pixel
/// `Matrix::matvec` of the centred pixel, narrowed to `f32` and matched
/// by SAD, at row counts on both sides of a group of eight and at widths
/// 1 and 3. (Each projection's bits against `matvec` are pinned in
/// `hetero::kernels`' unit tests, where the projection is visible.)
#[test]
fn pct_label_equals_the_per_pixel_matvec() {
    let mean: Vec<f64> = texture(BANDS, 71).iter().map(|&v| f64::from(v)).collect();
    // Three line chunks, so width 3 gives each worker one.
    let lines = 2 * kernels::PAR_CHUNK_LINES + 1;
    for samples in SAMPLES {
        let cube = HyperCube::from_vec(lines, samples, BANDS, texture(lines * samples * BANDS, 53));
        for c in [1, 7, 8, 9, 17] {
            let rows: Vec<Vec<f64>> = texture(c * BANDS, 7 + c as u32)
                .chunks(BANDS)
                .map(|r| r.iter().map(|&v| f64::from(v) - 0.55).collect())
                .collect();
            let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let transform = Matrix::from_rows(&rows);
            let project = |px: &[f32]| {
                let centred: Vec<f64> = px
                    .iter()
                    .zip(&mean)
                    .map(|(&v, m)| f64::from(v) - m)
                    .collect();
                transform.matvec(&centred).expect("transform shape")
            };
            // Representatives in transformed space, as `seq::pct` takes
            // them: the projections of a few of the cube's pixels.
            let reps: Vec<Vec<f64>> = (0..4)
                .map(|i| project(cube.pixel_flat((i * 7 + 2) % cube.num_pixels())))
                .collect();
            let reps32: Vec<Vec<f32>> = reps
                .iter()
                .map(|r| r.iter().map(|&v| v as f32).collect())
                .collect();
            let want: Vec<u16> = (0..cube.num_pixels())
                .map(|i| {
                    let projected: Vec<f32> = project(cube.pixel_flat(i))
                        .iter()
                        .map(|&v| v as f32)
                        .collect();
                    let mut best = (0, f64::INFINITY);
                    for (k, rep) in reps32.iter().enumerate() {
                        let d = sad(&projected, rep);
                        if d < best.1 {
                            best = (k, d);
                        }
                    }
                    best.0 as u16
                })
                .collect();
            if c > 1 && cube.num_pixels() > 16 {
                assert!(want.iter().any(|&l| l != want[0]), "fixture: one class");
            }
            for width in [1, 3] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .unwrap();
                let (labels, _) = pool
                    .install(|| kernels::pct_label(&cube, (0, lines), &transform, &mean, &reps));
                assert_eq!(labels, want, "samples {samples}, c {c}, width {width}");
            }
        }
    }
}

/// Two endmembers `1e-8` apart make the passive sub-Gram numerically
/// singular for some pixels and not for others: a failed solve sits next
/// to solved ones in the same group of four.
#[test]
fn a_failed_solve_leaves_its_lane_mates_alone() {
    let cube = cube(17, 5);
    let mut rows = spectra(3);
    let twin: Vec<f64> = rows[0]
        .iter()
        .enumerate()
        .map(|(i, v)| v + 1e-8 * (i * 7 % 5) as f64)
        .collect();
    rows.push(twin);
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let problem = FclsProblem::new(Matrix::from_rows(&refs)).unwrap();
    let (t, samples, stride) = (4, cube.samples(), cube.samples() * BANDS);

    let alone: Vec<Option<u64>> = (0..cube.num_pixels())
        .map(|i| problem.solve_f32(cube.pixel_flat(i)).ok())
        .map(|solved| solved.map(|u| u.residual_sq.to_bits()))
        .collect();
    let mixed_group = alone[..samples - samples % 4]
        .chunks(4)
        .any(|g| g.iter().any(Option::is_none) && g.iter().any(Option::is_some));
    assert!(mixed_group, "fixture: {alone:?}");

    let mut ws = FclsWorkspace::new();
    for line in 0..LINES {
        let mut dots = vec![0.0f64; t * samples];
        let mut together = vec![Some(0); samples];
        let mut emitted = 0;
        problem
            .solve_f32_line(
                &cube.as_slice()[line * stride..(line + 1) * stride],
                0,
                &mut dots,
                &mut NnlsTrails::default(),
                f64::NEG_INFINITY,
                &mut ws,
                |sample, solved| {
                    together[sample] = solved.ok().map(f64::to_bits);
                    emitted += 1;
                },
            )
            .expect("buffers fit");
        assert_eq!(emitted, samples);
        assert_eq!(together, alone[line * samples..(line + 1) * samples]);
    }

    // The kernel ranks the failed pixels at −∞, in every build profile.
    let best = kernels::max_fcls_error(&cube, &problem, (0, LINES)).0;
    assert_eq!(bits(&best), fcls_reference(&cube, &problem));
    assert!(best.expect("a solved pixel").score.is_finite());
}
