//! NNLS trails: UFCLS keeps, per pixel, the steps of its latest
//! active-set iteration (`lstsq::NnlsTrails`), and a round that added
//! endmembers asks only whether one of them would have won an entering
//! scan — no: the recorded score stands, nothing is solved; yes: the
//! iteration resumes at that scan. The contract is **bit identity** with
//! the solve that starts from the empty passive set:
//!
//! * solver level — after every push of a set grown to twelve endmembers
//!   over 1…224 bands, each pixel's trailed residual, abundances and
//!   `Ok`/`Err` are a fresh `FclsProblem::solve_f32`'s, through lines that
//!   skip rounds, two endmembers `1e-8` apart (turned-down candidates,
//!   the LU fallback, solves that fail), pixels that are simplex
//!   vertices and an all-zero pixel; a trail never costs a passive-set
//!   solve the from-empty iteration would not spend, and a pixel that
//!   failed keeps none;
//! * kernel level — `max_fcls_error_carried` against the stateless scan
//!   over random geometry, sub-ranges and pool widths {1, 2, 3}, then
//!   through a forked prefix and back;
//! * the counting gate — on the benchmark scene at `t = 18` the carried
//!   rounds spend at most a quarter of the from-empty passive-set solves.
//!   No stopwatch: a return to from-empty solving fails it on any host.
//!
//! The drivers (`seq`, `par`, both `ft` drivers under crashes) are pinned
//! to the stateless reference loop by `tests/carried_rounds.rs`.

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::cube::HyperCube;
use heterospec::hetero::config::AlgoParams;
use heterospec::hetero::kernels::{self, FclsCarry, ScoredPixel};
use heterospec::hetero::seq;
use heterospec::linalg::lstsq::{FclsProblem, FclsWorkspace, NnlsTrails};
use heterospec::linalg::Matrix;
use proptest::prelude::*;

const MAX_BANDS: usize = 224;
const MAX_ENDMEMBERS: usize = 12;

fn wide(px: &[f32]) -> Vec<f64> {
    px.iter().map(|&v| f64::from(v)).collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// What a caller keeps of one pixel between rounds — a line one pixel
/// wide, so that its abundances and its share of the passive-set solves
/// can be read off the workspace after each call.
#[derive(Default)]
struct Kept {
    depth: usize,
    dots: Vec<f64>,
    trails: NnlsTrails,
    /// Whether the latest call solved (a failed pixel must keep no trail).
    solved: bool,
}

/// Unmixes `px` against `problem` continuing from `kept`, and checks the
/// outcome against the from-empty solve of a fresh workspace: `Ok`/`Err`,
/// residual bits, abundance bits, and the passive-set solves spent — never
/// more than from empty, and exactly as many when there is no trail to
/// replay. Returns `(solves spent, solves from empty)`.
fn unmix_and_compare(
    problem: &FclsProblem,
    px: &[f32],
    kept: &mut Kept,
    ws: &mut FclsWorkspace,
) -> Result<(u64, u64), String> {
    let t = problem.num_endmembers();
    let mut fresh = FclsWorkspace::new();
    let want = problem.solve_f32_in(px, &mut fresh);

    let before = ws.passive_solves();
    kept.dots.resize(t, 0.0);
    let mut got = None;
    problem
        .solve_f32_line(
            px,
            kept.depth,
            &mut kept.dots,
            &mut kept.trails,
            f64::NEG_INFINITY,
            ws,
            |p, r| {
                assert_eq!(p, 0);
                got = Some(r);
            },
        )
        .expect("buffers fit");
    let got = got.expect("one pixel, one emission");
    let spent = ws.passive_solves() - before;

    prop_assert_eq!(
        got.is_ok(),
        want.is_ok(),
        "t = {}: {:?} vs {:?}",
        t,
        &got,
        &want
    );
    if let (Ok(got), Ok(want)) = (&got, &want) {
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "t = {}, depth {}",
            t,
            kept.depth
        );
        prop_assert_eq!(bits(ws.abundances()), bits(fresh.abundances()), "t = {}", t);
    }
    prop_assert!(spent <= fresh.passive_solves());
    if !kept.solved {
        prop_assert_eq!(spent, fresh.passive_solves(), "no trail, so from empty");
    }
    kept.depth = t;
    kept.solved = got.is_ok();
    Ok((spent, fresh.passive_solves()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn trailed_solves_equal_fresh_solves_after_every_push(
        bands in 1usize..=MAX_BANDS,
        vals in proptest::collection::vec(0.0f32..1.0, (MAX_ENDMEMBERS + 3) * MAX_BANDS),
        twin_of in 0usize..3,
        twin_at in 3usize..MAX_ENDMEMBERS,
        skips in proptest::collection::vec(0usize..4, MAX_ENDMEMBERS * 10),
    ) {
        let mut spectra = vals.chunks(MAX_BANDS).map(|c| c[..bands].to_vec());
        let mut endmembers: Vec<Vec<f64>> =
            spectra.by_ref().take(MAX_ENDMEMBERS).map(|s| wide(&s)).collect();
        // A near-copy of an earlier endmember: the passive sub-Gram goes
        // numerically singular for some pixels and not for others.
        endmembers[twin_at] = endmembers[twin_of]
            .iter()
            .enumerate()
            .map(|(b, v)| v + 1e-8 * (b * 7 % 5) as f64)
            .collect();
        let narrow = |e: &[f64]| e.iter().map(|&v| v as f32).collect::<Vec<f32>>();
        let blend = |i: usize, j: usize| -> Vec<f32> {
            let mix = endmembers[i].iter().zip(&endmembers[j]).map(|(a, b)| 0.5 * (a + b));
            mix.map(|v| v as f32).collect()
        };
        let mut pixels = vec![
            vec![0.0f32; bands],
            // Vertices of the simplex: the first endmember, one that joins
            // mid-run, the twin's original and the twin's rounding.
            narrow(&endmembers[0]),
            narrow(&endmembers[5]),
            narrow(&endmembers[twin_of]),
            narrow(&endmembers[twin_at]),
            blend(0, 1),
            blend(twin_of, twin_at),
        ];
        pixels.extend(spectra);
        prop_assert_eq!(pixels.len(), 10);

        let mut problem = FclsProblem::new(Matrix::row_vector(&endmembers[0])).unwrap();
        let mut kept: Vec<Kept> = pixels.iter().map(|_| Kept::default()).collect();
        let mut ws = FclsWorkspace::new();
        let mut skips = skips.iter();
        for t in 1..=MAX_ENDMEMBERS {
            if t > 1 {
                problem.push(&endmembers[t - 1]).unwrap();
            }
            for (px, kept) in pixels.iter().zip(kept.iter_mut()) {
                // One call in four is skipped: the next one jumps several
                // endmembers at once. Nobody skips the last round.
                if *skips.next().expect("a draw per call") == 0 && t < MAX_ENDMEMBERS {
                    continue;
                }
                unmix_and_compare(&problem, px, kept, &mut ws)?;
            }
        }
        // The same problem again: every trail replays, nothing is solved.
        for (px, kept) in pixels.iter().zip(kept.iter_mut()) {
            let solved = kept.solved;
            let (spent, from_empty) = unmix_and_compare(&problem, px, kept, &mut ws)?;
            prop_assert_eq!(spent, if solved { 0 } else { from_empty });
        }
        prop_assert!(kept.iter().any(|k| k.solved));
    }

    /// The kernel over whole lines: sub-ranges leave lines rounds behind,
    /// the pool width changes every round, and at the end the carry meets
    /// a set that forks off after three endmembers, then the grown one
    /// again.
    #[test]
    fn carried_kernel_equals_the_stateless_scan_every_round(
        bands in 12usize..=MAX_BANDS,
        lines in 1usize..=9,
        samples in 1usize..=6,
        vals in proptest::collection::vec(0.0f32..1.0, 9 * 6 * MAX_BANDS),
        draws in proptest::collection::vec(0usize..1000, 3 * MAX_ENDMEMBERS),
    ) {
        let cube = HyperCube::from_vec(lines, samples, bands, vals[..lines * samples * bands].to_vec());
        // Pixels of the cube, as UFCLS picks its endmembers (independent
        // with probability one: a dev build of the kernel asserts that no
        // solve fails).
        let count = MAX_ENDMEMBERS.min(cube.num_pixels());
        let endmember = |i: usize| wide(cube.pixel_flat(i * (cube.num_pixels() / count)));
        let whole = (0, lines);
        let coords = |best: &Option<ScoredPixel>| {
            best.as_ref().map(|b| (b.line, b.sample, b.score.to_bits()))
        };

        let mut problem = FclsProblem::new(Matrix::row_vector(&endmember(0))).unwrap();
        let carry = FclsCarry::default();
        for (t, round) in (1..=count).zip(draws.chunks(3)) {
            if t > 1 {
                problem.push(&endmember(t - 1)).unwrap();
            }
            let lo = round[0] % lines;
            let range = if t == count { whole } else { (lo, lo + 1 + round[1] % (lines - lo)) };
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(1 + round[2] % 3)
                .build()
                .expect("test pool");
            let carried = pool.install(|| {
                kernels::max_fcls_error_carried(&cube, &problem, range, &carry)
            });
            let stateless = kernels::max_fcls_error(&cube, &problem, range);
            prop_assert_eq!(coords(&carried.0), coords(&stateless.0), "t = {}", t);
            prop_assert_eq!(carried.1.to_bits(), stateless.1.to_bits());
        }

        let shared = 3.min(count);
        let mut forked = FclsProblem::new(Matrix::row_vector(&endmember(0))).unwrap();
        for i in 1..shared {
            forked.push(&endmember(i)).unwrap();
        }
        forked.push(&vec![0.25; bands]).unwrap();
        forked.push(&(0..bands).map(|b| 0.1 + 0.8 * (b % 7) as f64 / 7.0).collect::<Vec<_>>()).unwrap();
        for handed in [&forked, &problem, &forked] {
            let carried = kernels::max_fcls_error_carried(&cube, handed, whole, &carry);
            let stateless = kernels::max_fcls_error(&cube, handed, whole);
            prop_assert_eq!(coords(&carried.0), coords(&stateless.0));
        }
    }
}

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

/// The fixture of `abreast_reductions::a_failed_solve_leaves_its_lane_mates_alone`
/// — a twin `1e-8` off the first of four endmembers fails some pixels'
/// solves — grown one endmember further: a pixel that failed carries no
/// trail into the next round, its lane mates carry theirs, and everybody
/// gets the fresh solve's bits in both rounds.
#[test]
fn a_failed_solve_keeps_no_trail_and_resolves_from_empty() {
    const BANDS: usize = 9;
    let pixels: Vec<Vec<f32>> = texture(3 * 17 * BANDS, 5)
        .chunks(BANDS)
        .map(<[f32]>::to_vec)
        .collect();
    let mut rows: Vec<Vec<f64>> = texture(3 * BANDS, 4242).chunks(BANDS).map(wide).collect();
    let twin = rows[0]
        .iter()
        .enumerate()
        .map(|(i, v)| v + 1e-8 * (i * 7 % 5) as f64);
    rows.push(twin.collect());
    rows.push(wide(&texture(BANDS, 77)));

    let mut problem = FclsProblem::new(Matrix::row_vector(&rows[0])).unwrap();
    let mut kept: Vec<Kept> = pixels.iter().map(|_| Kept::default()).collect();
    let mut ws = FclsWorkspace::new();
    let mut failed_then_solved_from_empty = 0;
    let mut replayed_or_resumed = 0;
    for t in 1..=rows.len() {
        if t > 1 {
            problem.push(&rows[t - 1]).unwrap();
        }
        for (px, kept) in pixels.iter().zip(kept.iter_mut()) {
            let had_failed = kept.depth > 0 && !kept.solved;
            let (spent, from_empty) =
                unmix_and_compare(&problem, px, kept, &mut ws).expect("trailed == fresh");
            failed_then_solved_from_empty += usize::from(had_failed && spent == from_empty);
            replayed_or_resumed += usize::from(spent < from_empty);
        }
        if t == 4 {
            let failed = kept.iter().filter(|k| !k.solved).count();
            assert!(
                0 < failed && failed < pixels.len(),
                "fixture: {failed} failed"
            );
        }
    }
    assert!(failed_then_solved_from_empty > 0);
    assert!(replayed_or_resumed > 0);
}

/// The host-independent gate. `seq::ufcls` on the benchmark scene at the
/// paper's `t = 18`, pixel by pixel on one thread: carried rounds against
/// rounds that start every solve from the empty passive set, counted in
/// passive-set systems solved (measured: 81 168 of 450 293, 18.0 %; 34 226
/// of the 65 536 calls that have a trail replay it whole, 52.2 %).
#[test]
fn carried_rounds_spend_a_quarter_of_the_from_empty_solves() {
    let scene = wtc_scene(WtcConfig {
        lines: 256,
        samples: 16,
        seed: 20010916,
        ..Default::default()
    });
    let cube = &scene.cube;
    let params = AlgoParams::default();
    assert_eq!(params.num_targets, 18);
    let targets = seq::ufcls(cube, &params).result;

    let mut problem = FclsProblem::new(Matrix::row_vector(&wide(&targets[0].spectrum))).unwrap();
    let mut kept: Vec<Kept> = (0..cube.num_pixels()).map(|_| Kept::default()).collect();
    let mut ws = FclsWorkspace::new();
    let (mut carried, mut from_empty) = (0, 0);
    let (mut trailed_calls, mut replayed_whole) = (0u64, 0u64);
    for t in 1..params.num_targets {
        if t > 1 {
            problem.push(&wide(&targets[t - 1].spectrum)).unwrap();
        }
        for (i, kept) in kept.iter_mut().enumerate() {
            let (spent, fresh) = unmix_and_compare(&problem, cube.pixel_flat(i), kept, &mut ws)
                .expect("trailed == fresh");
            carried += spent;
            from_empty += fresh;
            if t > 1 {
                trailed_calls += 1;
                replayed_whole += u64::from(spent == 0);
            }
        }
    }
    assert!(
        4 * carried <= from_empty,
        "{carried} passive-set solves carried, {from_empty} from empty"
    );
    assert!(
        100 * replayed_whole >= 45 * trailed_calls,
        "{replayed_whole} of {trailed_calls} calls replayed without a solve"
    );
}
