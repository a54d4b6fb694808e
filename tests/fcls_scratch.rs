//! FCLS scans share one stack of idle workspaces: a kernel block checks
//! one out and its scorer puts it back, so the process makes as many as
//! blocks were ever in flight at once, whatever threads ran them.
//!
//! A binary of its own with one test: the tally
//! (`kernels::fcls_workspaces_built`) is the process's, so no other test
//! may scan beside this one. A count, no stopwatch.

use heterospec::hetero::kernels::{self, FclsCarry, ScoredPixel};
use heterospec::linalg::lstsq::FclsProblem;
use heterospec::linalg::Matrix;

const WIDTHS: [usize; 3] = [1, 2, 3];
const ROUNDS: usize = 6;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("test pool")
}

/// Coordinates and score bits of a kernel result, and its megaflops' bits.
fn bits(best: &(Option<ScoredPixel>, f64)) -> (Option<(usize, usize, u64)>, u64) {
    let pixel = best.0.as_ref();
    let pixel = pixel.map(|b| (b.line, b.sample, b.score.to_bits()));
    (pixel, best.1.to_bits())
}

/// Both FCLS kernels, round after round at pool widths 1, 2 and 3 (the
/// shim spawns fresh helper threads for every call wider than 1), score
/// the same bits at every width and make no more workspaces than the
/// widest scan runs blocks abreast. One workspace per thread made 61
/// over this schedule.
#[test]
fn fcls_scans_make_no_more_workspaces_than_the_widest_scan_needs() {
    let scene = testutil::tiny_scene();
    let cube = &scene.cube;
    // 48 lines: a width-3 scan runs three 16-line blocks abreast.
    let whole = (0, cube.lines());
    let wide = |i: usize| -> Vec<f64> {
        let px = cube.pixel_flat(i * 131 + 7);
        px.iter().map(|&v| f64::from(v)).collect()
    };
    let mut problem = FclsProblem::new(Matrix::row_vector(&wide(0))).expect("one endmember");
    let carries: [FclsCarry; 3] = Default::default();
    for round in 1..=ROUNDS {
        let mut first = None;
        for (width, carry) in WIDTHS.into_iter().zip(&carries) {
            let scored = pool(width).install(|| {
                let scratch = kernels::max_fcls_error(cube, &problem, whole);
                let carried = kernels::max_fcls_error_carried(cube, &problem, whole, carry);
                (bits(&scratch), bits(&carried))
            });
            assert_eq!(scored.0, scored.1, "round {round}, width {width}");
            assert_eq!(
                *first.get_or_insert(scored),
                scored,
                "round {round}, width {width}"
            );
        }
        problem.push(&wide(round)).expect("independent endmembers");
    }
    let widest = WIDTHS.into_iter().max().unwrap_or(1);
    let built = kernels::fcls_workspaces_built();
    assert!(
        (1..=widest).contains(&built),
        "{built} FCLS workspaces made for scans at most {widest} blocks abreast"
    );
}
