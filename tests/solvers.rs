//! Property tests for the two host-side solvers every pass runs:
//! the symmetric eigensolver under PCT and the FCLS/NNLS solve under
//! UFCLS.
//!
//! There is no second implementation to compare against; each solver is
//! checked against the definition of what it computes (reconstruction and
//! orthonormality; the allocating wrapper as the from-scratch form of the
//! workspace path; `SymmetricEigen::new` as the copying form of the
//! in-place `SymmetricEigen::consume`).
//!
//! CI also runs this suite in the release profile with `--include-ignored`:
//! that is where the eigensolver's host-normalised time bound is asserted
//! and where the eight-seed FCLS sweep runs.

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::hetero::config::AlgoParams;
use heterospec::hetero::seq;
use heterospec::linalg::eigen::SymmetricEigen;
use heterospec::linalg::lstsq::{FclsProblem, FclsWorkspace};
use heterospec::linalg::matrix::dot;
use heterospec::linalg::Matrix;
use std::time::Instant;

/// The eigensolver may take at most this many 224-length dot products'
/// worth of time on the 224-band covariance (release profile only). It
/// needs ~95 k on the development host; the cyclic Jacobi it replaced
/// needed ~2.6 M.
const EIGEN_224_BOUND_DOTS: f64 = 500_000.0;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Checks everything `SymmetricEigen` promises about `a`.
fn assert_eigen_contract(a: &Matrix) -> SymmetricEigen {
    let n = a.rows();
    let e = SymmetricEigen::new(a).expect("eigen");
    let v = &e.eigenvectors;
    let norm = a.max_abs();

    let mut lambda = Matrix::zeros(n, n);
    for (i, &l) in e.eigenvalues.iter().enumerate() {
        lambda[(i, i)] = l;
    }
    let recon = v.transpose().matmul(&lambda).unwrap().matmul(v).unwrap();
    let recon_err = recon.sub(a).unwrap().max_abs();
    assert!(
        recon_err <= 1e-10 * norm,
        "‖A − VᵀΛV‖∞ = {recon_err:e} against ‖A‖ = {norm:e}"
    );
    let ortho_err = v
        .matmul(&v.transpose())
        .unwrap()
        .sub(&Matrix::identity(n))
        .unwrap()
        .max_abs();
    assert!(ortho_err <= 1e-10, "‖VVᵀ − I‖∞ = {ortho_err:e}");

    assert!(
        e.eigenvalues.windows(2).all(|w| w[0] >= w[1]),
        "eigenvalues must descend"
    );
    for i in 0..n {
        let first = v.row(i).iter().find(|x| x.abs() > 1e-12);
        assert!(
            first.is_some_and(|&x| x > 0.0),
            "row {i}: first non-negligible component must be positive"
        );
    }

    let again = SymmetricEigen::new(a).expect("eigen");
    assert_eq!(bits(&e.eigenvalues), bits(&again.eigenvalues));
    assert_eq!(
        bits(e.eigenvectors.as_slice()),
        bits(again.eigenvectors.as_slice())
    );
    e
}

fn best_of_3(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn eigen_224_band_scene_covariance() {
    let cov = testutil::scene_covariance(&testutil::scene(32, 16, 224));
    let e = assert_eigen_contract(&cov);
    assert!((e.eigenvalues.iter().sum::<f64>() - cov.trace().unwrap()).abs() < 1e-9);

    // Host-normalised speed bound: a multiple of an in-process dot loop
    // over the same 224-length footprint, so no absolute milliseconds.
    // Debug builds pay ~20× on both sides of the ratio unevenly; only the
    // optimised build is held to it.
    if !cfg!(debug_assertions) {
        let x: Vec<f64> = (0..224).map(|i| 1.0 + i as f64 * 1e-3).collect();
        let dots = 20_000;
        let dot_s = best_of_3(|| {
            let mut s = 0.0;
            for _ in 0..dots {
                s += dot(std::hint::black_box(&x), std::hint::black_box(&x));
            }
            std::hint::black_box(s);
        }) / dots as f64;
        let eigen_s = best_of_3(|| {
            std::hint::black_box(SymmetricEigen::new(std::hint::black_box(&cov)).unwrap());
        });
        assert!(
            eigen_s <= EIGEN_224_BOUND_DOTS * dot_s,
            "224-band eigen took {:.1} ms = {:.0} dot-224s (bound {EIGEN_224_BOUND_DOTS})",
            eigen_s * 1e3,
            eigen_s / dot_s
        );
    }
}

#[test]
fn eigen_rank_deficient_covariance() {
    // 32 pixels in 224 bands: rank ≤ 31, so ~193 eigenvalues are noise
    // around zero.
    let cov = testutil::scene_covariance(&testutil::scene(4, 8, 224));
    let e = assert_eigen_contract(&cov);
    let top = e.eigenvalues[0];
    assert!(e.eigenvalues[31..].iter().all(|l| l.abs() <= 1e-10 * top));
}

#[test]
fn eigen_repeated_eigenvalues_and_tiny_sizes() {
    let e = assert_eigen_contract(&Matrix::identity(5));
    assert!(e.eigenvalues.iter().all(|&l| l == 1.0));
    // Ties keep their order of appearance.
    assert_eq!(e.eigenvectors.as_slice(), Matrix::identity(5).as_slice());

    let e = assert_eigen_contract(&Matrix::from_rows(&[
        &[3.0, 0.0, 0.0],
        &[0.0, 1.0, 0.0],
        &[0.0, 0.0, 3.0],
    ]));
    assert_eq!(e.eigenvalues, vec![3.0, 3.0, 1.0]);
    assert_eq!(e.eigenvectors.row(0), &[1.0, 0.0, 0.0]);
    assert_eq!(e.eigenvectors.row(1), &[0.0, 0.0, 1.0]);

    // A repeated eigenvalue the reduction has to find: 2·I + 11ᵀ has
    // eigenvalues (6, 2, 2, 2).
    let mut a = Matrix::identity(4).scaled(2.0);
    for i in 0..4 {
        for j in 0..4 {
            a[(i, j)] += 1.0;
        }
    }
    let e = assert_eigen_contract(&a);
    for (l, want) in e.eigenvalues.iter().zip([6.0, 2.0, 2.0, 2.0]) {
        assert!((l - want).abs() < 1e-12);
    }

    let e = assert_eigen_contract(&Matrix::from_rows(&[&[-4.5]]));
    assert_eq!(e.eigenvalues, vec![-4.5]);
    let e = assert_eigen_contract(&Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]));
    assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12 && (e.eigenvalues[1] - 1.0).abs() < 1e-12);
}

/// The footprint gate, with no stopwatch: the consuming entry is `new`
/// without the copy. It returns the same bits, and its eigenvectors in
/// the very buffer it was handed, so a second `n × n` work matrix
/// brought back as the output fails here on any host.
#[test]
fn consuming_eigen_is_new_bit_for_bit_in_the_buffer_it_was_handed() {
    for (name, a) in testutil::eigen_matrices() {
        let want = SymmetricEigen::new(&a).expect("eigen");
        let buffer = a.as_slice().as_ptr();
        let got = SymmetricEigen::consume(a).expect("eigen");
        assert_eq!(bits(&got.eigenvalues), bits(&want.eigenvalues), "{name}");
        assert_eq!(
            bits(got.eigenvectors.as_slice()),
            bits(want.eigenvectors.as_slice()),
            "{name}"
        );
        assert_eq!(
            got.eigenvectors.as_slice().as_ptr(),
            buffer,
            "{name}: eigenvectors returned in a second buffer"
        );
    }
}

/// The first `t` UFCLS targets of `scene` as an FCLS problem.
fn problem_of(targets: &[seq::DetectedTarget], t: usize) -> FclsProblem {
    let rows: Vec<Vec<f64>> = targets[..t]
        .iter()
        .map(|d| d.spectrum.iter().map(|&v| f64::from(v)).collect())
        .collect();
    let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    FclsProblem::new(Matrix::from_rows(&rows)).expect("non-empty endmember set")
}

#[test]
fn fcls_workspace_equals_from_scratch_solve() {
    let scene = testutil::scene(24, 16, 224);
    let cube = &scene.cube;
    let targets = seq::ufcls(cube, &AlgoParams::default()).result;
    assert_eq!(targets.len(), 18);

    // One workspace across every problem, largest first so its buffers
    // are oversized for all the later ones; one fresh workspace per
    // problem; and the allocating wrapper, which builds one per pixel.
    let mut reused = FclsWorkspace::new();
    for t in (1..=18).rev() {
        let problem = problem_of(&targets, t);
        let mut fresh = FclsWorkspace::new();
        for i in 0..cube.num_pixels() {
            let px = cube.pixel_flat(i);
            let scratch = problem.solve_f32(px).expect("fcls");
            for ws in [&mut reused, &mut fresh] {
                let residual = problem.solve_f32_in(px, ws).expect("fcls");
                assert_eq!(
                    residual.to_bits(),
                    scratch.residual_sq.to_bits(),
                    "t = {t}, pixel {i}"
                );
                assert_eq!(ws.abundances(), &scratch.abundances[..]);
            }
        }
    }
}

/// A pixel that is itself an endmember is a vertex of the simplex: the
/// gradient there is pure rounding noise on the δ² = 10⁶ scale of the
/// augmented Gram. Before the KKT test was scale-aware such solves cycled
/// to the iteration cap (and UFCLS silently dropped the pixel): at the
/// parent commit 32 of this scene's 171 (round, vertex) solves did.
#[test]
fn fcls_converges_on_simplex_vertices() {
    let scene = testutil::scene(24, 16, 224);
    let targets = seq::ufcls(&scene.cube, &AlgoParams::default()).result;
    let mut ws = FclsWorkspace::new();
    for t in 1..=targets.len() {
        let problem = problem_of(&targets, t);
        for (k, vertex) in targets[..t].iter().enumerate() {
            let px = scene.cube.pixel(vertex.line, vertex.sample);
            let residual = problem
                .solve_f32_in(px, &mut ws)
                .unwrap_or_else(|e| panic!("t = {t}, target {k}: {e}"));
            assert!(residual < 1e-20, "a vertex reconstructs exactly");
            assert!((ws.abundances()[k] - 1.0).abs() < 1e-9);
        }
    }
}

/// The whole contract of the cycling fix: no solve of any pixel against
/// any UFCLS round's endmember set fails, on the benchmark's scene
/// geometry and eight seeds (590 k solves; release-profile CI step). At
/// the parent commit 102 of them did, 1 to 30 per seed.
#[test]
#[ignore = "590k solves: run in the release profile (CI does)"]
fn fcls_solves_every_pixel_of_every_round_on_eight_seeds() {
    for seed in [20010916, 1, 2, 3, 4, 5, 6, 7] {
        let scene = wtc_scene(WtcConfig {
            lines: 256,
            samples: 16,
            seed,
            ..Default::default()
        });
        let cube = &scene.cube;
        let targets = seq::ufcls(cube, &AlgoParams::default()).result;
        let mut ws = FclsWorkspace::new();
        for t in 1..=targets.len() {
            let problem = problem_of(&targets, t);
            for i in 0..cube.num_pixels() {
                if let Err(e) = problem.solve_f32_in(cube.pixel_flat(i), &mut ws) {
                    panic!("seed {seed}, t = {t}, pixel {i}: {e}");
                }
            }
        }
    }
}
