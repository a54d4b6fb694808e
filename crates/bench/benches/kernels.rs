//! Criterion microbenches for the hot per-pixel kernels.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hetero_hsi::kernels::{self, FclsCarry, ProjectionCarry};
use hsi_cube::metrics::{brightness, euclidean, nearest_by_sad, sad, sid};
use hsi_cube::synth::{wtc_scene, WtcConfig};
use hsi_linalg::covariance::CovarianceAccumulator;
use hsi_linalg::eigen::SymmetricEigen;
use hsi_linalg::lstsq::{FclsProblem, FclsWorkspace};
use hsi_linalg::ortho::OrthoBasis;
use hsi_linalg::Matrix;
use hsi_morpho::StructuringElement;

fn spectra() -> (Vec<f32>, Vec<f32>) {
    let s = wtc_scene(WtcConfig {
        lines: 4,
        samples: 4,
        bands: 224,
        ..Default::default()
    });
    (s.cube.pixel(0, 0).to_vec(), s.cube.pixel(2, 2).to_vec())
}

fn bench_metrics(c: &mut Criterion) {
    let (x, y) = spectra();
    let mut g = c.benchmark_group("metrics-224-bands");
    g.bench_function("sad", |b| b.iter(|| sad(black_box(&x), black_box(&y))));
    g.bench_function("brightness", |b| b.iter(|| brightness(black_box(&x))));
    g.bench_function("euclidean", |b| {
        b.iter(|| euclidean(black_box(&x), black_box(&y)))
    });
    g.bench_function("sid", |b| b.iter(|| sid(black_box(&x), black_box(&y))));
    // Candidate norms are formed per call here; the labelling kernels
    // hoist them (see `sad_label-c7` below).
    let candidates: Vec<Vec<f32>> = (0..7)
        .map(|i| y.iter().map(|&v| v + 0.01 * i as f32).collect())
        .collect();
    g.bench_function("nearest_by_sad_c7", |b| {
        b.iter(|| nearest_by_sad(black_box(&x), black_box(&candidates)))
    });
    g.finish();
}

fn bench_projection(c: &mut Criterion) {
    let (x, _) = spectra();
    let wide: Vec<f64> = x.iter().map(|&v| v as f64).collect();
    let mut g = c.benchmark_group("osp-projection");
    for k in [1usize, 4, 18] {
        let mut basis = OrthoBasis::new(224);
        for i in 0..k {
            let v: Vec<f64> = (0..224)
                .map(|b| ((b * (i + 2)) as f64 * 0.37).sin())
                .collect();
            basis.push(&v);
        }
        g.bench_function(format!("complement_score_k{k}"), |b| {
            b.iter(|| basis.complement_score(black_box(&wide)))
        });
    }
    g.finish();
}

fn bench_fcls(c: &mut Criterion) {
    let scene = wtc_scene(WtcConfig {
        lines: 4,
        samples: 4,
        bands: 224,
        ..Default::default()
    });
    let mut g = c.benchmark_group("fcls-unmixing");
    for t in [2usize, 8, 18] {
        let rows: Vec<Vec<f64>> = (0..t)
            .map(|i| {
                scene.class_signatures[i % scene.class_signatures.len()]
                    .iter()
                    .map(|&v| v as f64 + 0.001 * i as f64)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let problem = FclsProblem::new(Matrix::from_rows(&refs)).unwrap();
        let px = scene.cube.pixel(1, 1).to_vec();
        // One workspace across iterations, as `max_fcls_error` keeps one
        // per chunk.
        let mut ws = FclsWorkspace::new();
        g.bench_function(format!("solve_t{t}"), |b| {
            b.iter(|| problem.solve_f32_in(black_box(&px), &mut ws))
        });
    }
    g.finish();
}

/// The two round kernels of a `t = 18` run on its last round, from
/// scratch and with a carry that saw the 16 rounds before (cloned per
/// iteration — a deep copy, the clone's lines are its own: 8 bytes a
/// pixel for ATDCA; 8·16 of dots plus the NNLS trails for UFCLS). The
/// carried FCLS scan runs on one thread and on two.
fn bench_carried_rounds(c: &mut Criterion) {
    let scene = wtc_scene(WtcConfig {
        lines: 32,
        samples: 16,
        bands: 224,
        ..Default::default()
    });
    let cube = &scene.cube;
    let whole = (0, cube.lines());
    let wide = |i: usize| -> Vec<f64> {
        cube.pixel_flat(i * 29 % cube.num_pixels())
            .iter()
            .map(|&v| v as f64)
            .collect()
    };

    let mut basis = OrthoBasis::new(cube.bands());
    let mut problem = FclsProblem::new(Matrix::row_vector(&wide(0))).unwrap();
    basis.push(&wide(0));
    for i in 1..16 {
        basis.push(&wide(i));
        problem.push(&wide(i)).unwrap();
    }
    let projected = ProjectionCarry::default();
    let unmixed = FclsCarry::default();
    kernels::max_projection_carried(cube, &basis, whole, &projected);
    kernels::max_fcls_error_carried(cube, &problem, whole, &unmixed);
    basis.push(&wide(16));
    problem.push(&wide(16)).unwrap();
    assert_eq!((basis.len(), problem.num_endmembers()), (17, 17));

    let mut g = c.benchmark_group("max_projection");
    g.bench_function("scratch_k17", |b| {
        b.iter(|| kernels::max_projection(cube, black_box(&basis), whole))
    });
    g.bench_function("carried_k17", |b| {
        b.iter(|| {
            kernels::max_projection_carried(cube, black_box(&basis), whole, &projected.clone())
        })
    });
    g.finish();
    let mut g = c.benchmark_group("max_fcls_error");
    g.bench_function("scratch_t17", |b| {
        b.iter(|| kernels::max_fcls_error(cube, black_box(&problem), whole))
    });
    // At width 2 the rayon shim spawns two helper threads for every
    // scan; they take their FCLS workspaces off the shared idle stack.
    for width in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("pool");
        g.bench_function(format!("carried_t17/w{width}"), |b| {
            b.iter(|| {
                let carry = unmixed.clone();
                pool.install(|| {
                    kernels::max_fcls_error_carried(cube, black_box(&problem), whole, &carry)
                })
            })
        });
    }
    g.finish();
}

/// UFCLS's kernel on the benchmark's 256 × 16 × 224 scene against its own
/// targets: every round of a run to `t = 18` through one carry (what the
/// NNLS trails move) — whole-image scans, then chunk by chunk in an order
/// that changes every round — next to one stateless scan at `t = 18`
/// (which must not pay for them).
fn bench_ufcls_rounds(c: &mut Criterion) {
    let scene = wtc_scene(WtcConfig {
        lines: 256,
        samples: 16,
        bands: 224,
        ..Default::default()
    });
    let cube = &scene.cube;
    let whole = (0, cube.lines());
    let targets = hetero_hsi::seq::ufcls(cube, &Default::default()).result;
    assert_eq!(targets.len(), 18);
    let wide = |s: &[f32]| s.iter().map(|&v| v as f64).collect::<Vec<f64>>();
    let mut problems =
        vec![FclsProblem::new(Matrix::row_vector(&wide(&targets[0].spectrum))).unwrap()];
    for target in &targets[1..] {
        let mut grown = problems.last().unwrap().clone();
        grown.push(&wide(&target.spectrum)).unwrap();
        problems.push(grown);
    }

    let mut g = c.benchmark_group("max_fcls_error-256x16");
    g.bench_function("carried_rounds_to_t18", |b| {
        b.iter(|| {
            let carry = FclsCarry::default();
            for problem in black_box(&problems) {
                black_box(kernels::max_fcls_error_carried(
                    cube, problem, whole, &carry,
                ));
            }
        })
    });
    // The self-scheduled pattern: every round hands the image's 32
    // eight-line chunks out in another order, as if to other workers.
    // The lines' sums are the run's, so the order costs nothing.
    let chunks: Vec<(usize, usize)> = (0..cube.lines())
        .step_by(kernels::PAR_CHUNK_LINES)
        .map(|lo| (lo, (lo + kernels::PAR_CHUNK_LINES).min(cube.lines())))
        .collect();
    assert_eq!(chunks.len(), 32);
    g.bench_function("carried_rounds_to_t18_chunks_rotated", |b| {
        b.iter(|| {
            let carry = FclsCarry::default();
            for (round, problem) in black_box(&problems).iter().enumerate() {
                for i in 0..chunks.len() {
                    let range = chunks[(i + 5 * round) % chunks.len()];
                    black_box(kernels::max_fcls_error_carried(
                        cube, problem, range, &carry,
                    ));
                }
            }
        })
    });
    g.bench_function("scratch_t18", |b| {
        b.iter(|| kernels::max_fcls_error(cube, black_box(&problems[17]), whole))
    });
    g.finish();
}

fn bench_mei(c: &mut Criterion) {
    let scene = wtc_scene(WtcConfig {
        lines: 32,
        samples: 32,
        bands: 64,
        ..Default::default()
    });
    let se = StructuringElement::square(1);
    c.bench_function("mei-32x32x64-2iter", |b| {
        b.iter(|| hsi_morpho::mei::mei(black_box(&scene.cube), &se, 2))
    });
    // One scale against the paper's five: the later four ask mostly
    // about pairs of input pixels the first has measured.
    for scales in [1, 5] {
        c.bench_function(format!("mei-32x32x64-{scales}scales"), |b| {
            b.iter(|| hsi_morpho::mei::mei(black_box(&scene.cube), &se, scales))
        });
    }
    c.bench_function("cumdist_map-32x32x64-3x3", |b| {
        b.iter(|| hsi_morpho::cumdist::cumdist_map(black_box(&scene.cube), &se))
    });
}

fn bench_sad_label(c: &mut Criterion) {
    let scene = wtc_scene(WtcConfig {
        lines: 32,
        samples: 16,
        bands: 224,
        ..Default::default()
    });
    let classes = &scene.class_signatures[..7];
    c.bench_function("sad_label-512px-224bands-c7", |b| {
        b.iter(|| kernels::sad_label(black_box(&scene.cube), (0, 32), classes))
    });
}

/// PCT's two worker kernels on a 256-pixel block: the covariance partial
/// (two 8-line chunks) and the transform-and-classify scan against the
/// block's own `c = 7` model.
fn bench_pct(c: &mut Criterion) {
    let scene = wtc_scene(WtcConfig {
        lines: 16,
        samples: 16,
        bands: 224,
        ..Default::default()
    });
    let cube = &scene.cube;
    let whole = (0, cube.lines());
    c.bench_function("covariance-256px-224bands", |b| {
        b.iter(|| kernels::covariance_partial(black_box(cube), whole))
    });
    let (_, model) = hetero_hsi::seq::pct(cube, &Default::default()).result;
    assert_eq!(model.transform.rows(), 7);
    c.bench_function("pct_label-256px-224bands-c7", |b| {
        b.iter(|| {
            kernels::pct_label(
                black_box(cube),
                whole,
                &model.transform,
                &model.mean,
                &model.class_reps,
            )
        })
    });
}

/// PCT's master merge, the covariance shards summed where they are
/// merged, on the benchmark's 256 × 16 × 224 scene: the 256 one-line
/// shards of `thunderhead(256)` and the 16 uneven WEA shards of the
/// fully heterogeneous network, on one host core and on two.
fn bench_covariance_shards(c: &mut Criterion) {
    let scene = wtc_scene(WtcConfig {
        lines: 256,
        samples: 16,
        bands: 224,
        ..Default::default()
    });
    let cube = &scene.cube;
    let one_line: Vec<_> = (0..cube.lines()).map(|l| (l, l + 1)).collect();
    let params = Default::default();
    let wea16: Vec<_> = hetero_hsi::framework::plan_assignments(
        &simnet::presets::fully_heterogeneous(),
        cube,
        &hetero_hsi::config::RunOptions::hetero(),
        hetero_hsi::par::pct::row_cost(cube, &params),
    )
    .iter()
    .map(|a| (a.first_line, a.first_line + a.n_lines))
    .collect();
    assert_eq!(wea16.len(), 16);
    let mut g = c.benchmark_group("covariance");
    for (name, ranges) in [("shards_256x1line", &one_line), ("shards_wea16", &wea16)] {
        for width in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .expect("pool");
            g.bench_function(format!("{name}/w{width}"), |b| {
                b.iter(|| pool.install(|| kernels::covariance_of_shards(black_box(cube), ranges)))
            });
        }
    }
    g.finish();
}

/// PCT's master step alone: the symmetric eigensolve of a 224-band scene
/// covariance, through the borrowing entry and the consuming one. The
/// consuming row clones its argument each iteration, the copy `new`
/// makes inside, so the two rows time the same in-place body.
fn bench_eigen(c: &mut Criterion) {
    let scene = wtc_scene(WtcConfig {
        lines: 32,
        samples: 16,
        bands: 224,
        ..Default::default()
    });
    let mut acc = CovarianceAccumulator::new(scene.cube.bands());
    acc.push_pixels_f32(scene.cube.as_slice());
    let cov = acc.covariance().expect("non-empty scene");
    let mut g = c.benchmark_group("eigen");
    g.bench_function("sym224_new", |b| {
        b.iter(|| SymmetricEigen::new(black_box(&cov)).map(|e| e.dim()))
    });
    g.bench_function("sym224_consuming", |b| {
        b.iter(|| SymmetricEigen::consume(black_box(cov.clone())).map(|e| e.dim()))
    });
}

criterion_group!(
    benches,
    bench_metrics,
    bench_projection,
    bench_fcls,
    bench_carried_rounds,
    bench_ufcls_rounds,
    bench_mei,
    bench_sad_label,
    bench_pct,
    bench_covariance_shards,
    bench_eigen
);
criterion_main!(benches);
