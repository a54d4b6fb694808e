//! Cross-crate integration tests: the full pipeline from synthetic scene
//! through parallel execution to evaluation, asserting the invariants
//! that tie the workspace together.

use heterospec::hetero::config::{AlgoParams, OverlapPolicy, RunOptions};
use heterospec::hetero::eval::{debris_accuracy, target_table};
use heterospec::simnet::engine::Engine;
use heterospec::simnet::presets;

fn scene() -> heterospec::cube::synth::SyntheticScene {
    testutil::scene(96, 64, 96)
}

fn params() -> AlgoParams {
    testutil::params(10, 3)
}

/// Target detection must be invariant to the platform: the same pixels
/// are found on every network, under both partitioning strategies, as
/// by the sequential reference.
#[test]
fn atdca_platform_invariance() {
    let s = scene();
    let p = params();
    let reference: Vec<(usize, usize)> = heterospec::hetero::seq::atdca(&s.cube, &p)
        .result
        .iter()
        .map(|t| (t.line, t.sample))
        .collect();
    for platform in [
        presets::fully_heterogeneous(),
        presets::partially_homogeneous(),
        presets::thunderhead(7),
    ] {
        for options in [RunOptions::hetero(), RunOptions::homo()] {
            let engine = Engine::new(platform.clone());
            let run = heterospec::hetero::par::atdca::run(&engine, &s.cube, &p, &options);
            let got: Vec<(usize, usize)> = run.result.iter().map(|t| (t.line, t.sample)).collect();
            assert_eq!(
                got,
                reference,
                "ATDCA differs on {} / {:?}",
                platform.name(),
                options.strategy
            );
        }
    }
}

/// Same invariance for UFCLS.
#[test]
fn ufcls_platform_invariance() {
    let s = scene();
    let p = AlgoParams {
        num_targets: 6,
        ..params()
    };
    let reference: Vec<(usize, usize)> = heterospec::hetero::seq::ufcls(&s.cube, &p)
        .result
        .iter()
        .map(|t| (t.line, t.sample))
        .collect();
    for platform in [presets::fully_heterogeneous(), presets::thunderhead(5)] {
        let engine = Engine::new(platform);
        let run = heterospec::hetero::par::ufcls::run(&engine, &s.cube, &p, &RunOptions::hetero());
        let got: Vec<(usize, usize)> = run.result.iter().map(|t| (t.line, t.sample)).collect();
        assert_eq!(got, reference);
    }
}

/// Both detectors locate every thermal hot spot on this scene.
#[test]
fn both_detectors_find_all_hot_spots() {
    let s = scene();
    let p = AlgoParams {
        num_targets: 18,
        ..params()
    };
    let engine = Engine::new(presets::fully_heterogeneous());
    for table in [
        target_table(
            &s,
            &heterospec::hetero::par::atdca::run(&engine, &s.cube, &p, &RunOptions::hetero())
                .result,
        ),
        target_table(
            &s,
            &heterospec::hetero::par::ufcls::run(&engine, &s.cube, &p, &RunOptions::hetero())
                .result,
        ),
    ] {
        for m in table {
            assert!(m.sad < 0.01, "hot spot {} missed: SAD {}", m.name, m.sad);
        }
    }
}

/// The paper's core performance claim: on CPU-heterogeneous networks the
/// heterogeneous algorithms beat their homogeneous versions decisively;
/// on the homogeneous network they are no worse than ~equal.
#[test]
fn hetero_dominates_on_heterogeneous_networks() {
    let s = scene();
    let p = params();
    {
        let (run_fn, name) = (
            heterospec::hetero::par::atdca::run
                as fn(&Engine, &_, &_, &_) -> heterospec::hetero::ParallelRun<_>,
            "ATDCA",
        );
        let het_net = Engine::new(presets::fully_heterogeneous());
        let hom_net = Engine::new(presets::fully_homogeneous());
        let t_het_on_het = run_fn(&het_net, &s.cube, &p, &RunOptions::hetero())
            .report
            .total_time;
        let t_hom_on_het = run_fn(&het_net, &s.cube, &p, &RunOptions::homo())
            .report
            .total_time;
        let t_het_on_hom = run_fn(&hom_net, &s.cube, &p, &RunOptions::hetero())
            .report
            .total_time;
        let t_hom_on_hom = run_fn(&hom_net, &s.cube, &p, &RunOptions::homo())
            .report
            .total_time;
        assert!(
            t_hom_on_het > 2.0 * t_het_on_het,
            "{name}: homo {t_hom_on_het} vs hetero {t_het_on_het} on het net"
        );
        assert!(
            t_het_on_hom < 1.2 * t_hom_on_hom,
            "{name}: hetero {t_het_on_hom} vs homo {t_hom_on_hom} on hom net"
        );
    }
}

/// Classification quality: MORPH beats PCT on the debris classes (the
/// paper's Table 4 conclusion) and both run end-to-end on all networks.
#[test]
fn morph_beats_pct_on_debris_classes() {
    let s = scene();
    let p = params();
    let engine = Engine::new(presets::fully_heterogeneous());
    let morph = heterospec::hetero::par::morph::run(&engine, &s.cube, &p, &RunOptions::hetero());
    let pct = heterospec::hetero::par::pct::run(&engine, &s.cube, &p, &RunOptions::hetero());
    let a_morph = debris_accuracy(&s, &morph.result.0, 7).overall;
    let a_pct = debris_accuracy(&s, &pct.result.0, 7).overall;
    assert!(
        a_morph > a_pct,
        "MORPH {a_morph:.1}% should beat PCT {a_pct:.1}%"
    );
    assert!(a_morph > 50.0, "MORPH accuracy too low: {a_morph:.1}%");
}

/// Full determinism: two identical parallel runs give identical results
/// and identical virtual times, despite real multithreading.
#[test]
fn parallel_runs_are_deterministic() {
    let s = scene();
    let p = params();
    let run = || {
        let engine = Engine::new(presets::fully_heterogeneous());
        let r = heterospec::hetero::par::morph::run(&engine, &s.cube, &p, &RunOptions::hetero());
        (r.result.0, r.report)
    };
    let (labels_a, report_a) = run();
    let (labels_b, report_b) = run();
    assert_eq!(
        labels_a.as_slice(),
        labels_b.as_slice(),
        "labels differ between runs"
    );
    assert_eq!(
        report_a.total_time, report_b.total_time,
        "total time differs between runs"
    );
    assert_eq!(
        report_a.decomposition().com,
        report_b.decomposition().com,
        "COM differs between runs"
    );
}

/// Exact-overlap MORPH on any processor count reproduces the sequential
/// MEI-derived labels when the candidate sets coincide — here we check
/// the weaker, always-true invariant: every pixel is labeled and the
/// label set is bounded by the representative count.
#[test]
fn morph_labels_well_formed_across_platforms() {
    let s = scene();
    let p = params();
    for cpus in [2usize, 5, 16] {
        let engine = Engine::new(presets::thunderhead(cpus));
        let options = RunOptions {
            morph_overlap: OverlapPolicy::Exact,
            ..RunOptions::hetero()
        };
        let run = heterospec::hetero::par::morph::run(&engine, &s.cube, &p, &options);
        let (labels, reps) = &run.result;
        assert_eq!(labels.lines(), s.cube.lines());
        assert!(!reps.is_empty() && reps.len() <= p.num_classes);
        for &l in labels.as_slice() {
            assert!((l as usize) < reps.len());
        }
    }
}

/// Degenerate geometry: more processors than image lines — some ranks
/// legitimately receive zero rows and every algorithm must still
/// terminate with correct results.
#[test]
fn more_processors_than_lines() {
    let s = testutil::scene(5, 24, 32);
    let p = AlgoParams {
        num_targets: 4,
        num_classes: 4,
        morph_iterations: 2,
        ..Default::default()
    };
    let engine = Engine::new(presets::thunderhead(9)); // 9 ranks, 5 lines
    let atdca = heterospec::hetero::par::atdca::run(&engine, &s.cube, &p, &RunOptions::homo());
    assert_eq!(atdca.result.len(), 4);
    let seq = heterospec::hetero::seq::atdca(&s.cube, &p);
    for (a, b) in atdca.result.iter().zip(&seq.result) {
        assert_eq!((a.line, a.sample), (b.line, b.sample));
    }
    let morph = heterospec::hetero::par::morph::run(&engine, &s.cube, &p, &RunOptions::homo());
    assert_eq!(morph.result.0.lines(), 5);
    let pct = heterospec::hetero::par::pct::run(&engine, &s.cube, &p, &RunOptions::homo());
    assert_eq!(pct.result.0.lines(), 5);
}

/// Band selection composes with the pipeline: dropping the water
/// absorption windows (standard AVIRIS preprocessing) leaves detection
/// results intact.
#[test]
fn water_band_removal_preserves_detection() {
    use heterospec::cube::synth::bands::good_bands;
    let s = testutil::scene(64, 48, 128);
    let p = AlgoParams {
        num_targets: 14,
        ..Default::default()
    };
    let full = heterospec::hetero::seq::atdca(&s.cube, &p);
    let subset = s.cube.select_bands(&good_bands(128));
    assert!(subset.bands() < 128);
    let reduced = heterospec::hetero::seq::atdca(&subset, &p);
    // The hot spots must still be among the detections (coordinates are
    // band-selection invariant even if the greedy order shifts).
    let reduced_coords: Vec<(usize, usize)> =
        reduced.result.iter().map(|t| (t.line, t.sample)).collect();
    let mut hot_hits = 0;
    for t in &s.targets {
        if reduced_coords.contains(&t.coord) {
            hot_hits += 1;
        }
    }
    // Some per-fire emission features sit inside the removed windows,
    // so a detection or two may legitimately drop.
    assert!(
        hot_hits >= 5,
        "only {hot_hits}/7 hot spots survive band removal"
    );
    let _ = full;
}

/// The supervised SAM ceiling: classification with the true library
/// beats every unsupervised method, and the unsupervised MORPH gets
/// close to it.
#[test]
fn sam_ceiling_vs_unsupervised_morph() {
    use heterospec::cube::library::SpectralLibrary;
    let s = scene();
    let p = params();
    let lib = SpectralLibrary::from_scene(&s);
    let sam = lib.classify(&s.cube, f64::INFINITY);
    let ceiling = debris_accuracy(&s, &sam, 7).overall;
    let engine = Engine::new(presets::fully_heterogeneous());
    let morph = heterospec::hetero::par::morph::run(&engine, &s.cube, &p, &RunOptions::hetero());
    let unsup = debris_accuracy(&s, &morph.result.0, 7).overall;
    assert!(ceiling >= unsup - 1.0, "ceiling {ceiling} vs morph {unsup}");
    assert!(
        unsup > 0.7 * ceiling,
        "MORPH ({unsup:.1}) should approach the SAM ceiling ({ceiling:.1})"
    );
}

/// Memory bounds: a platform whose nodes cannot hold the whole image
/// still partitions successfully (WEA's recursive redistribution), and
/// an impossible image panics cleanly.
#[test]
fn memory_bounded_partitioning() {
    use heterospec::simnet::{Platform, ProcessorSpec};
    let tiny_mem = |mb: u64| -> Platform {
        let procs = (0..4)
            .map(|i| ProcessorSpec {
                name: format!("n{i}"),
                arch: "test",
                cycle_time: 0.01,
                memory_mb: mb,
                cache_kb: 0,
                segment: 0,
                device: None,
            })
            .collect();
        let links = (0..4)
            .map(|i| (0..4).map(|j| if i == j { 0.0 } else { 1.0 }).collect())
            .collect();
        Platform::new("tiny-mem", procs, links)
    };
    let s = scene(); // 96x64x96 f32 = ~2.3 MB => ~0.6 MB per node needed
    let p = params();
    let engine = Engine::new(tiny_mem(1)); // 1 MB per node: tight but fits 4x
    let run = heterospec::hetero::par::atdca::run(&engine, &s.cube, &p, &RunOptions::hetero());
    assert_eq!(run.result.len(), p.num_targets);
}

/// One rank is the sequential algorithm: on a one-processor platform the
/// partitioned runs return, bit for bit, what `seq` returns — for all
/// four algorithms, under both partitioning strategies.
#[test]
fn one_rank_is_seq() {
    use heterospec::hetero::{par, seq, OutputDigest};
    let s = testutil::tiny_scene();
    let (cube, p) = (&s.cube, testutil::params(6, 5));
    let engine = Engine::new(presets::thunderhead(1));
    let want = [
        seq::atdca(cube, &p).result.digest64(),
        seq::ufcls(cube, &p).result.digest64(),
        seq::pct(cube, &p).result.digest64(),
        seq::morph(cube, &p).result.digest64(),
    ];
    for options in [RunOptions::hetero(), RunOptions::homo()] {
        let got = [
            par::atdca::run(&engine, cube, &p, &options)
                .result
                .digest64(),
            par::ufcls::run(&engine, cube, &p, &options)
                .result
                .digest64(),
            par::pct::run(&engine, cube, &p, &options).result.digest64(),
            par::morph::run(&engine, cube, &p, &options)
                .result
                .digest64(),
        ];
        assert_eq!(got, want, "{:?}", options.strategy);
    }
}
