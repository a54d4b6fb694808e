//! Property-based tests (proptest) over the core data structures and
//! invariants of the workspace.

use heterospec::cube::metrics::{brightness, euclidean, sad};
use heterospec::cube::HyperCube;
use heterospec::hetero::wea;
use heterospec::linalg::covariance::CovarianceAccumulator;
use heterospec::linalg::lstsq;
use heterospec::linalg::lu::LuDecomposition;
use heterospec::linalg::matrix::axpy;
use heterospec::linalg::ortho::OrthoBasis;
use heterospec::linalg::Matrix;
use proptest::prelude::*;

fn spectrum(bands: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(0.0f32..1.0, bands)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SAD is a pseudometric on spectra: non-negative, symmetric, zero
    /// on identical inputs, bounded by π.
    #[test]
    fn sad_is_pseudometric(x in spectrum(32), y in spectrum(32)) {
        let d = sad(&x, &y);
        prop_assert!((0.0..=std::f64::consts::PI + 1e-12).contains(&d));
        prop_assert!((d - sad(&y, &x)).abs() < 1e-12);
        prop_assert!(sad(&x, &x) < 1e-3);
    }

    /// SAD is scale-invariant: SAD(kx, y) = SAD(x, y) for k > 0.
    #[test]
    fn sad_scale_invariant(x in spectrum(32), y in spectrum(32), k in 0.1f32..10.0) {
        let scaled: Vec<f32> = x.iter().map(|&v| v * k).collect();
        prop_assert!((sad(&scaled, &y) - sad(&x, &y)).abs() < 1e-4);
    }

    /// Triangle inequality for SAD on non-negative spectra.
    #[test]
    fn sad_triangle(a in spectrum(16), b in spectrum(16), c in spectrum(16)) {
        prop_assert!(sad(&a, &c) <= sad(&a, &b) + sad(&b, &c) + 1e-9);
    }

    /// Brightness and Euclidean agree: ||x||^2 = d(x, 0)^2.
    #[test]
    fn brightness_euclidean_consistency(x in spectrum(24)) {
        let zero = vec![0.0f32; 24];
        let d = euclidean(&x, &zero);
        prop_assert!((brightness(&x) - d * d).abs() < 1e-6 * (1.0 + brightness(&x)));
    }

    /// Row apportioning conserves the total and respects proportionality
    /// within one row.
    #[test]
    fn apportion_conserves(fracs in proptest::collection::vec(0.01f64..1.0, 2..20),
                           total in 1usize..5000) {
        let sum: f64 = fracs.iter().sum();
        let normed: Vec<f64> = fracs.iter().map(|f| f / sum).collect();
        let counts = wea::apportion_rows(&normed, total);
        prop_assert_eq!(counts.iter().sum::<usize>(), total);
        for (c, f) in counts.iter().zip(&normed) {
            let ideal = f * total as f64;
            prop_assert!((*c as f64 - ideal).abs() <= 1.0 + 1e-9);
        }
    }

    /// Memory-bounded redistribution conserves totals and respects caps.
    #[test]
    fn memory_bounds_conserve(counts in proptest::collection::vec(0usize..100, 3..8),
                              extra in 0usize..50) {
        let total: usize = counts.iter().sum();
        let n = counts.len();
        let fracs = vec![1.0 / n as f64; n];
        // Caps that definitely fit: per-node cap = total, plus slack.
        let caps: Vec<usize> = counts.iter().map(|c| c + extra + total / n + 1).collect();
        let out = wea::apply_memory_bounds(&counts, &fracs, &caps).unwrap();
        prop_assert_eq!(out.iter().sum::<usize>(), total);
        for (o, cap) in out.iter().zip(&caps) {
            prop_assert!(o <= cap);
        }
    }

    /// Covariance accumulation is merge-invariant: any split of the
    /// sample stream merges to the same statistics.
    #[test]
    fn covariance_merge_invariant(samples in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 4), 2..40),
            split in 0usize..40) {
        let split = split % samples.len();
        let mut whole = CovarianceAccumulator::new(4);
        for s in &samples { whole.push(s); }
        let mut a = CovarianceAccumulator::new(4);
        let mut b = CovarianceAccumulator::new(4);
        for s in &samples[..split] { a.push(s); }
        for s in &samples[split..] { b.push(s); }
        a.merge(&b).unwrap();
        prop_assert_eq!(a.count(), whole.count());
        let ca = a.covariance().unwrap();
        let cw = whole.covariance().unwrap();
        prop_assert!(ca.approx_eq(&cw, 1e-9));
    }

    /// LU solves random diagonally-dominant systems to high accuracy.
    #[test]
    fn lu_solves_dominant_systems(vals in proptest::collection::vec(-1.0f64..1.0, 16),
                                  rhs in proptest::collection::vec(-1.0f64..1.0, 4)) {
        let mut a = Matrix::from_vec(4, 4, vals);
        for i in 0..4 { a[(i, i)] += 5.0; }
        let x = LuDecomposition::new(&a).unwrap().solve(&rhs).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (p, q) in ax.iter().zip(&rhs) {
            prop_assert!((p - q).abs() < 1e-9);
        }
    }

    /// FCLS abundances always satisfy both constraints on random
    /// problems with well-separated endmembers.
    #[test]
    fn fcls_constraints_hold(a0 in 0.0f64..1.0, seedpx in proptest::collection::vec(0.01f64..1.0, 8)) {
        let u = Matrix::from_rows(&[
            &[1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05],
            &[0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0],
        ]);
        // Mix plus perturbation.
        let mut x = vec![0.0; 8];
        axpy(a0, u.row(0), &mut x);
        axpy(1.0 - a0, u.row(1), &mut x);
        for (xi, p) in x.iter_mut().zip(&seedpx) {
            *xi += 0.01 * p;
        }
        let r = lstsq::fcls(&u, &x).unwrap();
        let sum: f64 = r.abundances.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-3, "sum = {}", sum);
        for &a in &r.abundances {
            prop_assert!(a >= 0.0);
        }
    }

    /// The orthogonal-complement score is bounded by the squared norm
    /// and decreases (weakly) as the basis grows.
    #[test]
    fn complement_score_monotone(x in proptest::collection::vec(-1.0f64..1.0, 12),
                                 b1 in proptest::collection::vec(-1.0f64..1.0, 12),
                                 b2 in proptest::collection::vec(-1.0f64..1.0, 12)) {
        let mut basis = OrthoBasis::new(12);
        let norm2: f64 = x.iter().map(|v| v * v).sum();
        let s0 = basis.complement_score(&x);
        prop_assert!((s0 - norm2).abs() < 1e-9);
        basis.push(&b1);
        let s1 = basis.complement_score(&x);
        basis.push(&b2);
        let s2 = basis.complement_score(&x);
        prop_assert!(s1 <= s0 + 1e-9);
        prop_assert!(s2 <= s1 + 1e-9);
    }

    /// Cube line extraction is consistent with pixel indexing for any
    /// geometry.
    #[test]
    fn cube_extraction_consistent(lines in 1usize..12, samples in 1usize..12,
                                  bands in 1usize..8, first in 0usize..12, n in 1usize..12) {
        let first = first % lines;
        let n = 1 + (n % (lines - first));
        let mut cube = HyperCube::zeros(lines, samples, bands);
        for i in 0..cube.num_pixels() {
            let (l, s) = cube.coord_of(i);
            cube.pixel_mut(l, s)[0] = (l * 100 + s) as f32;
        }
        let sub = cube.extract_lines(first, n);
        prop_assert_eq!(sub.lines(), n);
        for l in 0..n {
            for s in 0..samples {
                prop_assert_eq!(sub.pixel(l, s), cube.pixel(first + l, s));
            }
        }
    }

    /// A block with its overlap border is a window on the cube's own
    /// samples: it reads, under every accessor, as the copy it used to
    /// be, shares the cube's storage, and a write on either side never
    /// shows through on the other.
    #[test]
    fn cube_window_equals_the_copy(lines in 1usize..10, samples in 1usize..6, bands in 1usize..6,
                                   first in 0usize..10, n in 0usize..10, overlap in 0usize..4,
                                   seed in 0u32..1000) {
        let first = first % lines;
        let n = n % (lines - first + 1);
        let data: Vec<f32> = (0..lines * samples * bands)
            .map(|i| ((i as u32 ^ seed).wrapping_mul(2_654_435_761) >> 20) as f32)
            .collect();
        let mut cube = HyperCube::from_vec(lines, samples, bands, data.clone());
        let (win, pre) = cube.extract_lines_with_overlap(first, n, overlap);
        let lo = first.saturating_sub(overlap);
        let hi = (first + n + overlap).min(lines);
        let row = samples * bands;
        let copy = HyperCube::from_vec(hi - lo, samples, bands, data[lo * row..hi * row].to_vec());

        prop_assert_eq!(pre, first - lo);
        prop_assert_eq!(win.as_slice(), copy.as_slice());
        prop_assert_eq!(win.size_bytes(), copy.size_bytes());
        prop_assert!(win == copy);
        prop_assert!(win.iter_pixels().eq(copy.iter_pixels()));
        for i in 0..win.num_pixels() {
            let (l, s) = win.coord_of(i);
            prop_assert_eq!(win.pixel_flat(i), copy.pixel_flat(i));
            prop_assert_eq!(win.pixel(l, s), cube.pixel(lo + l, s));
        }
        prop_assert_eq!(win.brightest_pixel(), copy.brightest_pixel());
        prop_assert_eq!(win.mean_spectrum(), copy.mean_spectrum());
        prop_assert_eq!(win.select_bands(&[bands - 1, 0]), copy.select_bands(&[bands - 1, 0]));
        if hi > lo {
            prop_assert!(std::ptr::eq(win.as_slice().as_ptr(), cube.pixel(lo, 0).as_ptr()));
        }
        // An owned-lines window of the halo window composes the offsets.
        let own = win.extract_lines(pre, n);
        prop_assert_eq!(own.as_slice(), &data[first * row..(first + n) * row]);

        // Copy-on-write, both ways round.
        let mut written = win.clone();
        written.as_mut_slice().iter_mut().for_each(|v| *v = -1.0);
        prop_assert_eq!(cube.as_slice(), &data[..]);
        prop_assert!(win == copy);
        cube.pixel_mut(first, 0)[0] = -2.0;
        prop_assert!(win == copy);
        prop_assert_eq!(win.into_vec(), copy.into_vec());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Morphological duality on random cubes: at every pixel, the
    /// erosion-selected neighbour's cumulative distance never exceeds
    /// the dilation-selected neighbour's.
    #[test]
    fn erosion_min_dilation_max(vals in proptest::collection::vec(0.01f32..1.0, 6 * 6 * 3)) {
        use heterospec::morpho::cumdist::cumdist_map;
        use heterospec::morpho::ops::{dilation, erosion};
        use heterospec::morpho::StructuringElement;
        let cube = HyperCube::from_vec(6, 6, 3, vals);
        let se = StructuringElement::square(1);
        let dist = cumdist_map(&cube, &se);
        let ero = erosion(&cube, &se);
        let dil = dilation(&cube, &se);
        for l in 0..6 {
            for s in 0..6 {
                let (el, es) = ero.at(l, s);
                let (dl, ds) = dil.at(l, s);
                prop_assert!(dist[el * 6 + es] <= dist[dl * 6 + ds] + 1e-12);
            }
        }
    }

    /// MEI scores are bounded by π and never decrease with iterations.
    #[test]
    fn mei_bounded_and_monotone(vals in proptest::collection::vec(0.01f32..1.0, 5 * 5 * 2)) {
        use heterospec::morpho::mei::mei;
        use heterospec::morpho::StructuringElement;
        let cube = HyperCube::from_vec(5, 5, 2, vals);
        let se = StructuringElement::square(1);
        let one = mei(&cube, &se, 1);
        let two = mei(&cube, &se, 2);
        for (a, b) in one.scores.iter().zip(&two.scores) {
            prop_assert!(*a >= 0.0 && *a <= std::f64::consts::PI + 1e-12);
            prop_assert!(b + 1e-12 >= *a, "scores must be max-accumulated");
        }
    }

    /// Serial-link reservations never overlap and respect request times.
    #[test]
    fn contention_serializes(durations in proptest::collection::vec(0.01f64..2.0, 1..12),
                             earliest in proptest::collection::vec(0.0f64..5.0, 1..12)) {
        use heterospec::simnet::contention::LinkLedger;
        let mut links = LinkLedger::new();
        let n = durations.len().min(earliest.len());
        let mut intervals: Vec<(f64, f64)> = Vec::new();
        for i in 0..n {
            let start = links.reserve(0, 1, earliest[i], durations[i]);
            prop_assert!(start >= earliest[i] - 1e-12);
            intervals.push((start, start + durations[i]));
        }
        intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in intervals.windows(2) {
            prop_assert!(w[1].0 >= w[0].1 - 1e-12, "overlap: {w:?}");
        }
    }

    /// Allreduce agrees with a sequential fold of every rank's
    /// contribution, for arbitrary payload sizes, platforms, and
    /// backends — delivered to **every** rank.
    #[test]
    fn allreduce_agrees_with_sequential_fold(seed in 0u64..1_000, p in 2usize..12,
                                             len in 1usize..300, backend in 0usize..5) {
        use heterospec::simnet::engine::{Engine, WireVec};
        use heterospec::simnet::{coll, presets, CollAlgorithm, CollectiveConfig};
        let backends = [
            CollAlgorithm::Linear,
            CollAlgorithm::BinomialTree,
            CollAlgorithm::SegmentHierarchical,
            CollAlgorithm::PipelinedChunked,
            CollAlgorithm::Auto,
        ];
        let cfg = CollectiveConfig {
            allreduce: backends[backend],
            ..CollectiveConfig::linear()
        };
        let platform = presets::random_heterogeneous(seed, p, 3, 0.002, 0.05);
        let report = Engine::new(platform).run(|ctx| {
            let r = ctx.rank() as u32;
            let own: Vec<u32> = (0..len as u32).map(|i| r ^ i.wrapping_mul(2_654_435_761)).collect();
            coll::allreduce(
                ctx,
                &cfg,
                0,
                WireVec(own),
                |a, b| WireVec(a.0.iter().zip(&b.0).map(|(x, y)| x.wrapping_add(*y)).collect()),
                (len * 32) as u64,
            )
            .expect("valid allreduce")
            .0
        });
        let expect: Vec<u32> = (0..len as u32)
            .map(|i| {
                (0..p as u32)
                    .map(|r| r ^ i.wrapping_mul(2_654_435_761))
                    .fold(0u32, u32::wrapping_add)
            })
            .collect();
        for r in 0..p {
            prop_assert_eq!(report.result(r), &expect, "backend {} rank {}", backends[backend], r);
        }
    }

    /// Chunking the pipelined broadcast never changes the delivered
    /// bytes: payloads shorter than, equal to and longer than the chunk
    /// count reach every rank exactly as the linear star delivers them.
    #[test]
    fn broadcast_chunking_never_changes_delivered_bytes(seed in 0u64..1_000, p in 2usize..10,
                                                        len in 1usize..500) {
        use heterospec::simnet::engine::{Engine, WireVec};
        use heterospec::simnet::{coll, presets, CollAlgorithm, CollectiveConfig};
        let platform = presets::random_heterogeneous(seed.wrapping_add(7), p, 3, 0.002, 0.05);
        let payload: Vec<u8> = (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed as u8))
            .collect();
        let deliver = |cfg: CollectiveConfig| {
            let payload = payload.clone();
            let report = Engine::new(platform.clone()).run(move |ctx| {
                let msg = if ctx.is_root() { Some(WireVec(payload.clone())) } else { None };
                coll::broadcast(ctx, &cfg, 0, msg, (len * 8) as u64)
                    .expect("valid broadcast")
                    .0
            });
            (0..p).map(|r| report.result(r).clone()).collect::<Vec<_>>()
        };
        let chunked = deliver(CollectiveConfig {
            broadcast: CollAlgorithm::PipelinedChunked,
            ..CollectiveConfig::linear()
        });
        let linear = deliver(CollectiveConfig::linear());
        for r in 0..p {
            prop_assert_eq!(&chunked[r], &payload, "chunked delivery at rank {}", r);
            prop_assert_eq!(&linear[r], &payload, "linear delivery at rank {}", r);
        }
    }

    /// Makespan WEA fractions are a probability vector that never
    /// starves the fastest processor.
    #[test]
    fn makespan_fractions_sane(mflops in 0.1f64..100.0, mbits in 0.0f64..10.0) {
        use heterospec::hetero::wea::{hetero_fractions, RowCost, WeaConfig};
        let platform = heterospec::simnet::presets::fully_heterogeneous();
        let f = hetero_fractions(
            &platform,
            RowCost { mflops_per_row: mflops, mbits_per_row: mbits, fixed_mflops: 0.0 },
            WeaConfig::default(),
        );
        prop_assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for &x in &f {
            prop_assert!(x >= 0.0);
        }
        // The root has no staging cost and the fastest CPU save one:
        // it always gets at least the uniform share.
        prop_assert!(f[0] >= 1.0 / 16.0 - 1e-9, "root share {}", f[0]);
        // p3 (fast, root's switched segment) never gets less than p10
        // (slowest CPU, behind a serial inter-segment link).
        prop_assert!(f[2] >= f[9] - 1e-12, "p3 {} < p10 {}", f[2], f[9]);
    }
}

/// Pinned counterexample from `tests/properties.proptest-regressions`
/// (upstream proptest shrank to `mflops = 0.1, mbits = 8.91318394720795`):
/// a communication-dominated row cost drove a fast-but-isolated
/// processor's share below the slowest CPU's. Promoted to an explicit
/// test per the policy in `docs/TESTING.md`.
#[test]
fn makespan_fractions_sane_at_the_communication_dominated_corner() {
    use heterospec::hetero::wea::{hetero_fractions, RowCost, WeaConfig};
    let platform = heterospec::simnet::presets::fully_heterogeneous();
    let f = hetero_fractions(
        &platform,
        RowCost {
            mflops_per_row: 0.1,
            mbits_per_row: 8.913_183_947_207_95,
            fixed_mflops: 0.0,
        },
        WeaConfig::default(),
    );
    assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(f.iter().all(|&x| x >= 0.0));
    assert!(f[0] >= 1.0 / 16.0 - 1e-9, "root share {}", f[0]);
    assert!(f[2] >= f[9] - 1e-12, "p3 {} < p10 {}", f[2], f[9]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The profiler's accounting identity is *bitwise* exact on random
    /// platforms, rank counts (2–17), and fault plans, and the critical
    /// path never exceeds the makespan. Crashed ranks profile too —
    /// their wall-clock is the crash instant.
    #[test]
    fn profile_identity_exact_on_random_runs(seed in 0u64..1_000, p in 2usize..18,
                                             crash_pick in 0usize..17,
                                             crash_at in 0.001f64..0.5,
                                             do_crash in 0u8..2) {
        use heterospec::simnet::engine::{Ctx, Engine, WireVec};
        use heterospec::simnet::{presets, FaultPlan};
        let platform = presets::random_heterogeneous(seed, p, 3, 0.002, 0.05);
        let mut plan = FaultPlan::new();
        if do_crash == 1 && p > 1 {
            // Crash a worker (never the root): the master tolerates it
            // through recv_deadline's failure observation.
            plan = plan.crash(1 + crash_pick % (p - 1), crash_at);
        }
        let engine = Engine::new(platform).with_faults(plan).with_profiling(true);
        let report = engine.run(move |ctx: &mut Ctx<WireVec<f32>>| {
            let mut state = seed ^ (ctx.rank() as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15);
            for _ in 0..2 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ctx.compute_par(((state >> 33) % 500) as f64);
                if ctx.is_root() {
                    for src in 1..ctx.num_ranks() {
                        let deadline = ctx.elapsed() + 5.0;
                        // Payloads are irrelevant: timeouts and observed
                        // failures are legitimate outcomes here.
                        let _ = ctx.recv_deadline(src, deadline);
                    }
                } else {
                    ctx.send(0, WireVec(vec![0.0f32; 128]));
                }
            }
            ctx.elapsed()
        });
        let profile = report.profile.as_ref().expect("profiling enabled");
        prop_assert_eq!(profile.ranks.len(), p);
        for r in &profile.ranks {
            prop_assert!(
                r.identity_holds(),
                "rank {}: accounted {:e} ({:#x}) != wall {:e} ({:#x})",
                r.rank,
                r.phases.accounted(),
                r.phases.accounted().to_bits(),
                r.wall,
                r.wall.to_bits()
            );
        }
        prop_assert!(
            profile.critical_path.length <= profile.makespan,
            "critical path {:e} exceeds makespan {:e}",
            profile.critical_path.length,
            profile.makespan
        );
        prop_assert!(profile.path_bounded());
    }
}

/// The engine's virtual timestamps are deterministic under arbitrary
/// (valid) master/worker traffic patterns.
#[test]
fn engine_determinism_random_traffic() {
    use heterospec::simnet::engine::{Ctx, Engine, WireVec};
    use heterospec::simnet::presets;
    let run = |seed: u64| {
        let engine = Engine::new(presets::fully_heterogeneous());
        let report = engine.run(move |ctx: &mut Ctx<WireVec<f32>>| {
            // Pseudo-random per-rank compute, then a gather+broadcast.
            let mut state = seed ^ (ctx.rank() as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15);
            for _ in 0..3 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let mflops = ((state >> 33) % 1000) as f64;
                ctx.compute_par(mflops);
                if ctx.is_root() {
                    for src in 1..ctx.num_ranks() {
                        let _ = ctx.recv(src);
                    }
                    for dst in 1..ctx.num_ranks() {
                        ctx.send(dst, WireVec(vec![0.0f32; 64]));
                    }
                } else {
                    ctx.send(0, WireVec(vec![0.0f32; 256]));
                    let _ = ctx.recv(0);
                }
            }
            ctx.elapsed()
        });
        report.results
    };
    for seed in [1u64, 42, 20010916] {
        assert_eq!(run(seed), run(seed), "seed {seed} not deterministic");
    }
}
