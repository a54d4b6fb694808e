//! Per-layer probes of the traced run. Every probe measures a layer
//! **from outside** — it times (or reads the report of) a call into a
//! public function — inside a harness span named after the layer.
//!
//! Kernel and library probes run single-threaded over the whole
//! `net16-static` cube and report the best of a few repetitions; the
//! engine-level probes re-run one pass of each engine workload, once
//! with the engine's tracer off (host seconds) and once with it on
//! (message counts, COM/SEQ/PAR split, critical path).

use crate::algos::{run_par, Algo, FtDriver, Output, Run};
use crate::spans::Spans;
use crate::spec;
use crate::verify::Verifier;
use crate::workloads::{
    par_pass, seq_pass, synth_scene, Fixture, Pass, PassRun, Workload, SCENE_DIMS,
};
use hetero_hsi::{kernels, wea, FtOptions, OffloadPolicy, RunOptions};
use hsi_cube::io::envi;
use hsi_cube::HyperCube;
use hsi_linalg::covariance::CovarianceAccumulator;
use hsi_linalg::eigen::SymmetricEigen;
use hsi_linalg::lstsq::FclsProblem;
use hsi_linalg::ortho::OrthoBasis;
use hsi_linalg::Matrix;
use hsi_morpho::StructuringElement;
use simnet::engine::WireVec;
use simnet::trace::TraceKind;
use simnet::{presets, CollAlgorithm, CollectiveConfig, Ctx, Engine, Platform, RunReport};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Measured per-layer values by metric name. Inserting a name twice is
/// a harness bug and is reported, not overwritten.
#[derive(Debug, Default)]
pub struct Layers {
    /// The values.
    pub values: BTreeMap<String, f64>,
    /// Harness-side problems found while probing.
    pub complaints: Vec<String>,
}

impl Layers {
    /// Records `value` under `name`.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        if self.values.insert(name.clone(), value).is_some() {
            self.complaints.push(format!("{name} was measured twice"));
        }
    }
}

/// Smallest wall time of `reps` calls of `f`, in seconds.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Messages a profiled run sent, read from outside: every `Ctx::send`
/// charges the sender exactly one platform message latency, which the
/// engine's profiler books as that rank's `send_wait` phase — so the
/// phase total over the latency is the send count. (Sends a master
/// makes inside an ft recovery window are booked as `recovery` instead,
/// so for faulted ft runs this is a lower bound; it still repeats
/// exactly.) The star probe checks the identity against a real count of
/// `TraceKind::Send` events.
pub fn sends_of(report: &RunReport<()>, platform: &Platform) -> Option<f64> {
    let latency = platform.msg_latency_s();
    report.profile.as_ref().map(|profile| {
        profile
            .ranks
            .iter()
            .map(|rank| (rank.phases.send_wait / latency).round())
            .sum()
    })
}

fn finished(pass: &Pass) -> impl Iterator<Item = (&PassRun, &Run)> {
    pass.runs
        .iter()
        .filter_map(|run| run.result.as_ref().ok().map(|done| (run, done)))
}

fn reports(pass: &Pass) -> impl Iterator<Item = &RunReport<()>> {
    finished(pass).filter_map(|(_, run)| run.report.as_ref())
}

fn virtual_s(pass: &Pass) -> f64 {
    finished(pass).map(|(_, run)| run.virtual_s).sum()
}

/// In-process calibration over the cube's footprint: STREAM-style triad
/// bandwidth and f32 dot throughput — the denominators of `stream_frac`.
fn calibrate(layers: &mut Layers, cube: &HyperCube) -> f64 {
    let len = cube.as_slice().len();
    let b = vec![1.0f32; len];
    let c = vec![2.0f32; len];
    let mut a = vec![0.0f32; len];
    let triad_s = best_of(5, || {
        for ((a, &b), &c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + 3.0 * c;
        }
        black_box(&mut a);
    });
    let triad_bytes_per_s = (3 * 4 * len) as f64 / triad_s;
    layers.put("calib.triad_gb_per_s", triad_bytes_per_s / 1e9);
    let dot_s = best_of(5, || {
        black_box(&b)
            .iter()
            .zip(black_box(&c))
            .map(|(&x, &y)| x * y)
            .sum::<f32>()
    });
    layers.put("calib.dot_gflops", 2.0 * len as f64 / dot_s / 1e9);
    triad_bytes_per_s
}

fn probe_cube_io(layers: &mut Layers, fixture: &Fixture, seed: u64, out_dir: &Path) {
    let dims = SCENE_DIMS;
    let synth_s = best_of(3, || synth_scene(dims, seed));
    layers.put("hsi_cube.synth.wtc_scene_s", synth_s);
    layers.put(
        "hsi_cube.synth.mpx_per_s",
        (dims.0 * dims.1) as f64 / 1e6 / synth_s,
    );
    let cube = &fixture.scene.cube;
    let raw = out_dir.join(format!("envi-probe-{}.raw", std::process::id()));
    let megabytes = cube.size_bytes() as f64 / 1e6;
    let write_s = best_of(3, || envi::write_cube(cube, &raw));
    let mut round_trip_ok = true;
    let read_s = best_of(3, || {
        round_trip_ok &= envi::read_cube(&raw).is_ok_and(|back| back == *cube);
    });
    if !round_trip_ok {
        layers
            .complaints
            .push("hsi_cube.envi: the cube did not survive the round trip".into());
    }
    let _ = std::fs::remove_file(envi::header_path(&raw));
    let _ = std::fs::remove_file(&raw);
    layers.put("hsi_cube.envi.write_mb_per_s", megabytes / write_s);
    layers.put("hsi_cube.envi.read_mb_per_s", megabytes / read_s);
}

/// The round-constant inputs the kernels take, rebuilt from the
/// sequential references: the 17-vector ATDCA basis, the 18-endmember
/// FCLS system, PCT's model and MORPH's class spectra.
struct KernelInputs<'a> {
    basis: OrthoBasis,
    problem: FclsProblem,
    pct: &'a hetero_hsi::seq::PctModel,
    classes: &'a [Vec<f32>],
}

fn kernel_inputs(fixture: &Fixture) -> Option<KernelInputs<'_>> {
    let widen = |s: &[f32]| s.iter().map(|&v| f64::from(v)).collect::<Vec<f64>>();
    let Output::Targets(atdca) = &fixture.reference_of(Algo::Atdca).output else {
        return None;
    };
    let Output::Targets(ufcls) = &fixture.reference_of(Algo::Ufcls).output else {
        return None;
    };
    let Output::Pct((_, pct)) = &fixture.reference_of(Algo::Pct).output else {
        return None;
    };
    let Output::Morph((_, classes)) = &fixture.reference_of(Algo::Morph).output else {
        return None;
    };
    let mut basis = OrthoBasis::new(fixture.scene.cube.bands());
    for target in atdca.iter().take(fixture.params.num_targets - 1) {
        basis.push(&widen(&target.spectrum));
    }
    let rows: Vec<Vec<f64>> = ufcls.iter().map(|t| widen(&t.spectrum)).collect();
    let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let problem = FclsProblem::new(Matrix::from_rows(&rows)).ok()?;
    Some(KernelInputs {
        basis,
        problem,
        pct,
        classes,
    })
}

fn probe_linalg_morpho(layers: &mut Layers, fixture: &Fixture, inputs: &KernelInputs<'_>) {
    let cube = &fixture.scene.cube;
    let pixels = cube.num_pixels();
    let pxband = (pixels * cube.bands()) as f64;

    let mut acc = CovarianceAccumulator::new(cube.bands());
    let push_s = best_of(3, || {
        acc = CovarianceAccumulator::new(cube.bands());
        acc.push_pixels_f32(cube.as_slice());
    });
    layers.put(
        "hsi_linalg.cov.push_ns_per_px",
        push_s * 1e9 / pixels as f64,
    );
    match acc.covariance() {
        Ok(cov) => layers.put(
            "hsi_linalg.eigen.sym224_ms",
            best_of(3, || SymmetricEigen::new(&cov).map(|e| e.dim())) * 1e3,
        ),
        Err(e) => layers.complaints.push(format!("hsi_linalg.eigen: {e}")),
    }
    let sample = pixels.min(2048);
    let solve_s = best_of(3, || {
        (0..sample)
            .map(|i| {
                inputs
                    .problem
                    .solve_f32(cube.pixel_flat(i))
                    .map_or(0.0, |u| u.residual_sq)
            })
            .sum::<f64>()
    });
    layers.put("hsi_linalg.fcls.solve_ns", solve_s * 1e9 / sample as f64);
    let wide: Vec<Vec<f64>> = (0..sample)
        .map(|i| cube.pixel_flat(i).iter().map(|&v| f64::from(v)).collect())
        .collect();
    let score_s = best_of(3, || {
        wide.iter()
            .map(|px| inputs.basis.complement_score(px))
            .sum::<f64>()
    });
    layers.put("hsi_linalg.ortho.score_ns", score_s * 1e9 / sample as f64);

    let se = StructuringElement::square(fixture.params.se_radius);
    layers.put(
        "hsi_morpho.erosion.ns_per_pxband",
        best_of(3, || hsi_morpho::ops::erosion(cube, &se)) * 1e9 / pxband,
    );
    layers.put(
        "hsi_morpho.dilation.ns_per_pxband",
        best_of(3, || hsi_morpho::ops::dilation(cube, &se)) * 1e9 / pxband,
    );
    layers.put(
        "hsi_morpho.mei.ms",
        best_of(3, || {
            hsi_morpho::mei::mei(cube, &se, fixture.params.morph_iterations)
        }) * 1e3,
    );
}

fn probe_kernels(
    layers: &mut Layers,
    spans: &Spans,
    fixture: &Fixture,
    inputs: &KernelInputs<'_>,
    triad_bytes_per_s: f64,
) {
    let cube = &fixture.scene.cube;
    let params = &fixture.params;
    let whole = (0, cube.lines());
    let pxband = (cube.num_pixels() * cube.bands()) as f64;
    let stream_s = cube.size_bytes() as f64 / triad_bytes_per_s;
    let se = StructuringElement::square(params.se_radius);
    // `(kernel, f)` where `f(range)` runs the kernel on a line range and
    // returns the analytic megaflops it reports.
    type Kernel<'k> = Box<dyn Fn((usize, usize)) -> f64 + 'k>;
    let table: [(&str, Kernel<'_>); 8] = [
        ("brightest", Box::new(|r| kernels::brightest(cube, r).1)),
        (
            "max_projection",
            Box::new(|r| kernels::max_projection(cube, &inputs.basis, r).1),
        ),
        (
            "max_fcls_error",
            Box::new(|r| kernels::max_fcls_error(cube, &inputs.problem, r).1),
        ),
        (
            "unique_set",
            Box::new(|r| {
                kernels::unique_set(cube, r, params.sad_threshold, 4 * params.num_classes).1
            }),
        ),
        (
            "covariance_partial",
            Box::new(|r| kernels::covariance_partial(cube, r).1),
        ),
        (
            "pct_label",
            Box::new(|r| {
                let pct = inputs.pct;
                kernels::pct_label(cube, r, &pct.transform, &pct.mean, &pct.class_reps).1
            }),
        ),
        (
            "sad_label",
            Box::new(|r| kernels::sad_label(cube, r, inputs.classes).1),
        ),
        (
            "mei_top",
            Box::new(|r| {
                kernels::mei_top(
                    cube,
                    &se,
                    params.morph_iterations,
                    r,
                    params.num_classes,
                    params.sad_threshold,
                )
                .1
            }),
        ),
    ];
    debug_assert!(table.iter().map(|(k, _)| *k).eq(spec::KERNELS));
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim's pool builder cannot fail");
    one_thread.install(|| {
        for (name, kernel) in &table {
            spans.scope(&format!("hetero.kernels.{name}"), || {
                let mut mflop = 0.0;
                let secs = best_of(5, || mflop = kernel(whole));
                layers.put(
                    format!("hetero.kernels.{name}.ns_per_pxband"),
                    secs * 1e9 / pxband,
                );
                layers.put(
                    format!("hetero.kernels.{name}.stream_frac"),
                    stream_s / secs,
                );
                layers.put(format!("hetero.kernels.{name}.mflop"), mflop);
                if spec::CHUNKED_KERNELS.contains(name) {
                    let chunked_s = best_of(5, || {
                        (0..cube.lines())
                            .step_by(8)
                            .map(|lo| kernel((lo, (lo + 8).min(cube.lines()))))
                            .sum::<f64>()
                    });
                    layers.put(
                        format!("hetero.kernels.{name}.chunk8_ns_per_pxband"),
                        chunked_s * 1e9 / pxband,
                    );
                }
            });
        }
    });
}

/// `rounds` star rounds: the root sends a 224-float vector to every
/// rank and collects a reply from each.
fn star_program(rounds: usize) -> impl Fn(&mut Ctx<WireVec<f32>>) + Sync {
    move |ctx| {
        let payload = || WireVec(vec![0.5f32; 224]);
        for _ in 0..rounds {
            if ctx.rank() == 0 {
                for dst in 1..ctx.num_ranks() {
                    ctx.send(dst, payload());
                }
                for src in 1..ctx.num_ranks() {
                    black_box(ctx.recv(src));
                }
            } else {
                black_box(ctx.recv(0));
                ctx.send(0, payload());
            }
        }
    }
}

fn probe_engine_micro(layers: &mut Layers) {
    for p in [16usize, 64, 256] {
        let engine = Engine::new(presets::thunderhead(p));
        let spinup_s = best_of(3, || engine.run(|_ctx: &mut Ctx<()>| ()).total_time);
        layers.put(format!("simnet.engine.spinup_ms.p{p}"), spinup_s * 1e3);
    }
    const ROUNDS: usize = 18;
    for p in [16usize, 256] {
        let platform = presets::thunderhead(p);
        let engine = Engine::new(platform.clone());
        let (report, trace) = engine.run_traced(star_program(ROUNDS));
        let counted = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Send { .. }))
            .count() as f64;
        let derived = sends_of(&report, &platform);
        if counted != (ROUNDS * (p - 1) * 2) as f64 || derived != Some(counted) {
            layers.complaints.push(format!(
                "simnet.engine star p{p}: {counted} Send events, {derived:?} derived from send_wait"
            ));
        }
        let star_s = best_of(3, || engine.run(star_program(ROUNDS)).total_time);
        layers.put(
            format!("simnet.engine.star_msgs_per_s.p{p}"),
            counted / star_s,
        );
    }
}

/// What the two probe passes of one engine workload yield.
struct EnginePasses {
    /// Tracer off: host seconds.
    plain: Pass,
    /// Tracer on: profiles attached to every report.
    profiled: Pass,
    msgs: f64,
}

fn engine_passes(
    layers: &mut Layers,
    spans: &Spans,
    fixture: &Fixture,
    verifier: &mut Verifier,
) -> EnginePasses {
    let w = fixture.workload.name();
    let options = FtOptions::default();
    let plain = spans.scope(&format!("{w}.pass"), || {
        fixture.pass_with(spans, false, &options)
    });
    fixture.judge(&plain, verifier);
    let profiled = spans.scope(&format!("{w}.pass.profiled"), || {
        fixture.pass_with(spans, true, &options)
    });
    fixture.judge(&profiled, verifier);
    let platform = fixture
        .workload
        .platform()
        .expect("engine workloads have a platform");
    let msgs = reports(&profiled)
        .filter_map(|r| sends_of(r, &platform))
        .sum();
    let (mut com, mut seq, mut par) = (0.0, 0.0, 0.0);
    for report in reports(&profiled) {
        let split = report.decomposition();
        com += split.com;
        seq += split.seq;
        par += split.par;
    }
    layers.put(format!("simnet.engine.{w}.msgs"), msgs);
    layers.put(format!("simnet.engine.{w}.virt_com_s"), com);
    layers.put(format!("simnet.engine.{w}.virt_seq_s"), seq);
    layers.put(format!("simnet.engine.{w}.virt_par_s"), par);
    EnginePasses {
        plain,
        profiled,
        msgs,
    }
}

fn probe_net16(layers: &mut Layers, spans: &Spans, fixture: &Fixture, verifier: &mut Verifier) {
    let platform = presets::fully_heterogeneous();
    let seq = spans.scope("seq-baseline.pass", || {
        seq_pass(spans, &fixture.scene, &fixture.params)
    });
    for (run, _) in finished(&seq) {
        layers.put(format!("{}.wall_s", run.label), run.wall_s);
    }
    let passes = engine_passes(layers, spans, fixture, verifier);
    for (run, _) in finished(&passes.plain) {
        layers.put(format!("{}.wall_s", run.label), run.wall_s);
    }
    let (mut class_acc, mut class_agree) = (Vec::new(), Vec::new());
    for (run, done) in finished(&passes.profiled) {
        layers.put(format!("{}.virtual_s", run.label), done.virtual_s);
        let msgs = done.report.as_ref().and_then(|r| sends_of(r, &platform));
        layers.put(format!("{}.msgs", run.label), msgs.unwrap_or(f64::NAN));
        if !run.algo.detects_targets() {
            class_acc.push(done.output.quality(&fixture.scene, &fixture.params));
            class_agree.push(
                done.output
                    .agreement(&fixture.reference_of(run.algo).output),
            );
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    layers.put("hetero.eval.class_acc", mean(&class_acc));
    layers.put("hetero.eval.class_agree", mean(&class_agree));
    layers.put("hetero.par.cpu_over_seq", passes.plain.cpu_s / seq.cpu_s);

    let profiles: Vec<_> = reports(&passes.profiled)
        .filter_map(|r| r.profile.as_ref())
        .collect();
    let runs = profiles.len().max(1) as f64;
    layers.put(
        "simnet.prof.overhead_ratio",
        passes.profiled.wall_s / passes.plain.wall_s,
    );
    layers.put(
        "simnet.prof.path_elements",
        profiles
            .iter()
            .map(|p| p.critical_path.elements.len() as f64)
            .sum(),
    );
    layers.put(
        "simnet.prof.top_bottleneck_share",
        profiles
            .iter()
            .map(|p| p.critical_path.bottleneck.share)
            .sum::<f64>()
            / runs,
    );
    layers.put(
        "simnet.prof.fold_exact",
        profiles
            .iter()
            .filter(|p| p.identity_holds() && p.path_bounded())
            .count() as f64
            / runs,
    );
    let (mut copied, mut allocs, mut d_all) = (0u64, 0u64, 0.0);
    for report in reports(&passes.plain) {
        copied += report.copies.bytes_deep_copied;
        allocs += report.copies.allocs_on_hot_path;
        d_all += report.imbalance().d_all;
    }
    layers.put("simnet.coll.bytes_deep_copied", copied as f64);
    layers.put("simnet.coll.allocs_on_hot_path", allocs as f64);
    layers.put(
        "hetero.wea.d_all",
        d_all / reports(&passes.plain).count().max(1) as f64,
    );

    let engine = Engine::new(platform.clone());
    let homo = spans.scope("hetero.wea.homo", || {
        par_pass(
            spans,
            &engine,
            &fixture.scene,
            &fixture.params,
            &RunOptions::homo(),
        )
    });
    layers.put(
        "hetero.wea.homo_over_hetero",
        virtual_s(&homo) / virtual_s(&passes.plain),
    );
    let cube = &fixture.scene.cube;
    let cost = hetero_hsi::par::atdca::row_cost(cube, &fixture.params);
    let config = wea::WeaConfig::default();
    let row_bytes = cube.samples() * cube.bands() * 4;
    const PLANS: usize = 200;
    let plan_s = best_of(3, || {
        for _ in 0..PLANS {
            let fractions = wea::hetero_fractions(&platform, cost, config);
            black_box(
                wea::assignments(&platform, cube.lines(), row_bytes, &fractions, config).ok(),
            );
        }
    });
    layers.put("hetero.wea.plan_us", plan_s * 1e6 / PLANS as f64);

    let accel = Engine::new(presets::accel_heterogeneous());
    let offload = |policy| {
        let options = RunOptions::hetero().with_offload(policy);
        run_par(Algo::Atdca, &accel, cube, &fixture.params, &options).ok()
    };
    spans.scope("hetero.offload", || {
        if let (Some(never), Some(auto)) =
            (offload(OffloadPolicy::Never), offload(OffloadPolicy::Auto))
        {
            layers.put(
                "hetero.offload.auto_over_never",
                auto.virtual_s / never.virtual_s,
            );
            let launches: u64 = auto
                .report
                .iter()
                .flat_map(|r| &r.offloads)
                .map(|o| o.launches)
                .sum();
            layers.put("hetero.offload.launches", launches as f64);
        }
    });
}

fn probe_thunderhead(
    layers: &mut Layers,
    spans: &Spans,
    fixture: &Fixture,
    verifier: &mut Verifier,
) {
    let passes = engine_passes(layers, spans, fixture, verifier);
    layers.put(
        "simnet.engine.thunderhead-scale.host_us_per_msg",
        passes.plain.wall_s * 1e6 / passes.msgs,
    );
    let on = |p: usize| {
        let engine = Engine::new(presets::thunderhead(p));
        spans.scope(&format!("thunderhead.p{p}.pass"), || {
            par_pass(
                spans,
                &engine,
                &fixture.scene,
                &fixture.params,
                &RunOptions::hetero(),
            )
        })
    };
    let p1 = on(1);
    layers.put(
        "simnet.engine.thunderhead-scale.wall_over_p1",
        passes.plain.wall_s / p1.wall_s,
    );
    let sequential = fixture.reference_virtual_s();
    layers.put(
        "simnet.engine.virtual_speedup.p64",
        sequential / virtual_s(&on(64)),
    );
    layers.put(
        "simnet.engine.virtual_speedup.p256",
        sequential / virtual_s(&passes.plain),
    );
}

fn probe_ft(layers: &mut Layers, spans: &Spans, fixture: &Fixture, verifier: &mut Verifier) {
    let passes = engine_passes(layers, spans, fixture, verifier);
    for driver in FtDriver::ALL {
        let d = driver.name();
        let (mut wall, mut virt, mut t0, mut recoveries) = (0.0, 0.0, 0.0, 0usize);
        for (run, done) in finished(&passes.plain).filter(|(run, _)| run.driver == Some(driver)) {
            wall += run.wall_s;
            virt += done.virtual_s;
            t0 += fixture.ft_t0(driver, run.algo).unwrap_or(f64::NAN);
            recoveries += done.recovered.len();
        }
        layers.put(format!("hetero.ft.{d}.wall_s"), wall);
        layers.put(format!("hetero.ft.{d}.virtual_s"), virt);
        layers.put(format!("hetero.ft.{d}.recoveries"), recoveries as f64);
        layers.put(format!("hetero.ft.{d}.virtual_overhead"), (virt - t0) / t0);
    }
    // The survivor-tree state fan-out: measured here only; every timed
    // run is root-mediated (Linear).
    let mut tree = FtOptions::default();
    tree.collectives.broadcast = CollAlgorithm::SegmentHierarchical;
    let pass = spans.scope("hetero.ft.tree", || fixture.pass_with(spans, false, &tree));
    layers.put("hetero.ft.tree.wall_s", pass.wall_s);
    layers.put("hetero.ft.tree.virtual_s", virtual_s(&pass));
}

/// Hetero-ATDCA on the fully heterogeneous network under each
/// collective schedule, on a small (communication-dominated) scene.
fn probe_collectives(layers: &mut Layers, spans: &Spans, fixture: &Fixture, seed: u64) {
    let scene = synth_scene((128, 32), seed);
    let params = &fixture.params;
    let platform = presets::fully_heterogeneous();
    let plain = Engine::new(platform.clone());
    let profiled = plain.clone().with_profiling(true);
    let reference = crate::algos::run_seq(Algo::Atdca, &scene.cube, params)
        .map(|run| run.output.digest())
        .ok();
    let algorithms = [
        CollAlgorithm::Linear,
        CollAlgorithm::BinomialTree,
        CollAlgorithm::SegmentHierarchical,
        CollAlgorithm::PipelinedChunked,
        CollAlgorithm::Auto,
    ];
    let mut identical = 0;
    for (name, algorithm) in spec::COLLECTIVES.into_iter().zip(algorithms) {
        debug_assert_eq!(name, algorithm.to_string());
        let options = RunOptions::hetero().with_collectives(CollectiveConfig::uniform(algorithm));
        spans.scope(&format!("simnet.coll.{name}"), || {
            let start = Instant::now();
            let run = run_par(Algo::Atdca, &plain, &scene.cube, params, &options);
            let wall_s = start.elapsed().as_secs_f64();
            let traced = run_par(Algo::Atdca, &profiled, &scene.cube, params, &options);
            match (run, traced) {
                (Ok(run), Ok(traced)) => {
                    identical += usize::from(Some(run.output.digest()) == reference);
                    layers.put(format!("simnet.coll.{name}.virtual_s"), run.virtual_s);
                    layers.put(format!("simnet.coll.{name}.wall_s"), wall_s);
                    let msgs = traced.report.as_ref().and_then(|r| sends_of(r, &platform));
                    layers.put(format!("simnet.coll.{name}.msgs"), msgs.unwrap_or(f64::NAN));
                }
                (Err(e), _) | (_, Err(e)) => {
                    layers.complaints.push(format!("simnet.coll.{name}: {e}"));
                }
            }
        });
    }
    layers.put("simnet.coll.digest_identical", identical as f64);
}

/// Runs every per-layer probe. `own` is the traced workload's fixture;
/// fixtures of the other engine workloads are built here for the same
/// seed, so a traced run of any workload reports every layer.
pub fn run_all(
    spans: &Spans,
    own: &Fixture,
    seed: u64,
    out_dir: &Path,
    verifier: &mut Verifier,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let mut others: Vec<Fixture> = Vec::new();
    for workload in Workload::ENGINE {
        if workload != own.workload {
            let fixture = spans.scope(&format!("{}.setup", workload.name()), || {
                Fixture::setup(workload, seed, spans, verifier)
            })?;
            others.push(fixture);
        }
    }
    let fixture_of = |workload: Workload| {
        std::iter::once(own)
            .chain(&others)
            .find(|f| f.workload == workload)
            .expect("a fixture was built for every engine workload")
    };
    let net16 = fixture_of(Workload::Net16Static);
    let inputs = kernel_inputs(net16).ok_or("the references do not hold the kernels' inputs")?;

    let triad = spans.scope("calib", || calibrate(&mut layers, &net16.scene.cube));
    spans.scope("hsi_cube", || {
        probe_cube_io(&mut layers, net16, seed, out_dir)
    });
    spans.scope("hsi_linalg+hsi_morpho", || {
        probe_linalg_morpho(&mut layers, net16, &inputs)
    });
    spans.scope("hetero.kernels", || {
        probe_kernels(&mut layers, spans, net16, &inputs, triad)
    });
    spans.scope("simnet.engine.micro", || probe_engine_micro(&mut layers));
    spans.scope("net16-static", || {
        probe_net16(&mut layers, spans, net16, verifier)
    });
    spans.scope("thunderhead-scale", || {
        probe_thunderhead(
            &mut layers,
            spans,
            fixture_of(Workload::ThunderheadScale),
            verifier,
        )
    });
    spans.scope("ft-faults", || {
        probe_ft(&mut layers, spans, fixture_of(Workload::FtFaults), verifier)
    });
    spans.scope("simnet.coll", || {
        probe_collectives(&mut layers, spans, net16, seed)
    });
    Ok(layers)
}
