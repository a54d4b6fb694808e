//! Criterion benches for the simnet message-passing engine.

use criterion::{criterion_group, criterion_main, Criterion};
use simnet::coll::{broadcast, gather, scatter, CollectiveConfig, ScatterMode};
use simnet::engine::{Ctx, Engine, WireVec};
use simnet::Platform;

/// An empty program: what spawning and joining the rank threads costs.
/// At 256 ranks the rank stacks only just fit the C library's stack
/// cache, so that is the size a stack-size change shows at.
fn bench_engine_spawn(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine-spawn");
    g.sample_size(20);
    for p in [4usize, 16, 64, 256] {
        let engine = Engine::new(Platform::uniform("bench", p, 0.01, 1024, 1.0));
        g.bench_function(format!("noop_{p}_ranks"), |b| {
            b.iter(|| engine.run(|ctx: &mut Ctx<()>| ctx.rank()))
        });
    }
    g.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let engine = Engine::new(Platform::uniform("bench", 16, 0.01, 1024, 1.0));
    let cfg = CollectiveConfig::linear();
    let bits = 1024 * 32;
    let mut g = c.benchmark_group("collectives-16-ranks");
    g.sample_size(20);
    g.bench_function("broadcast_1k_f32", |b| {
        b.iter(|| {
            engine.run(|ctx: &mut Ctx<WireVec<f32>>| {
                let msg = if ctx.is_root() {
                    Some(WireVec(vec![1.0f32; 1024]))
                } else {
                    None
                };
                broadcast(ctx, &cfg, 0, msg, bits)
                    .expect("valid broadcast")
                    .0
                    .len()
            })
        })
    });
    g.bench_function("gather_1k_f32", |b| {
        b.iter(|| {
            engine.run(|ctx: &mut Ctx<WireVec<f32>>| {
                gather(ctx, &cfg, 0, WireVec(vec![1.0f32; 1024]), bits)
                    .expect("valid gather")
                    .map(|v| v.len())
            })
        })
    });
    g.bench_function("scatter_1k_f32", |b| {
        b.iter(|| {
            engine.run(|ctx: &mut Ctx<WireVec<f32>>| {
                let items = if ctx.is_root() {
                    Some((0..16).map(|_| WireVec(vec![1.0f32; 1024])).collect())
                } else {
                    None
                };
                scatter(ctx, 0, items, ScatterMode::Charged)
                    .expect("valid scatter")
                    .0
                    .len()
            })
        })
    });
    g.finish();
}

fn bench_wea(c: &mut Criterion) {
    use hetero_hsi::wea::{hetero_fractions, RowCost, WeaConfig, WeaLinkModel};
    let platform = simnet::presets::fully_heterogeneous();
    let cost = RowCost {
        mflops_per_row: 2.0,
        mbits_per_row: 0.5,
        fixed_mflops: 1.0,
    };
    let mut g = c.benchmark_group("wea-fractions-16-procs");
    for (name, model) in [
        ("ignore", WeaLinkModel::Ignore),
        ("makespan", WeaLinkModel::Makespan),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                hetero_fractions(
                    &platform,
                    cost,
                    WeaConfig {
                        link_model: model,
                        ..Default::default()
                    },
                )
            })
        });
    }
    g.finish();
}

/// The four algorithms at the top of the Table 8 sweep: 256 ranks, one
/// line of a 256 × 16 × 224 scene each, the paper's t = 18. For the two
/// detectors the kernels are a sliver of this; what it times is the
/// engine and the work every rank repeats per round (installs, the carry
/// check, collectives). PCT adds 256 covariance partials for the root to
/// merge, MORPH each rank's halo.
fn bench_thunderhead_algorithms(c: &mut Criterion) {
    use hetero_hsi::config::{AlgoParams, RunOptions};
    use hsi_cube::synth::{wtc_scene, WtcConfig};
    let scene = wtc_scene(WtcConfig {
        lines: 256,
        samples: 16,
        ..Default::default()
    });
    let (cube, params) = (&scene.cube, &AlgoParams::default());
    let engine = Engine::new(simnet::presets::thunderhead(256));
    let options = RunOptions::hetero();
    let mut g = c.benchmark_group("thunderhead-256-ranks-256x16x224");
    g.sample_size(10);
    g.bench_function("par_atdca", |b| {
        b.iter(|| hetero_hsi::par::atdca::run(&engine, cube, params, &options))
    });
    g.bench_function("par_ufcls", |b| {
        b.iter(|| hetero_hsi::par::ufcls::run(&engine, cube, params, &options))
    });
    g.bench_function("par_pct", |b| {
        b.iter(|| hetero_hsi::par::pct::run(&engine, cube, params, &options))
    });
    g.bench_function("par_morph", |b| {
        b.iter(|| hetero_hsi::par::morph::run(&engine, cube, params, &options))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_engine_spawn,
    bench_collectives,
    bench_wea,
    bench_thunderhead_algorithms
);
criterion_main!(benches);
