//! Execution tracing: visualise *why* the homogeneous algorithm loses
//! on a heterogeneous network.
//!
//! Runs Hetero-ATDCA and Homo-ATDCA on the paper's fully heterogeneous
//! network with tracing enabled and prints Gantt charts: the homo run
//! shows every fast node idling (`r`) while the UltraSparc (rank 9)
//! grinds through its oversized equal share. Each run also prints the
//! profiler's exact phase accounting and critical-path bottleneck
//! (see `docs/PROF.md`).
//!
//! ```text
//! cargo run --release --example trace_gantt
//! ```

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::framework::{distribute, plan_assignments};
use heterospec::hetero::kernels;
use heterospec::hetero::msg::{Candidate, Msg};
use heterospec::simnet::engine::{Ctx, Engine};
use heterospec::simnet::presets;

fn main() {
    heterospec::linalg::require_built_isa();
    let scene = wtc_scene(WtcConfig {
        lines: 128,
        samples: 64,
        ..Default::default()
    });
    let params = AlgoParams::default();
    let platform = presets::fully_heterogeneous();

    for options in [RunOptions::hetero(), RunOptions::homo()] {
        let label = match options.strategy {
            heterospec::hetero::config::PartitionStrategy::Heterogeneous(_) => "Hetero",
            heterospec::hetero::config::PartitionStrategy::Homogeneous => "Homo",
        };
        let assignments = plan_assignments(
            &platform,
            &scene.cube,
            &options,
            heterospec::hetero::par::atdca::row_cost(&scene.cube, &params),
        );
        let engine = Engine::new(platform.clone());
        // One representative round: brightest-pixel search + gather.
        let cube = &scene.cube;
        let (report, trace) = engine.run_traced(|ctx: &mut Ctx<Msg<Candidate>>| {
            let (first, n) = distribute(ctx, cube, &assignments, 0, options.scatter_mode);
            let (cand, mflops) = kernels::brightest(cube, (first, first + n));
            ctx.compute_par(mflops);
            let msg = Msg::partial(match cand {
                Some(p) => p.to_candidate(cube, 0, 0),
                None => Candidate {
                    line: 0,
                    sample: 0,
                    score: f64::NEG_INFINITY,
                    spectrum: vec![0.0; cube.bands()],
                },
            });
            if ctx.is_root() {
                for src in 1..ctx.num_ranks() {
                    let _ = ctx.recv(src);
                }
                let _ = msg;
            } else {
                ctx.send(0, msg);
            }
            ctx.elapsed()
        });
        println!(
            "\n=== {label}-ATDCA round on {} (total {:.3} s) ===",
            platform.name(),
            report.total_time
        );
        println!("{}", trace.gantt(platform.num_procs(), 72));
        // `run_traced` always attaches the profile: print the exact
        // phase accounting and where the makespan actually went.
        if let Some(profile) = &report.profile {
            println!("{}", profile.summary());
        }
    }
    println!("legend: rank 2 = p3 (fastest Athlon), rank 9 = p10 (UltraSparc-5)");
}
