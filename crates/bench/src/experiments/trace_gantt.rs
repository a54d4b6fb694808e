use hetero_hsi::config::{AlgoParams, PartitionStrategy, RunOptions};
use hetero_hsi::framework::{distribute, plan_assignments};
use hetero_hsi::kernels;
use hetero_hsi::msg::{Candidate, Msg};
use hsi_cube::synth::{SyntheticScene, WtcConfig};
use simnet::engine::{Ctx, Engine};
use simnet::presets;
use std::io::{self, Write};

/// The scene of the `trace_gantt` binary and its golden: 128 × 64
/// pixels, whatever `HETEROSPEC_SCENE` says.
pub fn trace_gantt_scene() -> WtcConfig {
    WtcConfig {
        lines: 128,
        samples: 64,
        ..Default::default()
    }
}

/// Execution tracing: visualise *why* the homogeneous algorithm loses
/// on a heterogeneous network.
///
/// Runs one Hetero-ATDCA and one Homo-ATDCA round of `scene` (the
/// binary's is [`trace_gantt_scene`]) on the paper's fully heterogeneous
/// network with tracing enabled and prints Gantt charts: the homo run
/// shows every fast node idling (`r`) while the UltraSparc (rank 9)
/// grinds through its oversized equal share. Each run also prints the
/// profiler's exact phase accounting and critical-path bottleneck
/// (see `docs/PROF.md`).
///
/// ```text
/// cargo run -p repro-bench --release --bin trace_gantt
/// ```
pub fn trace_gantt(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<()> {
    let params = AlgoParams::default();
    let platform = presets::fully_heterogeneous();

    for options in [RunOptions::hetero(), RunOptions::homo()] {
        let label = match options.strategy {
            PartitionStrategy::Heterogeneous(_) => "Hetero",
            PartitionStrategy::Homogeneous => "Homo",
        };
        let assignments = plan_assignments(
            &platform,
            &scene.cube,
            &options,
            hetero_hsi::par::atdca::row_cost(&scene.cube, &params),
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
        writeln!(
            out,
            "\n=== {label}-ATDCA round on {} (total {:.3} s) ===",
            platform.name(),
            report.total_time
        )?;
        writeln!(out, "{}", trace.gantt(platform.num_procs(), 72))?;
        // `run_traced` always attaches the profile: print the exact
        // phase accounting and where the makespan actually went.
        if let Some(profile) = &report.profile {
            writeln!(out, "{}", profile.summary())?;
        }
    }
    writeln!(
        out,
        "legend: rank 2 = p3 (fastest Athlon), rank 9 = p10 (UltraSparc-5)"
    )
}
