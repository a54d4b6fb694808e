//! Dynamic load balancing under hidden load — the paper's future-work
//! direction, demonstrated on the engine.
//!
//! A shared workstation rarely delivers its nominal speed. Here the
//! nominally fastest node of the paper's heterogeneous network (p3) is
//! secretly slowed for the whole run — a `FaultPlan::slowdown`, the
//! same mechanism every fault-injection test uses. Static WEA
//! (`par::morph`, the paper's Algorithm 5) plans from nominal speeds and
//! keeps feeding p3 the largest partition; chunked self-scheduling
//! (`ft::run_self_sched`) reroutes work from completion feedback alone,
//! at the price of real per-chunk messages.
//!
//! ```text
//! cargo run --release --example dynamic_balancing
//! ```

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::ft::{run_self_sched, FtOptions};
use heterospec::hetero::par;
use heterospec::hetero::sched::MorphChunks;
use heterospec::simnet::engine::Engine;
use heterospec::simnet::{presets, FaultPlan};

/// The loaded node: rank 2 is p3, the smallest cycle-time of Table 1.
const LOADED: usize = 2;

fn main() {
    heterospec::linalg::require_built_isa();
    let scene = wtc_scene(WtcConfig {
        lines: 240,
        samples: 64,
        bands: 96,
        ..Default::default()
    });
    let params = AlgoParams {
        morph_iterations: 3,
        ..Default::default()
    };
    let platform = presets::fully_heterogeneous();
    let chunks = MorphChunks::new(&scene.cube, &params);
    let opts = FtOptions::default();
    let loaded = |factor: f64| {
        Engine::new(platform.clone())
            .with_faults(FaultPlan::new().slowdown(LOADED, 0.0, 1e6, factor))
            .with_profiling(true)
    };

    println!("MORPH debris mapping on the 16-node heterogeneous network");
    println!("p3 (nominally the fastest node) is secretly slowed:\n");
    println!(
        "{:>9} {:>12} {:>22}",
        "slowdown",
        "static WEA",
        format!("self-sched (chunk {})", opts.chunk_lines)
    );
    for slowdown in [1.0, 2.0, 4.0, 8.0] {
        let engine = loaded(slowdown);
        let stat = par::morph::run(&engine, &scene.cube, &params, &RunOptions::hetero());
        let dynm = run_self_sched(&engine, &chunks, &opts);
        println!(
            "{:>8}x {:>10.2} s {:>20.2} s",
            slowdown, stat.report.total_time, dynm.report.total_time
        );
    }

    // Show where the work actually went at 8x.
    let run = run_self_sched(&loaded(8.0), &chunks, &opts);
    let profile = run.report.profile.as_ref().expect("profiling is on");
    println!(
        "\ncompute seconds per worker at 8x slowdown (self-scheduling, chunk = {} lines):",
        opts.chunk_lines
    );
    for r in &profile.ranks[1..] {
        let busy = r.phases.compute_par;
        let bar = "#".repeat((busy / profile.makespan * 40.0).round() as usize);
        println!(
            "  {:>4} (w={:.4}{}) busy {:>5.2} s, queued on a serial link {:>5.2} s  {bar}",
            platform.proc(r.rank).name,
            platform.proc(r.rank).cycle_time,
            if r.rank == LOADED { ", LOADED 8x" } else { "" },
            busy,
            r.phases.contention,
        );
    }
    println!(
        "\ncompletion: {:.2} s; the master (p1, coordinator only) is idle {:.1}% of it",
        profile.makespan,
        100.0 * profile.ranks[0].phases.idle / profile.makespan
    );
}
