//! Emergency response: the paper's motivating scenario.
//!
//! After a disaster, response teams need (a) the locations of active
//! fires and (b) a map of what the dust blanketing the area is made of —
//! fast. This example runs the full pipeline on a Thunderhead-class
//! Beowulf cluster: Hetero-ATDCA for the hot spots, Hetero-MORPH for the
//! debris map, and reports whether the paper's "minutes, not hours"
//! turnaround holds.
//!
//! ```text
//! cargo run --release --example emergency_response
//! ```

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::eval::{debris_accuracy, detection_rate, target_table};
use heterospec::hetero::OffloadPolicy;
use heterospec::simnet::engine::Engine;
use heterospec::simnet::presets;

fn main() {
    heterospec::linalg::require_built_isa();
    let scene = wtc_scene(WtcConfig {
        lines: 256,
        samples: 128,
        ..Default::default()
    });
    let params = AlgoParams::default();
    let cpus = 64;
    let engine = Engine::new(presets::thunderhead(cpus));
    println!("scene {:?}; cluster: thunderhead x{cpus}", scene.cube);

    // --- Fire detection -------------------------------------------------
    let detection =
        heterospec::hetero::par::atdca::run(&engine, &scene.cube, &params, &RunOptions::hetero());
    let matches = target_table(&scene, &detection.result);
    println!("\nfire detection (ATDCA, t = {}):", params.num_targets);
    for m in &matches {
        println!(
            "  '{}' {:>4.0} F -> SAD {:.3} {}",
            m.name,
            m.temp_f,
            m.sad,
            if m.sad < 0.01 { "LOCATED" } else { "uncertain" }
        );
    }
    println!(
        "  detection rate: {:.0}%  in {:.1} virtual seconds",
        100.0 * detection_rate(&matches, 0.01),
        detection.report.total_time
    );

    // --- Debris mapping --------------------------------------------------
    let mapping =
        heterospec::hetero::par::morph::run(&engine, &scene.cube, &params, &RunOptions::hetero());
    let acc = debris_accuracy(&scene, &mapping.result.0, 7);
    println!(
        "\ndebris mapping (MORPH, I_max = {}):",
        params.morph_iterations
    );
    for (class, pc) in &acc.per_class {
        println!("  {:24} {:5.1}%", scene.class_names[*class as usize], pc);
    }
    println!(
        "  overall {:.1}%  in {:.1} virtual seconds",
        acc.overall, mapping.report.total_time
    );

    // --- The response-time budget ----------------------------------------
    let total = detection.report.total_time + mapping.report.total_time;
    println!(
        "\ntotal turnaround: {:.1} virtual seconds on {cpus} processors",
        total
    );
    if total < 60.0 {
        println!(
            "=> within an emergency-response budget (paper: 7 s fires + 11 s map at 256 CPUs)"
        );
    } else {
        println!("=> consider more processors (Table 8 scaling applies)");
    }

    // --- Onboard accelerators --------------------------------------------
    // The paper's onboard real-time-processing story: the same pipeline
    // on a small GPU-equipped cluster with per-chunk offload decisions.
    // Outputs are bit-identical to the host runs — offloading changes
    // only where time is charged.
    let gpus = 8;
    let accel = Engine::new(presets::accel_thunderhead(gpus));
    let auto = RunOptions::hetero().with_offload(OffloadPolicy::Auto);
    let fires = heterospec::hetero::par::atdca::run(&accel, &scene.cube, &params, &auto);
    let debris = heterospec::hetero::par::morph::run(&accel, &scene.cube, &params, &auto);
    println!("\nonboard processing (accel-thunderhead x{gpus}, OffloadPolicy::Auto):");
    for (name, run) in [("ATDCA", &fires.report), ("MORPH", &debris.report)] {
        let launches: u64 = run.offloads.iter().map(|o| o.launches).sum();
        let h2d: u64 = run.offloads.iter().map(|o| o.bytes_h2d).sum();
        let device_ms: f64 = run.offloads.iter().map(|o| o.device_ms).sum();
        let host_ms: f64 = run.offloads.iter().map(|o| o.host_ms).sum();
        println!(
            "  {name:5} {:.1} virtual s | {launches} kernel launches, {:.1} MB staged, \
             {device_ms:.0} ms device vs {host_ms:.0} ms host kernel time",
            run.total_time,
            h2d as f64 / 1.0e6,
        );
        for (rank, o) in run
            .offloads
            .iter()
            .enumerate()
            .filter(|(_, o)| o.launches > 0)
        {
            println!(
                "    rank {rank}: {} launches, {:.0} ms on the GPU",
                o.launches, o.device_ms
            );
        }
    }
    let accel_total = fires.report.total_time + debris.report.total_time;
    println!(
        "  turnaround: {accel_total:.1} virtual s on {gpus} GPU nodes \
         (vs {total:.1} s on {cpus} CPUs)"
    );
}
