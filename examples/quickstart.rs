//! Quickstart: detect thermal targets in a synthetic WTC-like scene on
//! the paper's fully heterogeneous 16-workstation network.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::eval::target_table;
use heterospec::simnet::engine::Engine;
use heterospec::simnet::presets;

fn main() {
    heterospec::linalg::require_built_isa();
    // 1. A synthetic AVIRIS-like scene standing in for the WTC data:
    //    224 bands, 7 debris classes, 7 thermal hot spots 'A'-'G'.
    let scene = wtc_scene(WtcConfig {
        lines: 192,
        samples: 128,
        ..Default::default()
    });
    println!("scene: {:?}", scene.cube);

    // 2. The paper's fully heterogeneous network (Tables 1-2): sixteen
    //    workstations, four communication segments.
    let platform = presets::fully_heterogeneous();
    println!(
        "platform: {} ({} processors, mean speed {:.0} Mflop/s)",
        platform.name(),
        platform.num_procs(),
        platform.mean_speed()
    );

    // 3. Run Hetero-ATDCA: WEA partitions the cube by processor speed,
    //    workers search their partitions, the master grows the target
    //    matrix U by orthogonal subspace projection.
    let engine = Engine::new(platform);
    let params = AlgoParams::default(); // t = 18 targets
    let run =
        heterospec::hetero::par::atdca::run(&engine, &scene.cube, &params, &RunOptions::hetero());

    // 4. Score against ground truth (the paper's Table 3 metric).
    println!("\ndetected {} targets; hot-spot matches:", run.result.len());
    for m in target_table(&scene, &run.result) {
        let verdict = if m.sad < 0.01 { "found" } else { "missed" };
        println!(
            "  hot spot '{}' ({:>4.0} F): SAD = {:.3}  [{verdict}]",
            m.name, m.temp_f, m.sad
        );
    }

    // 5. The virtual-time performance report.
    let d = run.report.decomposition();
    let i = run.report.imbalance();
    println!("\nvirtual execution time: {:.2} s", d.total);
    println!(
        "  COM {:.2} s | SEQ {:.2} s | PAR {:.2} s",
        d.com, d.seq, d.par
    );
    println!(
        "  load imbalance: D_all {:.2}, D_minus {:.2}",
        i.d_all, i.d_minus
    );
}
