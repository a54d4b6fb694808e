//! **Ablation A1** — effect of charging the initial data scatter.
//!
//! The paper's reported COM magnitudes imply the image was pre-staged
//! (see DESIGN.md); this ablation quantifies what full Table-2-rate
//! staging would cost on each network, and shows the makespan WEA
//! adapting to the links when staging is charged.
//!
//! ```text
//! cargo run -p repro-bench --release --bin ablation_scatter
//! ```

use hetero_hsi::config::{AlgoParams, RunOptions};
use repro_bench::{build_scene, print_table, run_algorithm, write_csv};
use simnet::coll::ScatterMode;
use simnet::engine::Engine;

fn main() {
    let scene = build_scene();
    let params = AlgoParams::default();
    let networks = simnet::presets::four_networks();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for algorithm in ["ATDCA", "MORPH"] {
        for (variant, base) in [
            ("Hetero", RunOptions::hetero()),
            ("Homo", RunOptions::homo()),
        ] {
            for mode in [ScatterMode::Free, ScatterMode::Charged] {
                let options = RunOptions {
                    scatter_mode: mode,
                    ..base
                };
                let mut row = vec![format!("{variant}-{algorithm}"), format!("{mode:?}")];
                let mut line = format!("{variant}-{algorithm},{mode:?}");
                for network in &networks {
                    eprintln!("# {variant}-{algorithm} ({mode:?}) on {}", network.name());
                    let engine = Engine::new(network.clone());
                    let run = run_algorithm(algorithm, &engine, &scene, &params, &options);
                    row.push(format!("{:.1}", run.report.total_time));
                    line += &format!(",{:.2}", run.report.total_time);
                }
                rows.push(row);
                csv.push(line);
            }
        }
    }
    print_table(
        "Ablation A1: total time (s) with free vs charged initial scatter",
        &[
            "Algorithm",
            "Scatter",
            "Fully het",
            "Fully hom",
            "Part het",
            "Part hom",
        ],
        &rows,
    );
    write_csv(
        "ablation_scatter.csv",
        "algorithm,scatter,fully_het,fully_hom,part_het,part_hom",
        &csv,
    );
    repro_bench::report_peak_rss(&scene.cube);
}
