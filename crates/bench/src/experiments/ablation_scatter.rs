use hetero_hsi::config::{AlgoParams, RunOptions};
use hsi_cube::synth::SyntheticScene;
use simnet::coll::ScatterMode;
use simnet::engine::Engine;
use std::io::{self, Write};

use crate::{print_table, run_algorithm};

/// **Ablation A1** — effect of charging the initial data scatter.
///
/// The paper's reported COM magnitudes imply the image was pre-staged
/// (see DESIGN.md); this ablation quantifies what full Table-2-rate
/// staging would cost on each network, and shows the makespan WEA
/// adapting to the links when staging is charged.
///
/// ```text
/// cargo run -p repro-bench --release --bin ablation_scatter
/// ```
pub fn ablation_scatter(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<()> {
    let params = AlgoParams::default();
    let networks = simnet::presets::four_networks();

    let mut rows = Vec::new();
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
                for network in &networks {
                    eprintln!("# {variant}-{algorithm} ({mode:?}) on {}", network.name());
                    let engine = Engine::new(network.clone());
                    let run = run_algorithm(algorithm, &engine, scene, &params, &options);
                    row.push(format!("{:.1}", run.report.total_time));
                }
                rows.push(row);
            }
        }
    }
    print_table(
        out,
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
    )
}
