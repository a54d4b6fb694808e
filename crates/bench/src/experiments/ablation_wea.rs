use hetero_hsi::config::{AlgoParams, PartitionStrategy, RunOptions};
use hetero_hsi::wea::{WeaConfig, WeaLinkModel};
use hsi_cube::synth::SyntheticScene;
use simnet::coll::ScatterMode;
use simnet::engine::Engine;
use std::io::{self, Write};

use crate::{print_table, run_algorithm, write_csv};

/// **Ablation A2** — WEA link-model sweep under charged staging.
///
/// On the partially homogeneous network (identical CPUs, heterogeneous
/// links) the only thing a workload estimator can adapt to is the
/// network. This ablation compares the literal Algorithm 1 (`Ignore`)
/// with the makespan-equalising allocator, with the initial scatter
/// charged at Table-2 rates.
///
/// ```text
/// cargo run -p repro-bench --release --bin ablation_wea
/// ```
pub fn ablation_wea(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<()> {
    let params = AlgoParams::default();
    let networks = [
        simnet::presets::partially_homogeneous(),
        simnet::presets::fully_heterogeneous(),
    ];
    let models: Vec<(String, WeaLinkModel)> = vec![
        ("Ignore (Algorithm 1)".into(), WeaLinkModel::Ignore),
        ("Makespan".into(), WeaLinkModel::Makespan),
    ];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (label, model) in &models {
        let options = RunOptions {
            strategy: PartitionStrategy::Heterogeneous(WeaConfig {
                link_model: *model,
                ..Default::default()
            }),
            scatter_mode: ScatterMode::Charged,
            ..Default::default()
        };
        let mut row = vec![label.clone()];
        let mut line = label.replace(',', ";");
        for network in &networks {
            eprintln!("# ATDCA with {label} on {}", network.name());
            let engine = Engine::new(network.clone());
            let run = run_algorithm("ATDCA", &engine, scene, &params, &options);
            row.push(format!("{:.1}", run.report.total_time));
            line += &format!(",{:.2}", run.report.total_time);
        }
        rows.push(row);
        csv.push(line);
    }
    print_table(
        out,
        "Ablation A2: Hetero-ATDCA total time (s) by WEA link model, scatter charged",
        &["WEA link model", "Part hom", "Fully het"],
        &rows,
    )?;
    write_csv("ablation_wea.csv", "model,part_hom,fully_het", &csv);
    Ok(())
}
