//! **Ablation A3** — MORPH overlap policy: exact halos
//! (`2·r·I_max` lines, bit-identical interior scores) versus the
//! paper-style single-kernel halo (`r` lines, slight boundary effects).
//!
//! Reports both the timing impact (redundant computation grows with
//! processor count) and the classification-accuracy impact.
//!
//! ```text
//! cargo run -p repro-bench --release --bin ablation_overlap
//! ```

use hetero_hsi::config::{AlgoParams, OverlapPolicy, RunOptions};
use hetero_hsi::eval::debris_accuracy;
use hsi_cube::synth::materials::NUM_DEBRIS_CLASSES;
use repro_bench::{build_scene, print_table, write_csv};
use simnet::engine::Engine;

fn main() {
    let scene = build_scene();
    let params = AlgoParams::default();
    let cpu_counts = [4usize, 16, 64, 256];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for policy in [OverlapPolicy::SingleKernel, OverlapPolicy::Exact] {
        let options = RunOptions {
            morph_overlap: policy,
            ..RunOptions::hetero()
        };
        for &cpus in &cpu_counts {
            eprintln!("# MORPH ({policy:?}) on thunderhead({cpus})");
            let engine = Engine::new(simnet::presets::thunderhead(cpus));
            let run = hetero_hsi::par::morph::run(&engine, &scene.cube, &params, &options);
            let acc = debris_accuracy(&scene, &run.result.0, NUM_DEBRIS_CLASSES).overall;
            rows.push(vec![
                format!("{policy:?}"),
                format!("{cpus}"),
                format!("{:.1}", run.report.total_time),
                format!("{acc:.2}"),
            ]);
            csv.push(format!(
                "{policy:?},{cpus},{:.2},{acc:.2}",
                run.report.total_time
            ));
        }
    }
    print_table(
        &mut std::io::stdout(),
        "Ablation A3: MORPH overlap policy vs processor count",
        &["Overlap", "CPUs", "Time (s)", "Debris acc (%)"],
        &rows,
    )
    .expect("write to stdout");
    write_csv(
        "ablation_overlap.csv",
        "policy,cpus,total_s,debris_acc",
        &csv,
    );
    repro_bench::report_peak_rss(&scene.cube);
}
