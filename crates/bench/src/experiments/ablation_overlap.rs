use hetero_hsi::config::{AlgoParams, OverlapPolicy, RunOptions};
use hetero_hsi::eval::debris_accuracy;
use hsi_cube::synth::materials::NUM_DEBRIS_CLASSES;
use hsi_cube::synth::SyntheticScene;
use simnet::engine::Engine;
use std::io::{self, Write};

use crate::print_table;

/// **Ablation A3** — MORPH overlap policy: exact halos
/// (`2·r·I_max` lines, bit-identical interior scores) versus the
/// paper-style single-kernel halo (`r` lines, slight boundary effects).
///
/// Reports both the timing impact (redundant computation grows with
/// processor count) and the classification-accuracy impact.
///
/// ```text
/// cargo run -p repro-bench --release --bin ablation_overlap
/// ```
pub fn ablation_overlap(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<()> {
    let params = AlgoParams::default();
    let mut rows = Vec::new();
    for policy in [OverlapPolicy::SingleKernel, OverlapPolicy::Exact] {
        let options = RunOptions {
            morph_overlap: policy,
            ..RunOptions::hetero()
        };
        for cpus in [4usize, 16, 64, 256] {
            eprintln!("# MORPH ({policy:?}) on thunderhead({cpus})");
            let engine = Engine::new(simnet::presets::thunderhead(cpus));
            let run = hetero_hsi::par::morph::run(&engine, &scene.cube, &params, &options);
            let acc = debris_accuracy(scene, &run.result.0, NUM_DEBRIS_CLASSES).overall;
            rows.push(vec![
                format!("{policy:?}"),
                format!("{cpus}"),
                format!("{:.1}", run.report.total_time),
                format!("{acc:.2}"),
            ]);
        }
    }
    print_table(
        out,
        "Ablation A3: MORPH overlap policy vs processor count",
        &["Overlap", "CPUs", "Time (s)", "Debris acc (%)"],
        &rows,
    )
}
