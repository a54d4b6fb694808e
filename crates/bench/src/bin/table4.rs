//! **Table 4** — classification accuracy (percent) obtained by
//! Hetero-PCT and Hetero-MORPH for the USGS dust/debris classes, plus
//! single-processor times for the sequential versions.
//!
//! As in the paper, the accuracies come from the 16-node parallel runs
//! (the fully heterogeneous network); the parenthetical times are the
//! sequential baselines.
//!
//! ```text
//! cargo run -p repro-bench --release --bin table4
//! ```

use hetero_hsi::config::{AlgoParams, RunOptions};
use hetero_hsi::eval::{debris_accuracy, table4_rows};
use hsi_cube::synth::materials::NUM_DEBRIS_CLASSES;
use repro_bench::{build_scene, print_table, write_csv, BASELINE_CYCLE_TIME};
use simnet::engine::Engine;

fn main() {
    let scene = build_scene();
    let params = AlgoParams::default();
    let engine = Engine::new(simnet::presets::fully_heterogeneous());

    eprintln!("# running Hetero-PCT (c = {})", params.num_classes);
    let pct = hetero_hsi::par::pct::run(&engine, &scene.cube, &params, &RunOptions::hetero());
    eprintln!(
        "# running Hetero-MORPH (I_max = {})",
        params.morph_iterations
    );
    let morph = hetero_hsi::par::morph::run(&engine, &scene.cube, &params, &RunOptions::hetero());

    eprintln!("# timing sequential baselines");
    let t_pct = hetero_hsi::seq::pct(&scene.cube, &params).virtual_secs(BASELINE_CYCLE_TIME);
    let t_morph = hetero_hsi::seq::morph(&scene.cube, &params).virtual_secs(BASELINE_CYCLE_TIME);

    let acc_pct = debris_accuracy(&scene, &pct.result.0, NUM_DEBRIS_CLASSES);
    let acc_morph = debris_accuracy(&scene, &morph.result.0, NUM_DEBRIS_CLASSES);
    let rows_pct = table4_rows(&scene, &acc_pct, NUM_DEBRIS_CLASSES);
    let rows_morph = table4_rows(&scene, &acc_morph, NUM_DEBRIS_CLASSES);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for ((name, ap), (_, am)) in rows_pct.iter().zip(&rows_morph) {
        rows.push(vec![name.clone(), format!("{ap:.2}"), format!("{am:.2}")]);
        csv.push(format!("{name},{ap:.2},{am:.2}"));
    }
    rows.push(vec![
        "Overall".into(),
        format!("{:.2}", acc_pct.overall),
        format!("{:.2}", acc_morph.overall),
    ]);
    csv.push(format!(
        "Overall,{:.2},{:.2}",
        acc_pct.overall, acc_morph.overall
    ));

    print_table(
        &mut std::io::stdout(),
        &format!(
            "Table 4: dust/debris classification accuracy (%)  |  sequential times: PCT {t_pct:.0} s, MORPH {t_morph:.0} s (paper: 1884 s / 2334 s on the full scene)"
        ),
        &["Dust/debris class", "Hetero-PCT", "Hetero-MORPH"],
        &rows,
    )
    .expect("write to stdout");
    write_csv("table4.csv", "class,pct_acc,morph_acc", &csv);
    repro_bench::report_peak_rss(&scene.cube);
}
