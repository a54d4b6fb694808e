use hetero_hsi::config::AlgoParams;
use hetero_hsi::eval::target_table;
use hsi_cube::synth::SyntheticScene;
use std::io::{self, Write};

use crate::{print_table, BASELINE_CYCLE_TIME};

/// **Table 3** — spectral similarity (SAD) between the target pixels
/// detected by Hetero-ATDCA / Hetero-UFCLS and the known ground-truth
/// hot spots, plus single-processor times for the sequential versions.
///
/// ```text
/// cargo run -p repro-bench --release --bin table3
/// ```
pub fn table3(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<()> {
    let params = AlgoParams::default();

    // The paper sets t = 18 "after calculating the intrinsic
    // dimensionality of the data"; report both estimators for context.
    let hfc = hetero_hsi::vd::hfc(&scene.cube, 1e-3).dimension;
    let nf = hetero_hsi::vd::noise_floor(&scene.cube, 20.0).dimension;
    eprintln!("# virtual dimensionality: HFC = {hfc}, noise-floor = {nf} (paper used t = 18)");

    eprintln!("# running sequential ATDCA (t = {})", params.num_targets);
    let atdca = hetero_hsi::seq::atdca(&scene.cube, &params);
    eprintln!("# running sequential UFCLS (t = {})", params.num_targets);
    let ufcls = hetero_hsi::seq::ufcls(&scene.cube, &params);

    let t_atdca = atdca.virtual_secs(BASELINE_CYCLE_TIME);
    let t_ufcls = ufcls.virtual_secs(BASELINE_CYCLE_TIME);
    let rows_a = target_table(scene, &atdca.result);
    let rows_u = target_table(scene, &ufcls.result);
    let rows: Vec<Vec<String>> = rows_a
        .iter()
        .zip(&rows_u)
        .map(|(a, u)| {
            vec![
                format!("'{}' ({:.0} F)", a.name, a.temp_f),
                format!("{:.3}", a.sad),
                format!("{:.3}", u.sad),
            ]
        })
        .collect();
    print_table(
        out,
        &format!(
            "Table 3: SAD to known targets  |  sequential times: ATDCA {t_atdca:.0} s, UFCLS {t_ufcls:.0} s (paper: 1263 s / 916 s on the full 2133x512 scene)"
        ),
        &["Hot spot", "Hetero-ATDCA", "Hetero-UFCLS"],
        &rows,
    )
}
