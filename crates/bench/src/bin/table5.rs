//! **Table 5** — execution times (virtual seconds) of the heterogeneous
//! algorithms and their homogeneous versions on the four networks.
//!
//! ```text
//! cargo run -p repro-bench --release --bin table5
//! ```

use hetero_hsi::config::AlgoParams;
use repro_bench::{build_scene, print_table, run_matrix, write_csv, ALGORITHMS};

fn main() {
    let scene = build_scene();
    let entries = run_matrix(&scene, &AlgoParams::default());
    let networks = [
        "fully-heterogeneous",
        "fully-homogeneous",
        "partially-heterogeneous",
        "partially-homogeneous",
    ];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for algorithm in ALGORITHMS {
        for variant in ["Hetero", "Homo"] {
            let mut row = vec![format!("{variant}-{algorithm}")];
            let mut line = format!("{variant}-{algorithm}");
            for net in networks {
                let e = entries
                    .iter()
                    .find(|e| e.algorithm == algorithm && e.variant == variant && e.network == net)
                    .expect("matrix entry");
                row.push(format!("{:.1}", e.total));
                line += &format!(",{:.2}", e.total);
            }
            rows.push(row);
            csv.push(line);
        }
    }
    print_table(
        "Table 5: execution times (s) of heterogeneous algorithms and their homogeneous versions",
        &[
            "Algorithm",
            "Fully het",
            "Fully hom",
            "Part het",
            "Part hom",
        ],
        &rows,
    );
    write_csv(
        "table5.csv",
        "algorithm,fully_het,fully_hom,part_het,part_hom",
        &csv,
    );
    repro_bench::report_peak_rss(&scene.cube);
}
