//! **Table 7** — load-balancing rates `D_all` and `D_minus`
//! (`R_max/R_min` over processor run times, with and without the root)
//! for the eight algorithm variants on the four networks.
//!
//! ```text
//! cargo run -p repro-bench --release --bin table7
//! ```

use hetero_hsi::config::AlgoParams;
use repro_bench::{build_scene, print_table, run_matrix, write_csv, ALGORITHMS};

fn main() {
    let scene = build_scene();
    let entries = run_matrix(&scene, &AlgoParams::default());
    let networks = [
        ("fully-heterogeneous", "F-het"),
        ("fully-homogeneous", "F-hom"),
        ("partially-heterogeneous", "P-het"),
        ("partially-homogeneous", "P-hom"),
    ];

    let mut header: Vec<String> = vec!["Algorithm".into()];
    for (_, short) in networks {
        header.push(format!("{short} D_all"));
        header.push(format!("{short} D_minus"));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for algorithm in ALGORITHMS {
        for variant in ["Hetero", "Homo"] {
            let mut row = vec![format!("{variant}-{algorithm}")];
            let mut line = format!("{variant}-{algorithm}");
            for (net, _) in networks {
                let e = entries
                    .iter()
                    .find(|e| e.algorithm == algorithm && e.variant == variant && e.network == net)
                    .expect("matrix entry");
                row.push(format!("{:.2}", e.d_all));
                row.push(format!("{:.2}", e.d_minus));
                line += &format!(",{:.3},{:.3}", e.d_all, e.d_minus);
            }
            rows.push(row);
            csv.push(line);
        }
    }
    print_table(
        "Table 7: load balancing rates (perfect balance = 1.00)",
        &header_refs,
        &rows,
    );
    write_csv(
        "table7.csv",
        "algorithm,fhet_dall,fhet_dminus,fhom_dall,fhom_dminus,phet_dall,phet_dminus,phom_dall,phom_dminus",
        &csv,
    );
    repro_bench::report_peak_rss(&scene.cube);
}
