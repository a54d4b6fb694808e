//! **Table 6** — communication (COM), sequential computation (SEQ) and
//! parallel computation (PAR) times for the eight algorithm variants on
//! the four networks.
//!
//! ```text
//! cargo run -p repro-bench --release --bin table6
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
        for metric in ["COM", "SEQ", "PAR"] {
            header.push(format!("{short} {metric}"));
        }
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
                for v in [e.com, e.seq, e.par] {
                    row.push(format!("{v:.1}"));
                    line += &format!(",{v:.2}");
                }
            }
            rows.push(row);
            csv.push(line);
        }
    }
    print_table(
        "Table 6: COM / SEQ / PAR decomposition (s) per network",
        &header_refs,
        &rows,
    );
    write_csv(
        "table6.csv",
        "algorithm,fhet_com,fhet_seq,fhet_par,fhom_com,fhom_seq,fhom_par,phet_com,phet_seq,phet_par,phom_com,phom_seq,phom_par",
        &csv,
    );
    repro_bench::report_peak_rss(&scene.cube);
}
