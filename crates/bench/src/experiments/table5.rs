use hetero_hsi::config::AlgoParams;
use hsi_cube::synth::SyntheticScene;
use std::io::{self, Write};

use crate::{print_table, run_matrix, MatrixEntry, ALGORITHMS};

const NETWORKS: [(&str, &str); 4] = [
    ("fully-heterogeneous", "F-het"),
    ("fully-homogeneous", "F-hom"),
    ("partially-heterogeneous", "P-het"),
    ("partially-homogeneous", "P-hom"),
];

/// One table: a row per algorithm variant, `cells` of each network's
/// matrix entry.
fn table(
    out: &mut impl Write,
    entries: &[MatrixEntry],
    title: &str,
    header: &[&str],
    cells: impl Fn(&MatrixEntry) -> Vec<String>,
) -> io::Result<()> {
    let mut rows = Vec::new();
    for algorithm in ALGORITHMS {
        for variant in ["Hetero", "Homo"] {
            let mut row = vec![format!("{variant}-{algorithm}")];
            for (net, _) in NETWORKS {
                let e = entries
                    .iter()
                    .find(|e| e.algorithm == algorithm && e.variant == variant && e.network == net)
                    .expect("matrix entry");
                row.extend(cells(e));
            }
            rows.push(row);
        }
    }
    print_table(out, title, header, &rows)
}

/// **Tables 5, 6 and 7** from one run of the 8-algorithm × 4-network
/// matrix:
///
/// * Table 5 — execution times (virtual seconds) of the heterogeneous
///   algorithms and their homogeneous versions on the four networks;
/// * Table 6 — communication (COM), sequential computation (SEQ) and
///   parallel computation (PAR) times;
/// * Table 7 — load-balancing rates `D_all` and `D_minus` (`R_max/R_min`
///   over processor run times, with and without the root).
///
/// ```text
/// cargo run -p repro-bench --release --bin table5
/// ```
pub fn table5(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<()> {
    let entries = run_matrix(scene, &AlgoParams::default());
    let per_network = |metrics: &[&str]| {
        let mut header = vec!["Algorithm".to_string()];
        for (_, short) in NETWORKS {
            header.extend(metrics.iter().map(|m| format!("{short} {m}")));
        }
        header
    };

    table(
        out,
        &entries,
        "Table 5: execution times (s) of heterogeneous algorithms and their homogeneous versions",
        &[
            "Algorithm",
            "Fully het",
            "Fully hom",
            "Part het",
            "Part hom",
        ],
        |e| vec![format!("{:.1}", e.total)],
    )?;

    let header = per_network(&["COM", "SEQ", "PAR"]);
    table(
        out,
        &entries,
        "Table 6: COM / SEQ / PAR decomposition (s) per network",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
        |e| [e.com, e.seq, e.par].map(|v| format!("{v:.1}")).to_vec(),
    )?;

    let header = per_network(&["D_all", "D_minus"]);
    table(
        out,
        &entries,
        "Table 7: load balancing rates (perfect balance = 1.00)",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
        |e| [e.d_all, e.d_minus].map(|v| format!("{v:.2}")).to_vec(),
    )
}
