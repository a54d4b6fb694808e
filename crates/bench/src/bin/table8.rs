//! **Table 8** — execution times of the heterogeneous algorithms on the
//! Thunderhead Beowulf cluster for 1–256 processors.
//!
//! ```text
//! cargo run -p repro-bench --release --bin table8
//! ```

use hetero_hsi::config::AlgoParams;
use repro_bench::{build_scene, print_table, run_thunderhead_sweep, write_csv, ALGORITHMS};

fn main() {
    let scene = build_scene();
    let entries = run_thunderhead_sweep(&scene, &AlgoParams::default());

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &cpus in simnet::presets::THUNDERHEAD_SWEEP.iter() {
        let mut row = vec![format!("{cpus}")];
        let mut line = format!("{cpus}");
        for algorithm in ALGORITHMS {
            let e = entries
                .iter()
                .find(|e| e.algorithm == algorithm && e.cpus == cpus)
                .expect("sweep entry");
            row.push(format!("{:.1}", e.total));
            line += &format!(",{:.2}", e.total);
        }
        rows.push(row);
        csv.push(line);
    }
    print_table(
        "Table 8: execution times (s) on Thunderhead by processor count",
        &["CPUs", "ATDCA", "UFCLS", "PCT", "MORPH"],
        &rows,
    );
    write_csv("table8.csv", "cpus,atdca,ufcls,pct,morph", &csv);
    repro_bench::report_peak_rss(&scene.cube);
}
