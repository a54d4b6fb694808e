use hetero_hsi::config::AlgoParams;
use hsi_cube::synth::SyntheticScene;
use std::io::{self, Write};

use crate::{print_table, run_thunderhead_sweep, write_csv, SweepEntry, ALGORITHMS};

fn total(entries: &[SweepEntry], algorithm: &str, cpus: usize) -> f64 {
    entries
        .iter()
        .find(|e| e.algorithm == algorithm && e.cpus == cpus)
        .expect("sweep entry")
        .total
}

/// **Table 8 and Figure 2** from one Thunderhead sweep (1–256
/// processors):
///
/// * Table 8 — execution times of the heterogeneous algorithms;
/// * Figure 2 — scalability (speedup vs the single-processor run),
///   printed as a series and an ASCII plot and written to
///   `target/experiments/fig2.csv` for external plotting.
///
/// ```text
/// cargo run -p repro-bench --release --bin table8
/// ```
pub fn table8(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<()> {
    let entries = run_thunderhead_sweep(scene, &AlgoParams::default());

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &cpus in simnet::presets::THUNDERHEAD_SWEEP.iter() {
        let mut row = vec![format!("{cpus}")];
        let mut line = format!("{cpus}");
        for algorithm in ALGORITHMS {
            let t = total(&entries, algorithm, cpus);
            row.push(format!("{t:.1}"));
            line += &format!(",{t:.2}");
        }
        rows.push(row);
        csv.push(line);
    }
    print_table(
        out,
        "Table 8: execution times (s) on Thunderhead by processor count",
        &["CPUs", "ATDCA", "UFCLS", "PCT", "MORPH"],
        &rows,
    )?;
    write_csv("table8.csv", "cpus,atdca,ufcls,pct,morph", &csv);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut series: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ALGORITHMS.len()];
    for &cpus in simnet::presets::THUNDERHEAD_SWEEP.iter() {
        let mut row = vec![format!("{cpus}")];
        let mut line = format!("{cpus}");
        for (i, algorithm) in ALGORITHMS.iter().enumerate() {
            let speedup = simnet::report::speedup(
                total(&entries, algorithm, 1),
                total(&entries, algorithm, cpus),
            );
            series[i].push((cpus, speedup));
            row.push(format!("{speedup:.1}"));
            line += &format!(",{speedup:.3}");
        }
        rows.push(row);
        csv.push(line);
    }
    print_table(
        out,
        "Figure 2: speedup over the 1-processor run on Thunderhead",
        &["CPUs", "ATDCA", "UFCLS", "PCT", "MORPH"],
        &rows,
    )?;
    write_csv("fig2.csv", "cpus,atdca,ufcls,pct,morph", &csv);

    // ASCII rendition of the figure: speedup vs CPUs, linear reference.
    writeln!(
        out,
        "\nFigure 2 (ASCII): x = CPUs (0..256), y = speedup (0..256), '/' = linear"
    )?;
    let height = 20usize;
    let width = 64usize;
    let marks = ['a', 'u', 'p', 'm']; // ATDCA, UFCLS, PCT, MORPH
    let mut grid = vec![vec![' '; width + 1]; height + 1];
    for (x, _) in (0..=width).enumerate() {
        let cpus = x as f64 / width as f64 * 256.0;
        let y = (cpus / 256.0 * height as f64).round() as usize;
        grid[height - y.min(height)][x] = '.';
    }
    for (i, s) in series.iter().enumerate() {
        for &(cpus, sp) in s {
            let x = (cpus as f64 / 256.0 * width as f64).round() as usize;
            let y = ((sp / 256.0) * height as f64).round() as usize;
            grid[height - y.min(height)][x.min(width)] = marks[i];
        }
    }
    for row in grid {
        writeln!(out, "  |{}", row.iter().collect::<String>())?;
    }
    writeln!(out, "  +{}", "-".repeat(width + 1))?;
    writeln!(out, "   legend: a=ATDCA u=UFCLS p=PCT m=MORPH .=linear")
}
