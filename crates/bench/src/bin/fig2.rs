//! **Figure 2** — scalability (speedup vs single-processor run) of the
//! heterogeneous parallel algorithms on Thunderhead.
//!
//! Prints the speedup series and an ASCII plot; the series is also
//! written to `target/experiments/fig2.csv` for external plotting.
//!
//! ```text
//! cargo run -p repro-bench --release --bin fig2
//! ```

use hetero_hsi::config::AlgoParams;
use repro_bench::{build_scene, print_table, run_thunderhead_sweep, write_csv, ALGORITHMS};

fn main() {
    let scene = build_scene();
    let entries = run_thunderhead_sweep(&scene, &AlgoParams::default());

    let base: Vec<f64> = ALGORITHMS
        .iter()
        .map(|a| {
            entries
                .iter()
                .find(|e| &e.algorithm == a && e.cpus == 1)
                .expect("baseline")
                .total
        })
        .collect();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut series: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ALGORITHMS.len()];
    for &cpus in simnet::presets::THUNDERHEAD_SWEEP.iter() {
        let mut row = vec![format!("{cpus}")];
        let mut line = format!("{cpus}");
        for (i, algorithm) in ALGORITHMS.iter().enumerate() {
            let e = entries
                .iter()
                .find(|e| &e.algorithm == algorithm && e.cpus == cpus)
                .expect("sweep entry");
            let speedup = simnet::report::speedup(base[i], e.total);
            series[i].push((cpus, speedup));
            row.push(format!("{speedup:.1}"));
            line += &format!(",{speedup:.3}");
        }
        rows.push(row);
        csv.push(line);
    }
    print_table(
        "Figure 2: speedup over the 1-processor run on Thunderhead",
        &["CPUs", "ATDCA", "UFCLS", "PCT", "MORPH"],
        &rows,
    );
    write_csv("fig2.csv", "cpus,atdca,ufcls,pct,morph", &csv);

    // ASCII rendition of the figure: speedup vs CPUs, linear reference.
    println!("\nFigure 2 (ASCII): x = CPUs (0..256), y = speedup (0..256), '/' = linear");
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
        println!("  |{}", row.iter().collect::<String>());
    }
    println!("  +{}", "-".repeat(width + 1));
    println!("   legend: a=ATDCA u=UFCLS p=PCT m=MORPH .=linear");
    repro_bench::report_peak_rss(&scene.cube);
}
