//! **Figure 1** — false-colour composite of the scene and the thermal
//! hot-spot map.
//!
//! The paper displays the AVIRIS channels at 1682, 1107 and 655 nm as
//! red, green and blue, with the USGS thermal map beside it. This
//! binary renders the synthetic scene the same way: a PPM image at
//! `target/experiments/fig1_composite.ppm` (with hot spots circled) and
//! an ASCII thumbnail + hot-spot table on stdout.
//!
//! ```text
//! cargo run -p repro-bench --release --bin fig1
//! ```

use hsi_cube::synth::bands;
use repro_bench::{build_scene, experiments_dir};
use std::io::Write;

/// Band index nearest a wavelength (nm) on the scene's grid.
fn band_at(nm: f64, n: usize) -> usize {
    let grid = bands::grid(n);
    let um = nm / 1000.0;
    grid.iter()
        .enumerate()
        .min_by(|a, b| (a.1 - um).abs().partial_cmp(&(b.1 - um).abs()).unwrap())
        .map(|(i, _)| i)
        .unwrap()
}

fn main() {
    let scene = build_scene();
    let cube = &scene.cube;
    let (r_band, g_band, b_band) = (
        band_at(1682.0, cube.bands()),
        band_at(1107.0, cube.bands()),
        band_at(655.0, cube.bands()),
    );
    eprintln!("# composite bands: R={r_band} (1682 nm), G={g_band} (1107 nm), B={b_band} (655 nm)");

    // Per-channel 2%-98% stretch.
    let stretch = |band: usize| -> (f32, f32) {
        let mut v: Vec<f32> = (0..cube.num_pixels())
            .map(|i| cube.pixel_flat(i)[band])
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (
            v[(v.len() as f64 * 0.02) as usize],
            v[((v.len() as f64 * 0.98) as usize).min(v.len() - 1)],
        )
    };
    let ranges = [stretch(r_band), stretch(g_band), stretch(b_band)];
    let to8 = |v: f32, (lo, hi): (f32, f32)| -> u8 {
        (((v - lo) / (hi - lo).max(1e-6)).clamp(0.0, 1.0) * 255.0) as u8
    };

    // PPM with hot spots marked by a white box.
    let mut ppm = Vec::with_capacity(cube.num_pixels() * 3 + 64);
    write!(ppm, "P6\n{} {}\n255\n", cube.samples(), cube.lines()).unwrap();
    let near_target = |l: usize, s: usize| -> bool {
        scene.targets.iter().any(|t| {
            let (tl, ts) = t.coord;
            let dl = l.abs_diff(tl);
            let ds = s.abs_diff(ts);
            (dl == 2 && ds <= 2) || (ds == 2 && dl <= 2)
        })
    };
    for l in 0..cube.lines() {
        for s in 0..cube.samples() {
            if near_target(l, s) {
                ppm.extend_from_slice(&[255, 255, 255]);
            } else {
                let px = cube.pixel(l, s);
                ppm.push(to8(px[r_band], ranges[0]));
                ppm.push(to8(px[g_band], ranges[1]));
                ppm.push(to8(px[b_band], ranges[2]));
            }
        }
    }
    let path = experiments_dir().join("fig1_composite.ppm");
    std::fs::write(&path, &ppm).expect("write ppm");
    eprintln!("# wrote {}", path.display());

    // ASCII thumbnail by luminance.
    println!("\nFigure 1 (ASCII luminance thumbnail, * = thermal hot spot):");
    let (th, tw) = (24usize, 64usize);
    let ramp: &[u8] = b" .:-=+#%@";
    for tl in 0..th {
        let mut row = String::new();
        for ts in 0..tw {
            let l = tl * cube.lines() / th;
            let s = ts * cube.samples() / tw;
            if scene.targets.iter().any(|t| {
                t.coord.0 * th / cube.lines() == tl && t.coord.1 * tw / cube.samples() == ts
            }) {
                row.push('*');
                continue;
            }
            let px = cube.pixel(l, s);
            let lum = (px[r_band] + px[g_band] + px[b_band]) / 3.0;
            let idx = ((lum / 0.6).clamp(0.0, 0.999) * ramp.len() as f32) as usize;
            row.push(ramp[idx] as char);
        }
        println!("  |{row}|");
    }
    println!("\nthermal hot spots (the paper's Fig. 1 right panel):");
    for t in &scene.targets {
        println!(
            "  '{}' {:>4.0} F at (line {:>4}, sample {:>4})",
            t.name, t.temp_f, t.coord.0, t.coord.1
        );
    }
    repro_bench::report_peak_rss(&scene.cube);
}
