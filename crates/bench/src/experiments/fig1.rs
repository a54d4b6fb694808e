use hsi_cube::synth::{bands, SyntheticScene};
use hsi_cube::HyperCube;
use std::io::{self, Write};

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

/// The composite's red, green and blue bands: the AVIRIS channels at
/// 1682, 1107 and 655 nm.
fn composite_bands(cube: &HyperCube) -> [usize; 3] {
    [1682.0, 1107.0, 655.0].map(|nm| band_at(nm, cube.bands()))
}

/// **Figure 1** — the scene and its thermal hot spots, as text: an
/// ASCII luminance thumbnail of the false-colour composite (see
/// [`fig1_composite`]) and the hot-spot table of the paper's right
/// panel.
///
/// ```text
/// cargo run -p repro-bench --release --bin fig1
/// ```
pub fn fig1(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<()> {
    let cube = &scene.cube;
    let [r_band, g_band, b_band] = composite_bands(cube);
    eprintln!("# composite bands: R={r_band} (1682 nm), G={g_band} (1107 nm), B={b_band} (655 nm)");

    writeln!(
        out,
        "\nFigure 1 (ASCII luminance thumbnail, * = thermal hot spot):"
    )?;
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
        writeln!(out, "  |{row}|")?;
    }
    writeln!(out, "\nthermal hot spots (the paper's Fig. 1 right panel):")?;
    for t in &scene.targets {
        writeln!(
            out,
            "  '{}' {:>4.0} F at (line {:>4}, sample {:>4})",
            t.name, t.temp_f, t.coord.0, t.coord.1
        )?;
    }
    Ok(())
}

/// **Figure 1** as an image: the false-colour composite of the paper's
/// left panel (1682, 1107 and 655 nm as red, green and blue, each
/// stretched between its 2nd and 98th percentile), hot spots boxed in
/// white, as a binary PPM. The `fig1` binary writes it to
/// `target/experiments/fig1_composite.ppm`.
pub fn fig1_composite(scene: &SyntheticScene) -> Vec<u8> {
    let cube = &scene.cube;
    let bands = composite_bands(cube);
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
    let ranges = bands.map(stretch);
    let to8 = |v: f32, (lo, hi): (f32, f32)| -> u8 {
        (((v - lo) / (hi - lo).max(1e-6)).clamp(0.0, 1.0) * 255.0) as u8
    };
    let near_target = |l: usize, s: usize| -> bool {
        scene.targets.iter().any(|t| {
            let (tl, ts) = t.coord;
            let dl = l.abs_diff(tl);
            let ds = s.abs_diff(ts);
            (dl == 2 && ds <= 2) || (ds == 2 && dl <= 2)
        })
    };

    let mut ppm = format!("P6\n{} {}\n255\n", cube.samples(), cube.lines()).into_bytes();
    ppm.reserve(cube.num_pixels() * 3);
    for l in 0..cube.lines() {
        for s in 0..cube.samples() {
            if near_target(l, s) {
                ppm.extend_from_slice(&[255, 255, 255]);
            } else {
                let px = cube.pixel(l, s);
                for (band, range) in bands.iter().zip(ranges) {
                    ppm.push(to8(px[*band], range));
                }
            }
        }
    }
    ppm
}
