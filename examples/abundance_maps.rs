//! Sub-pixel abundance mapping with fully constrained least squares —
//! the machinery underneath UFCLS (Algorithm 3), used directly.
//!
//! Unmixes every pixel of a synthetic debris scene against the true
//! class endmembers and prints ASCII abundance maps: where each material
//! concentrates, and where the linear-mixing residual is large (the
//! thermal hot spots, which no reflectance mixture can explain).
//!
//! ```text
//! cargo run --release --example abundance_maps
//! ```

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::linalg::lstsq::{FclsProblem, FclsWorkspace};
use heterospec::linalg::Matrix;

fn main() {
    heterospec::linalg::require_built_isa();
    let scene = wtc_scene(WtcConfig {
        lines: 48,
        samples: 72,
        bands: 96,
        ..Default::default()
    });
    let cube = &scene.cube;

    // Endmember matrix U: one row per material signature.
    let rows: Vec<Vec<f64>> = scene
        .class_signatures
        .iter()
        .map(|s| s.iter().map(|&v| v as f64).collect())
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let problem = FclsProblem::new(Matrix::from_rows(&refs)).expect("endmembers");

    // Unmix everything once, in one reused workspace (no allocation per
    // pixel — the way the UFCLS kernel runs it).
    let mut abundances = vec![vec![0.0f64; cube.num_pixels()]; scene.class_names.len()];
    let mut residual = vec![0.0f64; cube.num_pixels()];
    let mut ws = FclsWorkspace::new();
    for i in 0..cube.num_pixels() {
        residual[i] = problem
            .solve_f32_in(cube.pixel_flat(i), &mut ws)
            .expect("fcls");
        for (class, &a) in ws.abundances().iter().enumerate() {
            abundances[class][i] = a;
        }
    }

    let ramp: &[u8] = b" .:-=+*#%@";
    let render = |values: &[f64], max: f64| {
        for line in 0..cube.lines() / 2 {
            let mut row = String::new();
            for sample in 0..cube.samples() {
                // Average two lines per text row for aspect ratio.
                let a = values[cube.index_of((2 * line, sample))];
                let b = values[cube.index_of((2 * line + 1, sample))];
                let v = ((a + b) / 2.0 / max).clamp(0.0, 0.999);
                row.push(ramp[(v * ramp.len() as f64) as usize] as char);
            }
            println!("  |{row}|");
        }
    };

    for class in [6usize, 7] {
        // Gypsum wall board and Vegetation: visually distinctive classes.
        println!(
            "\nabundance of {:?} (FCLS, darker = less):",
            scene.class_names[class]
        );
        render(&abundances[class], 1.0);
    }

    println!("\nFCLS residual (bright = unexplainable by any reflectance mixture):");
    let max_r = residual.iter().cloned().fold(0.0f64, f64::max);
    render(&residual, max_r * 0.25);

    println!("\nthermal hot spots (should coincide with the residual peaks):");
    for t in &scene.targets {
        println!(
            "  '{}' at (line {:>2}, sample {:>2})",
            t.name, t.coord.0, t.coord.1
        );
    }

    // Quantitative check: mean abundance of each debris class inside its
    // own ground-truth region.
    println!("\nmean own-region abundance per class:");
    for (class, name) in scene.class_names.iter().enumerate() {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (i, &a) in abundances[class].iter().enumerate() {
            let (l, s) = cube.coord_of(i);
            if scene.truth.get(l, s) as usize == class {
                sum += a;
                count += 1;
            }
        }
        if count > 0 {
            println!("  {:26} {:5.2}", name, sum / count as f64);
        }
    }
}
