//! Scene generation and ENVI-style persistence.
//!
//! Generates a synthetic AVIRIS-like scene, inspects its spectral
//! content, writes it out in ENVI raw+header format (readable by
//! standard hyperspectral tooling) and reads it back.
//!
//! ```text
//! cargo run --release --example scene_io
//! ```

use heterospec::cube::io::envi;
use heterospec::cube::metrics::{brightness, sad};
use heterospec::cube::synth::{wtc_scene, WtcConfig};

fn main() {
    heterospec::linalg::require_built_isa();
    let scene = wtc_scene(WtcConfig {
        lines: 64,
        samples: 64,
        ..Default::default()
    });
    println!("generated {:?}", scene.cube);

    // Class inventory.
    println!("\nmaterial classes:");
    let counts = scene.truth.class_counts();
    for (label, name) in scene.class_names.iter().enumerate() {
        let n = counts.get(&(label as u16)).copied().unwrap_or(0);
        println!("  {label:>2} {name:26} {n:>6} px");
    }

    // The brightest pixel should be the hottest fire.
    let ((line, sample), px) = scene.cube.brightest_pixel().unwrap();
    let target = scene.targets.iter().find(|t| t.coord == (line, sample));
    println!(
        "\nbrightest pixel at ({line},{sample}), xTx = {:.1} -> {}",
        brightness(px),
        match target {
            Some(t) => format!("hot spot '{}' ({} F)", t.name, t.temp_f),
            None => "not a target".to_string(),
        }
    );

    // Spectral separability of the debris classes.
    println!("\npairwise SAD of the first four debris classes (radians):");
    for i in 0..4 {
        let row: Vec<String> = (0..4)
            .map(|j| {
                format!(
                    "{:.3}",
                    sad(&scene.class_signatures[i], &scene.class_signatures[j])
                )
            })
            .collect();
        println!("  {:26} {}", scene.class_names[i], row.join("  "));
    }

    // ENVI round trip.
    let dir = std::env::temp_dir().join("heterospec-example");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("wtc_scene.raw");
    envi::write_cube(&scene.cube, &path).expect("write ENVI");
    println!(
        "\nwrote {} (+ .hdr), {} bytes",
        path.display(),
        scene.cube.size_bytes()
    );
    let back = envi::read_cube(&path).expect("read ENVI");
    assert_eq!(back, scene.cube);
    println!(
        "read back: identical ({} pixels verified)",
        back.num_pixels()
    );
}
