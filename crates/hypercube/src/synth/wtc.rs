//! The ready-made World-Trade-Center-like scene preset.
//!
//! Mirrors the structure of the AVIRIS acquisition the paper evaluates on:
//! 224 bands over 0.4–2.5 µm, seven dust/debris classes plus urban
//! background materials, and seven thermal hot spots labelled 'A'–'G'
//! spanning 700 °F to 1300 °F (the USGS thermal map's range, with 'F' the
//! coolest and 'G' the hottest, as in the paper's Table 3).
//!
//! The full-size paper scene is 2133 × 512 pixels (~1 GB); the default
//! here is 256 × 256 so tests and examples stay fast. Virtual-time
//! experiment results scale linearly with pixel count, so every ratio the
//! benchmark tables report is preserved at any size (see DESIGN.md).

use super::materials;
use super::scene::{SceneBuilder, SyntheticScene, TargetPlacement};

/// Configuration of the WTC-like preset scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WtcConfig {
    /// Number of image lines.
    pub lines: usize,
    /// Number of samples per line.
    pub samples: usize,
    /// Number of spectral bands.
    pub bands: usize,
    /// RNG seed.
    pub seed: u64,
    /// Per-band Gaussian noise sigma.
    pub noise_sigma: f64,
}

impl Default for WtcConfig {
    fn default() -> Self {
        WtcConfig {
            lines: 256,
            samples: 256,
            bands: super::bands::AVIRIS_BANDS,
            seed: 20010916, // the acquisition date
            noise_sigma: 0.004,
        }
    }
}

impl WtcConfig {
    /// A small configuration for unit tests.
    pub fn tiny() -> Self {
        WtcConfig {
            lines: 48,
            samples: 40,
            bands: 64,
            ..Default::default()
        }
    }
}

/// The seven hot spots: `(name, temperature °F)` in the paper's Table 3
/// order. 'F' is the 700 °F spot, 'G' the 1300 °F one.
pub const HOT_SPOTS: [(char, f64); 7] = [
    ('A', 1000.0),
    ('B', 1100.0),
    ('C', 900.0),
    ('D', 850.0),
    ('E', 750.0),
    ('F', 700.0),
    ('G', 1300.0),
];

/// Builds the WTC-like scene for a configuration.
///
/// Hot spots are clustered in the upper-middle of the image (the "WTC
/// complex"), at deterministic positions scaled to the image size; the
/// thermal amplitude grows with temperature, so the coolest spot 'F' is
/// the hardest to detect — reproducing the paper's observation that
/// UFCLS misses it while ATDCA does not.
pub fn wtc_scene(cfg: WtcConfig) -> SyntheticScene {
    // Fractional positions of the 7 hot spots (line, sample), spread so no
    // two share a pixel even on tiny grids.
    const POS: [(f64, f64); 7] = [
        (0.30, 0.42),
        (0.32, 0.55),
        (0.38, 0.47),
        (0.28, 0.63),
        (0.42, 0.58),
        (0.45, 0.35),
        (0.35, 0.30),
    ];
    // Per-spot emissivity structure: each fire burns a different material
    // mix (jet fuel, plastics, steel fireproofing…), giving each hot spot
    // distinctive emission features in the SWIR. Without these the
    // normalised Planck curves are nearly collinear and no projection-
    // based detector could separate the spots.
    const EMISSIVITY: [&[(f64, f64, f64)]; 7] = [
        &[(1.60, 0.08, 0.50), (2.10, 0.06, -0.30)], // A
        &[(1.85, 0.07, 0.55), (1.25, 0.06, 0.30)],  // B
        &[(2.25, 0.08, 0.45), (1.50, 0.05, -0.25)], // C
        &[(1.35, 0.07, 0.50), (2.40, 0.06, 0.30)],  // D
        &[(2.00, 0.06, 0.55), (1.70, 0.05, -0.30)], // E
        &[(1.45, 0.05, 1.20), (2.30, 0.07, 0.80), (1.05, 0.05, 0.60)], // F
        &[(1.95, 0.09, -0.35), (1.15, 0.06, 0.45)], // G
    ];
    let targets: Vec<TargetPlacement> = HOT_SPOTS
        .iter()
        .zip(POS.iter())
        .zip(EMISSIVITY.iter())
        .map(|((&(name, temp_f), &(fl, fs)), &emiss)| {
            let line = ((fl * cfg.lines as f64) as usize).min(cfg.lines - 1);
            let sample = ((fs * cfg.samples as f64) as usize).min(cfg.samples - 1);
            // 700 °F -> 0.25, 1300 °F -> 2.0 (linear in temperature):
            // the coolest fires are radiometrically subtle.
            let amplitude = 0.30 + (temp_f - 700.0) / 600.0 * 1.70;
            TargetPlacement {
                name,
                temp_f,
                coord: (line, sample),
                amplitude,
                emissivity: emiss.to_vec(),
            }
        })
        .collect();

    // Lower Manhattan after the collapse was blanketed in dust/debris:
    // the seven debris classes dominate the scene (six seeds each),
    // with background materials confined to single small pockets — the
    // regime in which the USGS map's seven classes are the scene's
    // dominant spectral clusters, as in the paper's evaluation area.
    let mut weights = vec![6usize; materials::NUM_DEBRIS_CLASSES];
    weights.extend(vec![
        1usize;
        materials::full_library().len()
            - materials::NUM_DEBRIS_CLASSES
    ]);
    SceneBuilder::new(cfg.lines, cfg.samples, cfg.bands)
        .seed(cfg.seed)
        .noise_sigma(cfg.noise_sigma)
        .shading_sigma(0.18)
        .mix_width(1.5)
        .materials(materials::full_library())
        .seed_weights(weights)
        .targets(targets)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::brightness;

    #[test]
    fn default_scene_has_seven_targets() {
        let s = wtc_scene(WtcConfig::tiny());
        assert_eq!(s.targets.len(), 7);
        let names: Vec<char> = s.targets.iter().map(|t| t.name).collect();
        assert_eq!(names, vec!['A', 'B', 'C', 'D', 'E', 'F', 'G']);
    }

    #[test]
    fn targets_have_distinct_coords() {
        let s = wtc_scene(WtcConfig::tiny());
        for i in 0..7 {
            for j in (i + 1)..7 {
                assert_ne!(s.targets[i].coord, s.targets[j].coord);
            }
        }
    }

    #[test]
    fn hotter_targets_are_brighter() {
        let s = wtc_scene(WtcConfig::tiny());
        let b = |name: char| {
            let t = s.targets.iter().find(|t| t.name == name).unwrap();
            brightness(s.cube.pixel(t.coord.0, t.coord.1))
        };
        assert!(b('G') > b('A'));
        assert!(b('A') > b('F'));
    }

    #[test]
    fn class_count_matches_library() {
        let s = wtc_scene(WtcConfig::tiny());
        assert_eq!(s.class_signatures.len(), 11);
        assert_eq!(s.class_names.len(), 11);
        // Debris classes must actually appear in the truth map.
        let labels = s.truth.distinct_labels();
        assert!(labels.len() >= 8, "only {} classes present", labels.len());
    }

    #[test]
    fn scene_is_reproducible() {
        let a = wtc_scene(WtcConfig::tiny());
        let b = wtc_scene(WtcConfig::tiny());
        assert_eq!(a.cube, b.cube);
        assert_eq!(a.targets, b.targets);
    }
}
