//! The synthetic scene builder.
//!
//! A scene is assembled in four stages, mirroring how a real urban AVIRIS
//! acquisition is structured:
//!
//! 1. **Spatial layout** — each material class owns a handful of seed
//!    points; every pixel belongs to the class of its nearest seed
//!    (a Voronoi tessellation), producing the spatially coherent regions
//!    that spatial/spectral algorithms such as Hetero-MORPH exploit.
//! 2. **Linear mixing** — near region borders, pixels are convex mixtures
//!    of the two nearest classes with weights driven by the distance
//!    difference, reproducing the mixed-pixel phenomenon central to
//!    hyperspectral analysis (and to UFCLS in particular).
//! 3. **Thermal targets** — point targets add a temperature-scaled
//!    blackbody term on top of the local background (the WTC hot spots).
//! 4. **Sensor noise** — i.i.d. Gaussian noise per band (Box–Muller from
//!    a seeded ChaCha stream, so scenes are bit-reproducible).

use super::blackbody;
use super::materials::Material;
use crate::cube::{Coord, HyperCube};
use crate::labels::LabelImage;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Placement request for a thermal point target.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetPlacement {
    /// Single-letter designation ('A'–'G' in the WTC preset).
    pub name: char,
    /// Fire temperature in °F.
    pub temp_f: f64,
    /// Pixel coordinates `(line, sample)`.
    pub coord: Coord,
    /// Amplitude of the thermal term added to the background (reflectance
    /// units at the signature's peak band).
    pub amplitude: f64,
    /// Multiplicative emissivity features `(center µm, width µm, amp)`:
    /// the thermal term is scaled by `1 + Σ amp·exp(−(λ−c)²/2w²)`.
    /// Different fires burn different material mixes, so each real hot
    /// spot has its own emission structure — this is what makes the hot
    /// spots mutually distinct spectral directions (and ATDCA able to
    /// separate them, as in the paper's Table 3).
    pub emissivity: Vec<(f64, f64, f64)>,
}

/// A placed target in the generated scene (the ground-truth record).
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSpec {
    /// Single-letter designation.
    pub name: char,
    /// Fire temperature in °F.
    pub temp_f: f64,
    /// Pixel coordinates `(line, sample)`.
    pub coord: Coord,
}

/// A generated scene: the cube, per-pixel ground-truth class labels, the
/// placed targets and the noise-free class signatures.
#[derive(Debug, Clone)]
pub struct SyntheticScene {
    /// The hyperspectral image cube.
    pub cube: HyperCube,
    /// Ground-truth class label per pixel (class = material index).
    pub truth: LabelImage,
    /// Ground-truth thermal targets.
    pub targets: Vec<TargetSpec>,
    /// Noise-free reflectance signature of each class, in label order.
    pub class_signatures: Vec<Vec<f32>>,
    /// Names of the material classes, in label order.
    pub class_names: Vec<&'static str>,
}

/// Builder for [`SyntheticScene`].
///
/// ```
/// use hsi_cube::synth::scene::SceneBuilder;
/// use hsi_cube::synth::materials;
/// let scene = SceneBuilder::new(16, 16, 32)
///     .seed(7)
///     .materials(materials::full_library())
///     .build();
/// assert_eq!(scene.cube.bands(), 32);
/// assert_eq!(scene.class_names.len(), 11);
/// ```
#[derive(Debug, Clone)]
pub struct SceneBuilder {
    lines: usize,
    samples: usize,
    bands: usize,
    seed: u64,
    noise_sigma: f64,
    shading_sigma: f64,
    mix_width: f64,
    seeds_per_class: usize,
    seed_weights: Option<Vec<usize>>,
    materials: Vec<Material>,
    targets: Vec<TargetPlacement>,
}

impl SceneBuilder {
    /// Starts a builder for a `lines × samples × bands` scene.
    pub fn new(lines: usize, samples: usize, bands: usize) -> Self {
        SceneBuilder {
            lines,
            samples,
            bands,
            seed: 0,
            noise_sigma: 0.004,
            shading_sigma: 0.0,
            mix_width: 2.0,
            seeds_per_class: 4,
            seed_weights: None,
            materials: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Sets the RNG seed (scenes are deterministic given the seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-band Gaussian noise standard deviation.
    pub fn noise_sigma(mut self, sigma: f64) -> Self {
        self.noise_sigma = sigma;
        self
    }

    /// Sets the illumination (shading) variability: each pixel's
    /// reflective component is scaled by `max(0.3, 1 + σ·𝒩)`, modelling
    /// urban shadow and slope effects. Thermal target emission is *not*
    /// shaded (fires emit). Scaling preserves spectral angles, so
    /// SAD-based processing is unaffected — but it defeats detectors
    /// that are not scale-invariant, which is precisely how UFCLS loses
    /// the coolest hot spots in the paper's Table 3 while ATDCA's
    /// orthogonal projection (which annihilates every scaled copy of an
    /// in-span direction) does not.
    pub fn shading_sigma(mut self, sigma: f64) -> Self {
        self.shading_sigma = sigma;
        self
    }

    /// Sets the border mixing width in pixels (0 disables mixing).
    pub fn mix_width(mut self, w: f64) -> Self {
        self.mix_width = w;
        self
    }

    /// Sets how many Voronoi seeds each class owns.
    pub fn seeds_per_class(mut self, n: usize) -> Self {
        assert!(n > 0, "seeds_per_class: need at least one seed");
        self.seeds_per_class = n;
        self
    }

    /// Sets per-class seed counts (overrides [`Self::seeds_per_class`]);
    /// classes with more seeds occupy proportionally more of the scene.
    ///
    /// # Panics
    /// Panics at [`Self::build`] if the length differs from the material
    /// count or any entry is zero.
    pub fn seed_weights(mut self, weights: Vec<usize>) -> Self {
        self.seed_weights = Some(weights);
        self
    }

    /// Sets the material library (class label = index).
    pub fn materials(mut self, m: Vec<Material>) -> Self {
        self.materials = m;
        self
    }

    /// Adds thermal point targets.
    pub fn targets(mut self, t: Vec<TargetPlacement>) -> Self {
        self.targets = t;
        self
    }

    /// Generates the scene.
    ///
    /// # Panics
    /// Panics if no materials were supplied, the scene is empty, or a
    /// target lies outside the image.
    pub fn build(self) -> SyntheticScene {
        assert!(!self.materials.is_empty(), "build: no materials supplied");
        assert!(
            self.lines > 0 && self.samples > 0 && self.bands > 0,
            "build: empty scene"
        );
        for t in &self.targets {
            assert!(
                t.coord.0 < self.lines && t.coord.1 < self.samples,
                "build: target {} at {:?} outside {}x{}",
                t.name,
                t.coord,
                self.lines,
                self.samples
            );
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let grid = super::bands::grid(self.bands);
        let signatures: Vec<Vec<f32>> = self
            .materials
            .iter()
            .map(|m| m.reflectance(&grid).iter().map(|&v| v as f32).collect())
            .collect();

        // Stage 1: Voronoi seeds. Each class places its seed count
        // (uniform by default, or per-class weights).
        let weights: Vec<usize> = match &self.seed_weights {
            Some(w) => {
                assert_eq!(
                    w.len(),
                    self.materials.len(),
                    "seed_weights: need one entry per material"
                );
                assert!(w.iter().all(|&n| n > 0), "seed_weights: zero entry");
                w.clone()
            }
            None => vec![self.seeds_per_class; self.materials.len()],
        };
        let mut seeds: Vec<(f64, f64, u16)> = Vec::new();
        for (class, &count) in weights.iter().enumerate() {
            for _ in 0..count {
                let l = rng.gen_range(0.0..self.lines as f64);
                let s = rng.gen_range(0.0..self.samples as f64);
                seeds.push((l, s, class as u16));
            }
        }

        // Per-line generation, parallelised with rayon, straight into the
        // cube's and the labels' buffers. Each line owns a ChaCha stream
        // seeded from (scene seed, line), so the result is bit-identical
        // regardless of thread count or schedule.
        use rayon::prelude::*;
        let mut data = vec![0.0f32; self.lines * self.samples * self.bands];
        let mut label_data = vec![0u16; self.lines * self.samples];
        data.par_chunks_mut(self.samples * self.bands)
            .zip(label_data.par_chunks_mut(self.samples))
            .enumerate()
            .for_each(|(line, (row, labels))| {
                let mut line_rng =
                    ChaCha8Rng::seed_from_u64(splitmix(self.seed ^ (line as u64 + 1)));
                let mut gauss = GaussianStream::default();
                for sample in 0..self.samples {
                    // Nearest and second-nearest seed of a different class.
                    let (pl, ps) = (line as f64 + 0.5, sample as f64 + 0.5);
                    let mut d1 = f64::INFINITY;
                    let mut c1 = 0u16;
                    for &(sl, ss, class) in &seeds {
                        let d = (sl - pl).powi(2) + (ss - ps).powi(2);
                        if d < d1 {
                            d1 = d;
                            c1 = class;
                        }
                    }
                    let mut d2 = f64::INFINITY;
                    let mut c2 = c1;
                    for &(sl, ss, class) in &seeds {
                        if class == c1 {
                            continue;
                        }
                        let d = (sl - pl).powi(2) + (ss - ps).powi(2);
                        if d < d2 {
                            d2 = d;
                            c2 = class;
                        }
                    }
                    labels[sample] = c1;

                    // Stage 2: mixing weight from the distance margin.
                    let w1 = if self.mix_width > 0.0 && c2 != c1 {
                        let margin = d2.sqrt() - d1.sqrt();
                        // w1 in [0.5, 1]: at the exact border the two
                        // classes contribute equally; one mix-width in,
                        // the pixel is effectively pure.
                        0.5 + 0.5 * (margin / self.mix_width).clamp(0.0, 1.0)
                    } else {
                        1.0
                    };

                    let shade = if self.shading_sigma > 0.0 {
                        (1.0 + self.shading_sigma * gauss.next(&mut line_rng)).max(0.3)
                    } else {
                        1.0
                    };
                    let px = &mut row[sample * self.bands..(sample + 1) * self.bands];
                    let (sig1, sig2) = (&signatures[c1 as usize], &signatures[c2 as usize]);
                    for b in 0..self.bands {
                        let pure = w1 * sig1[b] as f64 + (1.0 - w1) * sig2[b] as f64;
                        // Stage 4 (noise + shading) folded into this pass.
                        px[b] = (shade * pure + self.noise_sigma * gauss.next(&mut line_rng))
                            .max(0.0) as f32;
                    }
                }
            });
        let mut cube = HyperCube::from_vec(self.lines, self.samples, self.bands, data);
        let truth = LabelImage::from_vec(self.lines, self.samples, label_data);

        // Stage 3: thermal targets on top of whatever background is there.
        let mut placed = Vec::with_capacity(self.targets.len());
        for t in &self.targets {
            let thermal = blackbody::thermal_signature(&grid, t.temp_f);
            let px = cube.pixel_mut(t.coord.0, t.coord.1);
            for b in 0..self.bands {
                let mut emiss = 1.0;
                for &(c, w, a) in &t.emissivity {
                    let d = (grid[b] - c) / w;
                    emiss += a * (-0.5 * d * d).exp();
                }
                px[b] = (0.4 * px[b] as f64 + t.amplitude * thermal[b] * emiss.max(0.0)).max(0.0)
                    as f32;
            }
            placed.push(TargetSpec {
                name: t.name,
                temp_f: t.temp_f,
                coord: t.coord,
            });
        }

        SyntheticScene {
            cube,
            truth,
            targets: placed,
            class_signatures: signatures,
            class_names: self.materials.iter().map(|m| m.name).collect(),
        }
    }
}

/// SplitMix64 finaliser: decorrelates per-line seeds derived from the
/// scene seed by XOR.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Box–Muller Gaussian sampler producing pairs from a uniform stream.
#[derive(Default)]
struct GaussianStream {
    spare: Option<f64>,
}

impl GaussianStream {
    fn next(&mut self, rng: &mut ChaCha8Rng) -> f64 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        // Draw until u1 is safely positive (probability ~1 per draw).
        let mut u1: f64 = rng.gen();
        while u1 <= f64::MIN_POSITIVE {
            u1 = rng.gen();
        }
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::sad;
    use crate::synth::materials;

    fn tiny_scene(seed: u64) -> SyntheticScene {
        SceneBuilder::new(24, 16, 32)
            .seed(seed)
            .materials(materials::full_library())
            .targets(vec![TargetPlacement {
                name: 'A',
                temp_f: 1000.0,
                coord: (5, 5),
                amplitude: 2.0,
                emissivity: vec![(1.6, 0.08, 0.5)],
            }])
            .build()
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = tiny_scene(7);
        let b = tiny_scene(7);
        assert_eq!(a.cube, b.cube);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny_scene(1);
        let b = tiny_scene(2);
        assert_ne!(a.cube, b.cube);
    }

    #[test]
    fn every_pixel_labeled() {
        let s = tiny_scene(3);
        for line in 0..24 {
            for sample in 0..16 {
                assert_ne!(s.truth.get(line, sample), crate::labels::UNLABELED);
            }
        }
    }

    #[test]
    fn pixels_resemble_their_class_signature() {
        // Away from borders and with low noise, a pixel's SAD to its own
        // class signature must beat its SAD to most other signatures.
        let s = SceneBuilder::new(32, 32, 64)
            .seed(11)
            .noise_sigma(0.001)
            .materials(materials::full_library())
            .build();
        let mut hits = 0usize;
        let mut total = 0usize;
        for line in 0..32 {
            for sample in 0..32 {
                let px = s.cube.pixel(line, sample);
                let own = s.truth.get(line, sample) as usize;
                let best = crate::metrics::nearest_by_sad(px, &s.class_signatures).unwrap();
                total += 1;
                if best == own {
                    hits += 1;
                }
            }
        }
        // Mixing zones blur some pixels; the large majority must match.
        assert!(
            hits as f64 / total as f64 > 0.7,
            "only {hits}/{total} pixels match their class"
        );
    }

    #[test]
    fn target_pixel_is_anomalous_and_bright() {
        let s = tiny_scene(9);
        let t = &s.targets[0];
        let px = s.cube.pixel(t.coord.0, t.coord.1);
        // The hot spot must be the brightest pixel in the scene...
        let ((bl, bs), _) = s.cube.brightest_pixel().unwrap();
        assert_eq!((bl, bs), t.coord);
        // ...and spectrally unlike every class signature.
        for sig in &s.class_signatures {
            assert!(sad(px, sig) > 0.15, "target not anomalous enough");
        }
    }

    #[test]
    fn mixing_disabled_gives_pure_borders() {
        let s = SceneBuilder::new(16, 16, 16)
            .seed(5)
            .noise_sigma(0.0)
            .mix_width(0.0)
            .materials(materials::full_library())
            .build();
        // With no mixing and no noise every pixel equals its signature.
        for line in 0..16 {
            for sample in 0..16 {
                let own = s.truth.get(line, sample) as usize;
                let px = s.cube.pixel(line, sample);
                for (a, b) in px.iter().zip(&s.class_signatures[own]) {
                    assert!((a - b).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn regions_are_spatially_coherent() {
        // A pixel's 4-neighbours share its label far more often than not.
        let s = SceneBuilder::new(64, 64, 8)
            .seed(13)
            .materials(materials::full_library())
            .build();
        let mut same = 0usize;
        let mut total = 0usize;
        for line in 0..63 {
            for sample in 0..63 {
                total += 2;
                if s.truth.get(line, sample) == s.truth.get(line + 1, sample) {
                    same += 1;
                }
                if s.truth.get(line, sample) == s.truth.get(line, sample + 1) {
                    same += 1;
                }
            }
        }
        assert!(same as f64 / total as f64 > 0.8, "{same}/{total}");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_target_panics() {
        SceneBuilder::new(8, 8, 4)
            .materials(materials::full_library())
            .targets(vec![TargetPlacement {
                name: 'Z',
                temp_f: 900.0,
                coord: (8, 0),
                amplitude: 1.0,
                emissivity: Vec::new(),
            }])
            .build();
    }

    #[test]
    #[should_panic(expected = "no materials")]
    fn empty_material_list_panics() {
        SceneBuilder::new(4, 4, 4).build();
    }
}
