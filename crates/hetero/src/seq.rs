//! Sequential reference implementations.
//!
//! These are the single-processor baselines of the paper's Tables 3, 4
//! and 8 (and the denominators of Figure 2's speedups). Each runs the
//! same kernels as the parallel workers on the whole image and reports
//! its analytic cost in megaflops; virtual sequential time is
//! `mflops × w` for the processor of interest (Thunderhead-class
//! `w = 0.0131` in the paper's tables).
//!
//! [`atdca`] and [`ufcls`] are one loop, `detect`, over the two detector
//! descriptions of `crate::detect` (state, host operations, cost table):
//! a new detector is an impl there and a one-line function here.

use crate::config::AlgoParams;
use crate::detect::{Detector, Fcls, Osp};
use crate::kernels::{self, ScoredPixel};
use hsi_cube::{HyperCube, LabelImage};
use hsi_linalg::covariance::CovarianceAccumulator;
use hsi_linalg::eigen::SymmetricEigen;
use hsi_linalg::Matrix;
use hsi_morpho::StructuringElement;

/// A detected target pixel in global image coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedTarget {
    /// Image line.
    pub line: usize,
    /// Image sample.
    pub sample: usize,
    /// The pixel's spectrum.
    pub spectrum: Vec<f32>,
}

/// Output of a sequential run: the result plus its megaflop cost.
#[derive(Debug, Clone)]
pub struct SeqOutput<T> {
    /// The analysis result.
    pub result: T,
    /// Total analytic cost in megaflops.
    pub mflops: f64,
}

impl<T> SeqOutput<T> {
    /// Virtual runtime in seconds on a processor with the given
    /// cycle-time (secs/megaflop).
    pub fn virtual_secs(&self, cycle_time: f64) -> f64 {
        self.mflops * cycle_time
    }
}

/// Algorithms 2–3 on one processor: the brightest pixel first, then
/// rounds of nominate → admit, each round's follow-up charged after it.
fn detect<D: Detector>(cube: &HyperCube, params: &AlgoParams) -> SeqOutput<Vec<DetectedTarget>> {
    let full = (0, cube.lines());
    let (n, t) = (cube.bands(), params.num_targets);
    let (mut detector, carry) = (D::new(n), D::Carry::default());
    let mut targets: Vec<DetectedTarget> = Vec::new();
    let mut mflops = 0.0;
    // The first target is extracted whatever `t` says.
    for k in 0..t.max(1) {
        let (best, mf) = if k == 0 {
            kernels::brightest(cube, full)
        } else {
            detector.nominate(cube, full, &carry)
        };
        mflops += mf;
        let best = best.unwrap_or_else(|| panic!("{}: empty image", D::NAME));
        let spectrum = cube.pixel(best.line, best.sample).to_vec();
        detector.admit(&spectrum);
        mflops += D::follow_up(n, k, t);
        targets.push(DetectedTarget {
            line: best.line,
            sample: best.sample,
            spectrum,
        });
    }
    SeqOutput {
        result: targets,
        mflops,
    }
}

/// Sequential ATDCA: iterative orthogonal-subspace target extraction.
pub fn atdca(cube: &HyperCube, params: &AlgoParams) -> SeqOutput<Vec<DetectedTarget>> {
    detect::<Osp>(cube, params)
}

/// Sequential UFCLS: iterative fully-constrained least-squares target
/// generation.
pub fn ufcls(cube: &HyperCube, params: &AlgoParams) -> SeqOutput<Vec<DetectedTarget>> {
    detect::<Fcls>(cube, params)
}

/// The PCT model built by the sequential algorithm (also broadcast by
/// the parallel one).
#[derive(Debug, Clone, PartialEq)]
pub struct PctModel {
    /// The `c × N` principal transform (rows = top eigenvectors).
    pub transform: Matrix,
    /// The image mean spectrum.
    pub mean: Vec<f64>,
    /// Class representatives in transformed space.
    pub class_reps: Vec<Vec<f64>>,
}

/// `f64` count of the model of `c` classes over `n` bands: the
/// `c.min(n) × n` transform, the mean, and `c` transformed
/// representatives (what a labelling step stages or is broadcast).
pub(crate) fn pct_model_len(n: usize, c: usize) -> usize {
    c.min(n) * n + n + c * c.min(n)
}

impl PctModel {
    /// The master step of Algorithm 4 (steps 6–8): mean and covariance
    /// of the merged accumulator, the sequential eigendecomposition, the
    /// top `c` eigenvectors as transform, and the class representatives
    /// `reps` taken into its space. Host-side only: each driver places
    /// its own charges around the call.
    pub(crate) fn fit(acc: &CovarianceAccumulator, reps: &[Vec<f32>], c: usize) -> PctModel {
        let mean = acc.mean().expect("pct: empty image");
        let cov = acc.covariance().expect("pct: empty image");
        let eig = SymmetricEigen::new(&cov).expect("pct: eigen failed");
        let transform = eig
            .principal_transform(c.min(acc.dim()))
            .expect("pct: transform");
        let class_reps = transform_reps(&transform, &mean, reps);
        PctModel {
            transform,
            mean,
            class_reps,
        }
    }

    /// Wire size of a model broadcast: every `f64` it holds.
    pub(crate) fn wire_bits(&self) -> u64 {
        let classes: usize = self.class_reps.iter().map(Vec::len).sum();
        ((self.transform.rows() * self.transform.cols() + self.mean.len() + classes) * 64) as u64
    }
}

/// Transforms full-spectrum class representatives into PCT space.
fn transform_reps(transform: &Matrix, mean: &[f64], reps: &[Vec<f32>]) -> Vec<Vec<f64>> {
    reps.iter()
        .map(|r| {
            let centred: Vec<f64> = r.iter().zip(mean).map(|(&v, &m)| v as f64 - m).collect();
            transform.matvec(&centred).expect("transform shape")
        })
        .collect()
}

/// Sequential PCT classification (Algorithm 4 on one processor).
pub fn pct(cube: &HyperCube, params: &AlgoParams) -> SeqOutput<(LabelImage, PctModel)> {
    let full = (0, cube.lines());
    let n = cube.bands();
    let c = params.num_classes;
    let mut mflops = 0.0;

    // Step 2-3: unique spectral set, reduced to c representatives.
    let cap = 4 * c;
    let (set, mf) = kernels::unique_set(cube, full, params.sad_threshold, cap);
    mflops += mf;
    let (reps, mf) = reduce_candidates(&scored_spectra(cube, &set), params.sad_threshold, c);
    mflops += mf;

    // Steps 4-7: mean, covariance and the eigendecomposition (sequential
    // at the master in the paper).
    let (acc, mf) = kernels::covariance_partial(cube, full);
    mflops += mf;
    let model = PctModel::fit(&acc, &reps, c);
    mflops += crate::flops::mflop(crate::flops::jacobi_eigen(n));

    // Steps 8-9: transform + classify.
    let (labels, mf) =
        kernels::pct_label(cube, full, &model.transform, &model.mean, &model.class_reps);
    mflops += mf;
    let image = LabelImage::from_vec(cube.lines(), cube.samples(), labels);
    SeqOutput {
        result: (image, model),
        mflops,
    }
}

/// The spectra and scores of `pixels` of `cube`, as
/// [`reduce_candidates`] takes them.
pub(crate) fn scored_spectra(cube: &HyperCube, pixels: &[ScoredPixel]) -> Vec<(Vec<f32>, f64)> {
    pixels
        .iter()
        .map(|p| (cube.pixel(p.line, p.sample).to_vec(), p.score))
        .collect()
}

/// Reduces scored candidate spectra into at most `c` mutually distinct
/// representatives (the master's unique-set formation, PCT step 3 /
/// MORPH step 3).
///
/// Candidates are greedily clustered in descending score order: a
/// candidate within `threshold` SAD of an existing representative joins
/// it (raising that representative's **support**); otherwise it founds a
/// new one. Representatives are then ranked by support (ties by score)
/// and the top `c` returned. Support — how many partitions nominated a
/// matching spectrum — is what makes the reduction robust to the
/// processor count: a class present across the scene is nominated by
/// many partitions, while a single anomalous neighbourhood is nominated
/// by one.
pub fn reduce_candidates(
    scored: &[(Vec<f32>, f64)],
    threshold: f64,
    c: usize,
) -> (Vec<Vec<f32>>, f64) {
    let mut order: Vec<usize> = (0..scored.len()).collect();
    order.sort_by(|&a, &b| {
        scored[b]
            .1
            .partial_cmp(&scored[a].1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    // (spectrum, support, founding score). The cluster count is capped at
    // 4c: beyond that, unmatched (necessarily low-score) candidates are
    // dropped, which bounds the master's merge cost at O(candidates × 4c)
    // SAD evaluations — without the cap the sequential component grows
    // with the processor count and dominates at 256 CPUs, which the
    // paper's own reported SEQ values (≈ 1–2 s at 256) rule out.
    let cap = 4 * c.max(1);
    let mut reps: Vec<(Vec<f32>, usize, f64)> = Vec::new();
    let mut sad_evals = 0usize;
    for i in order {
        let (s, score) = (&scored[i].0, scored[i].1);
        let mut joined = false;
        for (rep, support, _) in reps.iter_mut() {
            sad_evals += 1;
            if hsi_cube::metrics::sad(s, rep) <= threshold {
                *support += 1;
                joined = true;
                break;
            }
        }
        if !joined && reps.len() < cap {
            reps.push((s.clone(), 1, score));
        }
    }
    reps.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
    });
    reps.truncate(c);
    let n = scored.first().map(|s| s.0.len()).unwrap_or(1);
    let mflops = crate::flops::mflop(crate::flops::sad(n) * sad_evals as f64);
    (reps.into_iter().map(|(s, _, _)| s).collect(), mflops)
}

/// Sequential MORPH classification (Algorithm 5 on one processor).
pub fn morph(cube: &HyperCube, params: &AlgoParams) -> SeqOutput<(LabelImage, Vec<Vec<f32>>)> {
    let full = (0, cube.lines());
    let se = StructuringElement::square(params.se_radius);
    let mut mflops = 0.0;

    // Step 2: MEI + top-c mutually distinct candidates.
    let (top, mf) = kernels::mei_top(
        cube,
        &se,
        params.morph_iterations,
        full,
        params.num_classes,
        params.sad_threshold,
    );
    mflops += mf;

    // Step 3: unique set of p <= c representatives.
    let (reps, mf) = reduce_candidates(
        &scored_spectra(cube, &top),
        params.sad_threshold,
        params.num_classes,
    );
    mflops += mf;

    // Steps 4-5: SAD labelling.
    let (labels, mf) = kernels::sad_label(cube, full, &reps);
    mflops += mf;
    let image = LabelImage::from_vec(cube.lines(), cube.samples(), labels);
    SeqOutput {
        result: (image, reps),
        mflops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi_cube::metrics::sad;
    use hsi_cube::synth::{wtc_scene, WtcConfig};

    fn scene() -> hsi_cube::synth::SyntheticScene {
        wtc_scene(WtcConfig::tiny())
    }

    fn params() -> AlgoParams {
        AlgoParams {
            num_targets: 10,
            num_classes: 7,
            morph_iterations: 2,
            ..Default::default()
        }
    }

    #[test]
    fn atdca_extracts_requested_targets() {
        let s = scene();
        let out = atdca(&s.cube, &params());
        assert_eq!(out.result.len(), 10);
        assert!(out.mflops > 0.0);
        // First target is the global brightest pixel (a hot spot).
        let ((bl, bs), _) = s.cube.brightest_pixel().unwrap();
        assert_eq!((out.result[0].line, out.result[0].sample), (bl, bs));
        // Targets are distinct pixels.
        for i in 0..out.result.len() {
            for j in (i + 1)..out.result.len() {
                assert_ne!(
                    (out.result[i].line, out.result[i].sample),
                    (out.result[j].line, out.result[j].sample)
                );
            }
        }
    }

    #[test]
    fn atdca_finds_thermal_targets() {
        let s = scene();
        let out = atdca(
            &s.cube,
            &AlgoParams {
                num_targets: 18,
                ..params()
            },
        );
        // Every ground-truth hot spot must be closely matched by some
        // detected target (the paper's Table 3 claim for ATDCA).
        for t in &s.targets {
            let truth = s.cube.pixel(t.coord.0, t.coord.1);
            let best = out
                .result
                .iter()
                .map(|d| sad(&d.spectrum, truth))
                .fold(f64::INFINITY, f64::min);
            assert!(best < 0.1, "hot spot {} unmatched: best SAD {best}", t.name);
        }
    }

    #[test]
    fn ufcls_extracts_requested_targets() {
        let s = scene();
        let out = ufcls(&s.cube, &params());
        assert_eq!(out.result.len(), 10);
        assert!(out.mflops > 0.0);
    }

    #[test]
    fn pct_labels_every_pixel() {
        let s = scene();
        let out = pct(&s.cube, &params());
        let (labels, model) = &out.result;
        assert_eq!(labels.lines(), s.cube.lines());
        assert_eq!(model.transform.rows(), 7);
        assert_eq!(model.transform.cols(), s.cube.bands());
        // Labels fall in [0, c).
        for &l in labels.as_slice() {
            assert!(l < 7);
        }
    }

    #[test]
    fn pct_classification_is_meaningful() {
        let s = scene();
        let out = pct(&s.cube, &params());
        let report = hsi_cube::labels::score(&out.result.0, &s.truth);
        // Sequential PCT on the tiny 64-band scene: modest but far above
        // the ~9% chance level of an 11-class map.
        assert!(
            report.overall > 30.0,
            "PCT accuracy too low: {}",
            report.overall
        );
    }

    #[test]
    fn morph_labels_every_pixel_and_beats_chance() {
        let s = scene();
        let out = morph(&s.cube, &params());
        let (labels, reps) = &out.result;
        assert_eq!(labels.as_slice().len(), s.cube.num_pixels());
        assert!(!reps.is_empty() && reps.len() <= 7);
        let report = hsi_cube::labels::score(labels, &s.truth);
        assert!(
            report.overall > 30.0,
            "MORPH accuracy too low: {}",
            report.overall
        );
    }

    #[test]
    fn reduce_candidates_dedupes() {
        let a = (vec![1.0f32, 0.0], 3.0);
        let a2 = (vec![0.999f32, 0.001], 2.0);
        let b = (vec![0.0f32, 1.0], 1.0);
        let (reps, _) = reduce_candidates(&[a, a2, b], 0.05, 5);
        assert_eq!(reps.len(), 2);
    }

    #[test]
    fn reduce_candidates_caps_at_c_and_prefers_high_scores() {
        let scored: Vec<(Vec<f32>, f64)> = (0..6)
            .map(|i| {
                let angle = i as f32 * 0.3;
                (vec![angle.cos(), angle.sin()], i as f64)
            })
            .collect();
        let (reps, _) = reduce_candidates(&scored, 0.05, 3);
        assert_eq!(reps.len(), 3);
        // Highest-scoring candidate (index 5) must be kept first.
        assert_eq!(reps[0], scored[5].0);
    }

    #[test]
    fn virtual_secs_scale_with_cycle_time() {
        let s = scene();
        let out = atdca(&s.cube, &params());
        let fast = out.virtual_secs(0.0026);
        let slow = out.virtual_secs(0.0451);
        assert!((slow / fast - 0.0451 / 0.0026).abs() < 1e-9);
    }

    #[test]
    fn morph_cost_exceeds_pct_cost() {
        // Table 4: the morphological algorithm is the most expensive.
        let s = scene();
        let p = AlgoParams {
            morph_iterations: 5,
            ..params()
        };
        let c_pct = pct(&s.cube, &p).mflops;
        let c_morph = morph(&s.cube, &p).mflops;
        assert!(
            c_morph > c_pct,
            "MORPH ({c_morph}) should cost more than PCT ({c_pct})"
        );
    }
}
