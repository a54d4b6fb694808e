//! Label images and classification scoring.
//!
//! The paper's Table 4 reports per-class and overall classification
//! accuracies of Hetero-PCT and Hetero-MORPH against the USGS dust/debris
//! ground truth. Our classifiers are *unsupervised* — they emit arbitrary
//! cluster ids — so scoring first finds the accuracy-maximising mapping
//! from predicted clusters to ground-truth classes (majority vote per
//! cluster), then reports per-class recall and overall accuracy, exactly
//! the conventional protocol for unsupervised thematic maps.

use std::collections::HashMap;

/// Sentinel label for pixels with no ground-truth class (not scored).
pub const UNLABELED: u16 = u16::MAX;

/// A 2-D image of `u16` class labels.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelImage {
    lines: usize,
    samples: usize,
    labels: Vec<u16>,
}

impl LabelImage {
    /// Creates a label image filled with [`UNLABELED`].
    pub fn unlabeled(lines: usize, samples: usize) -> Self {
        LabelImage {
            lines,
            samples,
            labels: vec![UNLABELED; lines * samples],
        }
    }

    /// Creates a label image from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `labels.len() != lines * samples`.
    pub fn from_vec(lines: usize, samples: usize, labels: Vec<u16>) -> Self {
        assert_eq!(labels.len(), lines * samples, "from_vec: length mismatch");
        LabelImage {
            lines,
            samples,
            labels,
        }
    }

    /// Number of lines (rows).
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Number of samples (columns).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Label at `(line, sample)`.
    #[inline]
    pub fn get(&self, line: usize, sample: usize) -> u16 {
        self.labels[line * self.samples + sample]
    }

    /// Sets the label at `(line, sample)`.
    #[inline]
    pub fn set(&mut self, line: usize, sample: usize, label: u16) {
        self.labels[line * self.samples + sample] = label;
    }

    /// Borrow of the flat label buffer.
    pub fn as_slice(&self) -> &[u16] {
        &self.labels
    }

    /// Distinct labels present (excluding [`UNLABELED`]), sorted.
    pub fn distinct_labels(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self
            .labels
            .iter()
            .copied()
            .filter(|&l| l != UNLABELED)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of pixels carrying each label (excluding [`UNLABELED`]).
    pub fn class_counts(&self) -> HashMap<u16, usize> {
        let mut m = HashMap::new();
        for &l in &self.labels {
            if l != UNLABELED {
                *m.entry(l).or_insert(0) += 1;
            }
        }
        m
    }
}

/// Classification accuracy report: per-class recall plus overall accuracy,
/// after the optimal cluster→class mapping.
#[derive(Debug, Clone)]
pub struct AccuracyReport {
    /// `(class label, recall percentage)` for every ground-truth class,
    /// sorted by class label.
    pub per_class: Vec<(u16, f64)>,
    /// Overall accuracy percentage over all labeled pixels.
    pub overall: f64,
    /// The cluster→class mapping that was applied.
    pub mapping: HashMap<u16, u16>,
}

/// Scores a predicted label image against ground truth.
///
/// Each predicted cluster is mapped to the ground-truth class that is the
/// majority among its pixels; per-class recall and overall accuracy are
/// then computed over all pixels whose truth label is not [`UNLABELED`].
///
/// # Panics
/// Panics if the two images have different shapes.
pub fn score(predicted: &LabelImage, truth: &LabelImage) -> AccuracyReport {
    assert_eq!(
        (predicted.lines, predicted.samples),
        (truth.lines, truth.samples),
        "score: shape mismatch"
    );
    // cluster -> (class -> count)
    let mut votes: HashMap<u16, HashMap<u16, usize>> = HashMap::new();
    for (&p, &t) in predicted.labels.iter().zip(&truth.labels) {
        if t == UNLABELED || p == UNLABELED {
            continue;
        }
        *votes.entry(p).or_default().entry(t).or_insert(0) += 1;
    }
    // Majority mapping with deterministic tie-break on the class label.
    let mut mapping: HashMap<u16, u16> = HashMap::new();
    for (&cluster, counts) in &votes {
        let mut best: Option<(u16, usize)> = None;
        let mut classes: Vec<_> = counts.iter().collect();
        classes.sort_by_key(|(c, _)| **c);
        for (&class, &n) in classes {
            match best {
                Some((_, bn)) if n <= bn => {}
                _ => best = Some((class, n)),
            }
        }
        if let Some((class, _)) = best {
            mapping.insert(cluster, class);
        }
    }

    let mut correct_per_class: HashMap<u16, usize> = HashMap::new();
    let mut total_per_class: HashMap<u16, usize> = HashMap::new();
    let mut correct = 0usize;
    let mut total = 0usize;
    for (&p, &t) in predicted.labels.iter().zip(&truth.labels) {
        if t == UNLABELED {
            continue;
        }
        total += 1;
        *total_per_class.entry(t).or_insert(0) += 1;
        let mapped = if p == UNLABELED {
            UNLABELED
        } else {
            *mapping.get(&p).unwrap_or(&UNLABELED)
        };
        if mapped == t {
            correct += 1;
            *correct_per_class.entry(t).or_insert(0) += 1;
        }
    }

    let mut per_class: Vec<(u16, f64)> = total_per_class
        .iter()
        .map(|(&class, &n)| {
            let c = *correct_per_class.get(&class).unwrap_or(&0);
            (class, 100.0 * c as f64 / n as f64)
        })
        .collect();
    per_class.sort_by_key(|(c, _)| *c);

    AccuracyReport {
        per_class,
        overall: if total == 0 {
            0.0
        } else {
            100.0 * correct as f64 / total as f64
        },
        mapping,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_100() {
        let truth = LabelImage::from_vec(2, 2, vec![0, 0, 1, 1]);
        // Clusters 7 and 3 map onto classes 0 and 1.
        let pred = LabelImage::from_vec(2, 2, vec![7, 7, 3, 3]);
        let r = score(&pred, &truth);
        assert_eq!(r.overall, 100.0);
        assert_eq!(r.per_class, vec![(0, 100.0), (1, 100.0)]);
        assert_eq!(r.mapping[&7], 0);
        assert_eq!(r.mapping[&3], 1);
    }

    #[test]
    fn partial_errors_scored_per_class() {
        let truth = LabelImage::from_vec(1, 4, vec![0, 0, 1, 1]);
        let pred = LabelImage::from_vec(1, 4, vec![5, 6, 6, 6]);
        // Cluster 5 -> 0; cluster 6 has votes {0:1, 1:2} -> 1.
        let r = score(&pred, &truth);
        assert_eq!(r.overall, 75.0);
        assert_eq!(r.per_class, vec![(0, 50.0), (1, 100.0)]);
    }

    #[test]
    fn unlabeled_pixels_ignored() {
        let truth = LabelImage::from_vec(1, 3, vec![0, UNLABELED, 1]);
        let pred = LabelImage::from_vec(1, 3, vec![2, 2, 9]);
        let r = score(&pred, &truth);
        assert_eq!(r.overall, 100.0);
    }

    #[test]
    fn unlabeled_prediction_counts_as_error() {
        let truth = LabelImage::from_vec(1, 2, vec![0, 0]);
        let pred = LabelImage::from_vec(1, 2, vec![1, UNLABELED]);
        let r = score(&pred, &truth);
        assert_eq!(r.overall, 50.0);
    }

    #[test]
    fn distinct_labels_and_counts() {
        let img = LabelImage::from_vec(1, 5, vec![2, 0, 2, UNLABELED, 1]);
        assert_eq!(img.distinct_labels(), vec![0, 1, 2]);
        let counts = img.class_counts();
        assert_eq!(counts[&2], 2);
        assert_eq!(counts.get(&UNLABELED), None);
    }

    #[test]
    fn empty_truth_yields_zero_overall() {
        let truth = LabelImage::unlabeled(2, 2);
        let pred = LabelImage::from_vec(2, 2, vec![0, 1, 2, 3]);
        let r = score(&pred, &truth);
        assert_eq!(r.overall, 0.0);
        assert!(r.per_class.is_empty());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut img = LabelImage::unlabeled(2, 3);
        img.set(1, 2, 5);
        assert_eq!(img.get(1, 2), 5);
        assert_eq!(img.get(0, 0), UNLABELED);
    }
}
