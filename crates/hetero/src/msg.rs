//! The wire messages the parallel algorithms exchange.
//!
//! One shared enum keeps the engine monomorphic per run while letting
//! every algorithm express its traffic; [`simnet::Wire`] sizes follow
//! the actual payload (f32 spectra at 32 bits/band, labels at 16, etc.),
//! so virtual communication costs track real message volumes — the role
//! MPI derived datatypes play in the paper.
//!
//! ## Zero-copy payload bodies
//!
//! The broadcast-heavy variants — [`Msg::Spectra`], [`Msg::Candidate`],
//! [`Msg::Candidates`], [`Msg::PctModel`] — carry their bodies behind
//! [`Arc`], and [`Msg::Partition`] carries its block as a
//! [`HyperCube`], which is itself a window on shared, immutable sample
//! storage: the root's scatter hands each rank a window on the one
//! image, the virtual network is charged the block's full size, and the
//! host moves a pointer. So cloning a `Msg` at a collective
//! fan-out point is a refcount bump, not a deep copy of the megabyte
//! payload. Wire sizes are computed through the `Arc` and are
//! bit-identical to the historic owned-body encoding, and the `into_*`
//! decoders keep their owned-value signatures: they unwrap the `Arc`
//! when this rank holds the last reference and clone the body otherwise
//! (both paths produce the same value, so outputs never depend on
//! refcount timing). [`simnet::Wire::deep_copy_bits`] reports `0` for
//! the shared variants, which is what the collective copy telemetry
//! ([`simnet::CopyStats`]) observes.

use crate::seq::PctModel;
use hsi_cube::HyperCube;
use simnet::Wire;
use std::sync::Arc;

/// A worker's candidate pixel: coordinates are **global** image
/// coordinates; the spectrum rides along so the master can re-score and
/// later broadcast selected targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Global image line.
    pub line: u32,
    /// Global image sample.
    pub sample: u32,
    /// The worker's score for this pixel (brightness, projection,
    /// FCLS error or MEI, depending on the algorithm).
    pub score: f64,
    /// The pixel's full spectrum.
    pub spectrum: Vec<f32>,
}

/// Wire size of a [`Candidate`] over `bands` bands: two `u32`
/// coordinates, the `f64` score, the `f32` spectrum.
pub(crate) fn candidate_bits(bands: usize) -> u64 {
    32 + 32 + 64 + (bands * 32) as u64
}

/// Message payloads of the master/worker protocols.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// A scattered image partition (first/pre are global-coordinate
    /// bookkeeping; `block` is a BIP block of `n_lines + halo` lines).
    /// On the wire it is five `u32` header words — first line, owned
    /// lines, halo lines, samples, bands — and the block's samples.
    Partition {
        /// First global line **owned** by the receiver.
        first_line: u32,
        /// Number of owned lines.
        n_lines: u32,
        /// Halo lines prepended before `first_line` (MORPH overlap).
        pre: u32,
        /// The block, including halo lines: a window on the sender's
        /// image (shared storage — sending, cloning and decoding bump a
        /// refcount, never copy the block), charged at its full size.
        block: HyperCube,
    },
    /// One candidate pixel (gathers and fused allreduces in
    /// ATDCA/UFCLS; shared so the winner's fan-down is copy-free).
    Candidate(Arc<Candidate>),
    /// Several candidate pixels (gathers in PCT/MORPH).
    Candidates(Arc<Vec<Candidate>>),
    /// A list of spectra (broadcast of the target matrix `U` or of the
    /// final unique class set).
    Spectra(Arc<Vec<Vec<f32>>>),
    /// Flat `f64` statistics (covariance accumulator shards).
    Stats(Vec<f64>),
    /// The PCT model broadcast: the `c × N` transform, image mean (`N`),
    /// and the class representatives in transformed space.
    PctModel(Arc<PctModel>),
    /// A block of classification labels for the sender's owned lines.
    Labels {
        /// First global line the labels cover.
        first_line: u32,
        /// Row-major labels (`n_lines × samples`).
        labels: Vec<u16>,
    },
    /// Zero-payload synchronisation token.
    Token,
}

impl Wire for Msg {
    fn size_bits(&self) -> u64 {
        match self {
            Msg::Partition { block, .. } => 5 * 32 + (block.as_slice().len() * 32) as u64,
            Msg::Candidate(c) => candidate_bits(c.spectrum.len()),
            Msg::Candidates(cs) => cs.iter().map(|c| candidate_bits(c.spectrum.len())).sum(),
            Msg::Spectra(rows) => rows.iter().map(|r| (r.len() * 32) as u64).sum(),
            Msg::Stats(v) => (v.len() * 64) as u64,
            Msg::PctModel(m) => m.wire_bits(),
            Msg::Labels { labels, .. } => 32 + (labels.len() * 16) as u64,
            Msg::Token => 0,
        }
    }

    fn deep_copy_bits(&self) -> u64 {
        match self {
            // Arc-backed bodies: a clone bumps a refcount. The few
            // fixed-size header words are not counted.
            Msg::Partition { .. }
            | Msg::Candidate(_)
            | Msg::Candidates(_)
            | Msg::Spectra(_)
            | Msg::PctModel(_)
            | Msg::Token => 0,
            // Owned bodies copy their full payload on clone.
            Msg::Stats(_) | Msg::Labels { .. } => self.size_bits(),
        }
    }
}

/// A message of the wrong variant arrived where a specific one was
/// expected. Decoders return this instead of panicking, so
/// fault-recovery paths can *observe* a stale in-flight message (e.g. a
/// partial result from an abandoned worker) and skip it rather than
/// abort the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMismatch {
    /// The variant the decoder expected.
    pub expected: &'static str,
    /// The variant that actually arrived.
    pub got: &'static str,
}

impl std::fmt::Display for WireMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected {}, got {}", self.expected, self.got)
    }
}

impl std::error::Error for WireMismatch {}

/// Unwraps an `Arc` body: by move when this rank holds the last
/// reference, by clone when the body is still shared with other ranks.
/// Both paths yield the same value, so run outputs never depend on
/// drop-order races between rank threads.
fn unwrap_or_clone<T: Clone>(body: Arc<T>) -> T {
    Arc::try_unwrap(body).unwrap_or_else(|shared| (*shared).clone())
}

impl Msg {
    /// Wraps a block (a window on the sender's image) as a partition
    /// message; the block travels as itself, no sample is copied.
    pub fn partition(first_line: usize, n_lines: usize, pre: usize, block: HyperCube) -> Msg {
        Msg::Partition {
            first_line: first_line as u32,
            n_lines: n_lines as u32,
            pre: pre as u32,
            block,
        }
    }

    /// Wraps one candidate as a shared-body message.
    pub fn candidate(c: Candidate) -> Msg {
        Msg::Candidate(Arc::new(c))
    }

    /// Wraps a candidate list as a shared-body message.
    pub fn candidates(cs: Vec<Candidate>) -> Msg {
        Msg::Candidates(Arc::new(cs))
    }

    /// Wraps a spectra list as a shared-body message.
    pub fn spectra(rows: Vec<Vec<f32>>) -> Msg {
        Msg::Spectra(Arc::new(rows))
    }

    /// Wraps the PCT model as a shared-body message.
    pub fn pct_model(model: PctModel) -> Msg {
        Msg::PctModel(Arc::new(model))
    }

    /// This message's variant name (for [`WireMismatch`] diagnostics).
    pub fn variant_name(&self) -> &'static str {
        match self {
            Msg::Partition { .. } => "Partition",
            Msg::Candidate(_) => "Candidate",
            Msg::Candidates(_) => "Candidates",
            Msg::Spectra(_) => "Spectra",
            Msg::Stats(_) => "Stats",
            Msg::PctModel { .. } => "PctModel",
            Msg::Labels { .. } => "Labels",
            Msg::Token => "Token",
        }
    }

    fn mismatch(&self, expected: &'static str) -> WireMismatch {
        WireMismatch {
            expected,
            got: self.variant_name(),
        }
    }

    /// Decodes a partition message into `(first_line, n_lines, pre,
    /// block)`; the block is the window the sender wrapped.
    pub fn into_partition(self) -> Result<(usize, usize, usize, HyperCube), WireMismatch> {
        match self {
            Msg::Partition {
                first_line,
                n_lines,
                pre,
                block,
            } => Ok((first_line as usize, n_lines as usize, pre as usize, block)),
            other => Err(other.mismatch("Partition")),
        }
    }

    /// Decodes a candidate.
    pub fn into_candidate(self) -> Result<Candidate, WireMismatch> {
        match self {
            Msg::Candidate(c) => Ok(unwrap_or_clone(c)),
            other => Err(other.mismatch("Candidate")),
        }
    }

    /// Borrows a candidate without consuming the message.
    pub fn as_candidate(&self) -> Result<&Candidate, WireMismatch> {
        match self {
            Msg::Candidate(c) => Ok(c),
            other => Err(other.mismatch("Candidate")),
        }
    }

    /// Decodes a candidate list.
    pub fn into_candidates(self) -> Result<Vec<Candidate>, WireMismatch> {
        match self {
            Msg::Candidates(c) => Ok(unwrap_or_clone(c)),
            other => Err(other.mismatch("Candidates")),
        }
    }

    /// Decodes a spectra list.
    pub fn into_spectra(self) -> Result<Vec<Vec<f32>>, WireMismatch> {
        match self {
            Msg::Spectra(s) => Ok(unwrap_or_clone(s)),
            other => Err(other.mismatch("Spectra")),
        }
    }

    /// Borrows the spectra list without consuming the message (the
    /// copy-free path for read-only scoring kernels).
    pub fn as_spectra(&self) -> Result<&[Vec<f32>], WireMismatch> {
        match self {
            Msg::Spectra(s) => Ok(s),
            other => Err(other.mismatch("Spectra")),
        }
    }

    /// Decodes flat statistics.
    pub fn into_stats(self) -> Result<Vec<f64>, WireMismatch> {
        match self {
            Msg::Stats(s) => Ok(s),
            other => Err(other.mismatch("Stats")),
        }
    }

    /// Decodes the PCT model broadcast.
    pub fn into_pct_model(self) -> Result<PctModel, WireMismatch> {
        match self {
            Msg::PctModel(m) => Ok(unwrap_or_clone(m)),
            other => Err(other.mismatch("PctModel")),
        }
    }

    /// Borrows the PCT model without consuming the message.
    pub fn as_pct_model(&self) -> Result<&PctModel, WireMismatch> {
        match self {
            Msg::PctModel(m) => Ok(m),
            other => Err(other.mismatch("PctModel")),
        }
    }

    /// Decodes a label block as `(first_line, labels)`.
    pub fn into_labels(self) -> Result<(usize, Vec<u16>), WireMismatch> {
        match self {
            Msg::Labels { first_line, labels } => Ok((first_line as usize, labels)),
            other => Err(other.mismatch("Labels")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zero model: `rows × bands` transform, `classes` representatives.
    fn model(rows: usize, bands: usize, classes: usize) -> PctModel {
        PctModel {
            transform: hsi_linalg::Matrix::zeros(rows, bands),
            mean: vec![0.0; bands],
            class_reps: vec![vec![0.0; rows]; classes],
        }
    }

    #[test]
    fn partition_roundtrip() {
        let cube = HyperCube::from_vec(3, 2, 4, (0..24).map(|i| i as f32).collect());
        let msg = Msg::partition(10, 2, 1, cube.clone());
        assert_eq!(msg.size_bits(), 5 * 32 + 24 * 32);
        let (first, n, pre, back) = msg.into_partition().unwrap();
        assert_eq!((first, n, pre), (10, 2, 1));
        assert_eq!(back, cube);

        // A block that is a window at a non-zero offset is charged its
        // own size, not its buffer's, and arrives as the same window.
        let window = cube.extract_lines(1, 2);
        let msg = Msg::partition(11, 1, 1, window.clone());
        assert_eq!(msg.size_bits(), 5 * 32 + 16 * 32);
        let (first, n, pre, back) = msg.into_partition().unwrap();
        assert_eq!((first, n, pre), (11, 1, 1));
        assert_eq!(back, window);
        assert!(std::ptr::eq(
            back.as_slice().as_ptr(),
            cube.pixel(1, 0).as_ptr()
        ));

        // An empty block (zero samples, zero bands) is a header and
        // nothing else; decoding it divides by nothing.
        let empty = HyperCube::zeros(0, 0, 0);
        let msg = Msg::partition(0, 0, 0, empty.clone());
        assert_eq!(msg.size_bits(), 5 * 32);
        assert_eq!(msg.into_partition().unwrap(), (0, 0, 0, empty));
        let no_bands = HyperCube::zeros(2, 3, 0);
        let msg = Msg::partition(4, 2, 0, no_bands.clone());
        assert_eq!(msg.size_bits(), 5 * 32);
        assert_eq!(msg.into_partition().unwrap(), (4, 2, 0, no_bands));
    }

    #[test]
    fn candidate_size() {
        let c = Candidate {
            line: 1,
            sample: 2,
            score: 0.5,
            spectrum: vec![0.0; 224],
        };
        assert_eq!(Msg::candidate(c.clone()).size_bits(), 128 + 224 * 32);
        assert_eq!(
            Msg::candidates(vec![c.clone(), c]).size_bits(),
            2 * (128 + 224 * 32)
        );
    }

    #[test]
    fn spectra_and_stats_sizes() {
        assert_eq!(
            Msg::spectra(vec![vec![0.0; 10], vec![0.0; 6]]).size_bits(),
            16 * 32
        );
        assert_eq!(Msg::Stats(vec![0.0; 5]).size_bits(), 5 * 64);
        assert_eq!(Msg::Token.size_bits(), 0);
    }

    #[test]
    fn labels_size() {
        assert_eq!(
            Msg::Labels {
                first_line: 0,
                labels: vec![0; 100]
            }
            .size_bits(),
            32 + 1600
        );
    }

    #[test]
    fn shared_bodies_report_zero_deep_copy_bits() {
        let c = Candidate {
            line: 0,
            sample: 0,
            score: 1.0,
            spectrum: vec![0.0; 32],
        };
        assert_eq!(Msg::candidate(c.clone()).deep_copy_bits(), 0);
        assert_eq!(Msg::candidates(vec![c]).deep_copy_bits(), 0);
        assert_eq!(Msg::spectra(vec![vec![0.0; 8]]).deep_copy_bits(), 0);
        assert_eq!(Msg::pct_model(model(1, 4, 1)).deep_copy_bits(), 0);
        let cube = HyperCube::zeros(2, 2, 2);
        assert_eq!(Msg::partition(0, 2, 0, cube).deep_copy_bits(), 0);
        assert_eq!(Msg::Token.deep_copy_bits(), 0);
        // Owned bodies report their full wire size as deep-copied.
        let stats = Msg::Stats(vec![0.0; 5]);
        assert_eq!(stats.deep_copy_bits(), stats.size_bits());
        let labels = Msg::Labels {
            first_line: 0,
            labels: vec![0; 10],
        };
        assert_eq!(labels.deep_copy_bits(), labels.size_bits());
    }

    #[test]
    fn shared_decode_clones_when_shared_and_moves_when_unique() {
        let rows = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let msg = Msg::spectra(rows.clone());
        let held = msg.clone(); // second reference keeps the Arc shared
        assert_eq!(msg.into_spectra().unwrap(), rows);
        // `held` is now the unique owner: decode moves the body out.
        assert_eq!(held.into_spectra().unwrap(), rows);
    }

    #[test]
    fn wrong_variant_is_typed_error() {
        let err = Msg::Token.into_candidate().unwrap_err();
        assert_eq!(
            err,
            WireMismatch {
                expected: "Candidate",
                got: "Token"
            }
        );
        assert_eq!(err.to_string(), "expected Candidate, got Token");
        let err = Msg::Stats(vec![]).into_spectra().unwrap_err();
        assert_eq!(err.got, "Stats");
        assert!(Msg::Token.into_pct_model().is_err());
        assert!(Msg::Token.into_partition().is_err());
        assert!(Msg::Token.into_candidates().is_err());
        assert!(Msg::Token.into_labels().is_err());
        assert!(Msg::Token.into_stats().is_err());
        assert!(Msg::Token.as_spectra().is_err());
        assert!(Msg::Token.as_candidate().is_err());
        assert!(Msg::Token.as_pct_model().is_err());
    }

    #[test]
    fn pct_model_size() {
        // (2*4 + 4 + 3*2) f64 values at 64 bits each.
        assert_eq!(Msg::pct_model(model(2, 4, 3)).size_bits(), (8 + 4 + 6) * 64);
    }

    #[test]
    fn stats_roundtrip() {
        let msg = Msg::Stats(vec![1.0, 2.0, 3.0]);
        assert_eq!(msg.into_stats().unwrap(), vec![1.0, 2.0, 3.0]);
        let msg = Msg::Labels {
            first_line: 7,
            labels: vec![1, 2],
        };
        assert_eq!(msg.into_labels().unwrap(), (7, vec![1, 2]));
    }
}
