//! The wire messages of the partitioned runs, and the wire sizes of the
//! payloads every driver ships.
//!
//! One enum per run, generic over the algorithm's partial and delta
//! types ([`crate::sched::ChunkedAlgo`]), keeps the engine monomorphic
//! while every algorithm expresses its traffic through the same three
//! variants; [`simnet::Wire`] sizes follow the actual payload (f32
//! spectra at 32 bits/band, labels at 16, etc.), so virtual
//! communication costs track real message volumes — the role MPI derived
//! datatypes play in the paper.
//!
//! ## Zero-copy payload bodies
//!
//! [`Msg::Partial`] and [`Msg::Delta`] carry their bodies behind [`Arc`],
//! and [`Msg::Partition`] carries no image data at all: a header and
//! the value count of the window it stands for. The virtual network is
//! charged the window's full size while every rank reads the one image.
//! So cloning a `Msg` at a collective fan-out point is a refcount bump,
//! not a deep copy of the payload. Wire sizes are computed through the `Arc`,
//! and the `into_partial` decoder keeps an owned-value signature: it
//! unwraps the `Arc` when this rank holds the last reference and clones
//! the body otherwise (both paths produce the same value, so outputs
//! never depend on refcount timing). [`simnet::Wire::deep_copy_bits`]
//! reports `0` for every variant, which is what the collective copy
//! telemetry ([`simnet::CopyStats`]) observes.

use crate::seq::PctModel;
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

impl Wire for Candidate {
    fn size_bits(&self) -> u64 {
        candidate_bits(self.spectrum.len())
    }
}

/// Spectra on the wire and nothing else, `f32` bands at 32 bits each: a
/// new row of the target matrix `U`, or a set of class representatives.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectra(pub(crate) Vec<Vec<f32>>);

impl Wire for Spectra {
    fn size_bits(&self) -> u64 {
        self.0.iter().map(|s| (s.len() * 32) as u64).sum()
    }
}

/// A model broadcast ships every `f64` the model holds: the `c × N`
/// transform, the image mean (`N`), and the class representatives in
/// transformed space.
impl Wire for PctModel {
    fn size_bits(&self) -> u64 {
        let classes: usize = self.class_reps.iter().map(Vec::len).sum();
        ((self.transform.rows() * self.transform.cols() + self.mean.len() + classes) * 64) as u64
    }
}

/// Message payloads of a partitioned run over partials `P` and deltas
/// `D` (the defaults suit a run that ships partitions only).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg<P = (), D = ()> {
    /// A scattered image partition: the receiver's lines and the size of
    /// the window shipped for them (halo lines included). On the wire it
    /// is five `u32` header words — first line, owned lines, halo lines,
    /// samples, bands — and the window's `f32` values.
    Partition {
        /// First global line **owned** by the receiver.
        first_line: u32,
        /// Number of owned lines.
        n_lines: u32,
        /// `f32` values of the window (lines × samples × bands), halo
        /// lines included.
        values: u64,
    },
    /// A rank's partial of a round: gathered to the master, or folded
    /// pairwise inside an allreduce.
    Partial(Arc<P>),
    /// What a round changed of the state, broadcast to the ranks that
    /// read it.
    Delta(Arc<D>),
}

impl<P: Wire + Sync, D: Wire + Sync> Wire for Msg<P, D> {
    fn size_bits(&self) -> u64 {
        match self {
            Msg::Partition { values, .. } => 5 * 32 + 32 * values,
            Msg::Partial(p) => p.size_bits(),
            Msg::Delta(d) => d.size_bits(),
        }
    }

    /// Every body is shared: a clone bumps a refcount. The few
    /// fixed-size header words are not counted.
    fn deep_copy_bits(&self) -> u64 {
        0
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

impl<P: Clone, D> Msg<P, D> {
    /// A partition message for lines `[first_line, first_line + n_lines)`
    /// shipped as a window of `values` `f32` values.
    pub fn partition(first_line: usize, n_lines: usize, values: usize) -> Self {
        Msg::Partition {
            first_line: first_line as u32,
            n_lines: n_lines as u32,
            values: values as u64,
        }
    }

    /// Wraps a partial as a shared-body message.
    pub fn partial(partial: P) -> Self {
        Msg::Partial(Arc::new(partial))
    }

    fn mismatch(&self, expected: &'static str) -> WireMismatch {
        let got = match self {
            Msg::Partition { .. } => "Partition",
            Msg::Partial(_) => "Partial",
            Msg::Delta(_) => "Delta",
        };
        WireMismatch { expected, got }
    }

    /// Decodes a partition message into `(first_line, n_lines)`.
    pub fn into_partition(self) -> Result<(usize, usize), WireMismatch> {
        match self {
            Msg::Partition {
                first_line,
                n_lines,
                ..
            } => Ok((first_line as usize, n_lines as usize)),
            other => Err(other.mismatch("Partition")),
        }
    }

    /// Decodes a partial: moved out when this rank holds the last
    /// reference, cloned when the body is still shared with other ranks.
    /// Both paths yield the same value, so run outputs never depend on
    /// drop-order races between rank threads.
    pub fn into_partial(self) -> Result<P, WireMismatch> {
        match self {
            Msg::Partial(p) => Ok(Arc::try_unwrap(p).unwrap_or_else(|shared| (*shared).clone())),
            other => Err(other.mismatch("Partial")),
        }
    }

    /// Decodes a delta, still shared: every rank installs the one body.
    pub fn into_delta(self) -> Result<Arc<D>, WireMismatch> {
        match self {
            Msg::Delta(d) => Ok(d),
            other => Err(other.mismatch("Delta")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Wired = Msg<Candidate, Spectra>;

    fn candidate(bands: usize) -> Candidate {
        Candidate {
            line: 1,
            sample: 2,
            score: 0.5,
            spectrum: vec![0.0; bands],
        }
    }

    #[test]
    fn partition_roundtrip() {
        let msg = Wired::partition(10, 2, 24);
        assert_eq!(msg.size_bits(), 5 * 32 + 24 * 32);
        assert_eq!(msg.into_partition().unwrap(), (10, 2));
        // An empty window is a header and nothing else.
        let msg = Wired::partition(4, 0, 0);
        assert_eq!(msg.size_bits(), 5 * 32);
        assert_eq!(msg.into_partition().unwrap(), (4, 0));
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Wired::partial(candidate(224)).size_bits(), 128 + 224 * 32);
        let reps = Spectra(vec![vec![0.0; 10], vec![0.0; 6]]);
        assert_eq!(Wired::Delta(Arc::new(reps)).size_bits(), 16 * 32);
        // (2*4 + 4 + 3*2) f64 values at 64 bits each.
        let model = PctModel {
            transform: hsi_linalg::Matrix::zeros(2, 4),
            mean: vec![0.0; 4],
            class_reps: vec![vec![0.0; 2]; 3],
        };
        assert_eq!(model.size_bits(), (8 + 4 + 6) * 64);
    }

    #[test]
    fn shared_bodies_report_zero_deep_copy_bits() {
        for msg in [
            Wired::partial(candidate(32)),
            Wired::Delta(Arc::new(Spectra(vec![vec![0.0; 8]]))),
            Wired::partition(0, 2, 8),
        ] {
            assert!(msg.size_bits() > 0);
            assert_eq!(msg.deep_copy_bits(), 0);
        }
    }

    #[test]
    fn shared_decode_clones_when_shared_and_moves_when_unique() {
        let msg = Wired::partial(candidate(2));
        let held = msg.clone(); // second reference keeps the Arc shared
        assert_eq!(msg.into_partial().unwrap(), candidate(2));
        // `held` is now the unique owner: decode moves the body out.
        assert_eq!(held.into_partial().unwrap(), candidate(2));
    }

    #[test]
    fn wrong_variant_is_typed_error() {
        let delta = Wired::Delta(Arc::new(Spectra(vec![])));
        let err = delta.clone().into_partial().unwrap_err();
        assert_eq!(
            err,
            WireMismatch {
                expected: "Partial",
                got: "Delta"
            }
        );
        assert_eq!(err.to_string(), "expected Partial, got Delta");
        assert_eq!(delta.into_partition().unwrap_err().got, "Delta");
        let err = Wired::partial(candidate(1)).into_delta().unwrap_err();
        assert_eq!(err.got, "Partial");
    }
}
