//! What a target detector is, stated once.
//!
//! The paper's Hetero-ATDCA and Hetero-UFCLS (Algorithms 2–3) are one
//! master/worker loop — brightest pixel first, then `t − 1` rounds of
//! "every partition nominates its best pixel against the targets so far,
//! the master picks one, everybody takes it in" — and differ only in the
//! per-pixel score: orthogonal-projection residual ([`Osp`]) or
//! fully-constrained least-squares error ([`Fcls`]). A [`Detector`] is
//! that difference: the system a rank keeps between rounds, the two host
//! operations on it, and the one table of charges the virtual clock
//! reads, whichever driver runs the loop.
//!
//! Two things outlive a round, and both are host-side memos keyed by the
//! data. The **system** (ATDCA's basis, UFCLS's Gram problem; this type)
//! is what every modelled node holds and pays for, once per round, on the
//! virtual clock — but on the host it is a pure function of the winners
//! taken in so far, so `sched::DetectChunks` builds it **once per round
//! per run** and every rank holds a handle (`Arc`) on it; a rank whose
//! install history differs builds its own. The **carry**
//! ([`Detector::Carry`]: each image line's running sums) is a memo about
//! the *lines*, whoever scores them: `nominate` borrows it, and the
//! driver that owns it decides who shares it — `seq::detect` has one,
//! `sched::DetectChunks` one per run, so whichever rank or worker scores
//! a line next (a static partition's owner, a self-scheduled worker, a
//! survivor after a crash) resumes where its last scorer stopped.
//!
//! The loop is written twice, each generic over this trait: `seq::detect`
//! (the reference) and the `ChunkedAlgo` impl of `sched::DetectChunks`,
//! which both the static driver of `crate::par` and the fault-tolerant
//! drivers of `crate::ft` run. A new detector is one impl here.

use crate::flops;
use crate::kernels::{self, FclsCarry, ProjectionCarry, ScoredPixel};
use hsi_cube::HyperCube;
use hsi_linalg::lstsq::FclsProblem;
use hsi_linalg::ortho::OrthoBasis;
use hsi_linalg::Matrix;

/// A rank's detector system between rounds, and the detector's costs
/// (`n` bands, round `k`, `t` targets in all; round 0 is
/// [`kernels::brightest`] for every detector and is the drivers').
///
/// `pub` in a private module: `sched::DetectChunks` names it in a bound,
/// nobody outside the crate can. `Send + Sync`: a run's ranks share one
/// system per round, and the next is grown from it.
pub trait Detector: Send + Sync {
    /// Algorithm name (reports and benches).
    const NAME: &'static str;
    /// What the scoring kernel keeps of the image lines between rounds
    /// (host-side only).
    type Carry: Send + Sync;

    /// The carry of a run of `t` targets over `lines` image lines of
    /// `samples` pixels, reserved at its final size by the caller — the
    /// run's owner — so no scan allocates it.
    fn carry(lines: usize, samples: usize, t: usize) -> Self::Carry;
    /// The system of a rank that has taken in no target yet.
    fn new(bands: usize) -> Self;
    /// How many targets have been admitted.
    fn admitted(&self) -> usize;
    /// This system with a round's winner taken in, built at its final
    /// size: one allocation of exactly its length per buffer. Host-side
    /// only: what the modelled rank pays for it is [`Detector::follow_up`].
    fn with_target(&self, spectrum: &[f32]) -> Self;
    /// The best pixel of lines `range` against the admitted targets (one
    /// at least), and the megaflops of scoring every pixel of the range
    /// — the paper's full re-scoring, whatever `carry` saved the host.
    fn nominate(
        &self,
        cube: &HyperCube,
        range: (usize, usize),
        carry: &Self::Carry,
    ) -> (Option<ScoredPixel>, f64);

    /// Flops the master spends re-scoring one gathered candidate of
    /// round `k` (the merge of a gathered round; a fused allreduce
    /// merges without it).
    fn rescore(n: usize, k: usize) -> f64;
    /// Megaflops every rank spends taking round `k`'s winner in, once per
    /// round (after the broadcast, which it may overlap).
    fn follow_up(n: usize, k: usize, t: usize) -> f64;
    /// Flops to score one pixel in round `k ≥ 1`: the figure
    /// [`Detector::nominate`] returns per pixel, as a master predicts it.
    fn score(n: usize, k: usize) -> f64;
    /// Flops one pixel costs over a whole run (the WEA row estimate).
    fn run_per_pixel(n: usize, t: usize) -> f64;
}

/// Bytes a device stages `(in, out)` to score `pixels` pixels in round
/// `round`: the f32 pixel block plus the `round` target spectra the
/// system is built from in, one candidate out.
pub(crate) fn round_bytes(pixels: usize, bands: usize, round: usize) -> (u64, u64) {
    let bands = bands as u64;
    (
        pixels as u64 * bands * 4 + round as u64 * bands * 4,
        bands * 4 + 16,
    )
}

fn spectrum_f64(px: &[f32]) -> Vec<f64> {
    px.iter().map(|&v| v as f64).collect()
}

/// ATDCA's system: the orthonormal basis of the targets so far (`O(tN)`
/// apply instead of the `O(N²)` explicit projector — see
/// `hsi_linalg::ortho`). Its carry holds the running residuals of the
/// pixels scored against it.
#[derive(Debug)]
pub struct Osp {
    basis: OrthoBasis,
    // Not `basis.len()`: a dependent target is admitted but not kept.
    admitted: usize,
}

impl Detector for Osp {
    const NAME: &'static str = "ATDCA";
    type Carry = ProjectionCarry;

    fn carry(lines: usize, samples: usize, _t: usize) -> ProjectionCarry {
        ProjectionCarry::for_run(lines, samples)
    }

    fn new(bands: usize) -> Self {
        Osp {
            basis: OrthoBasis::new(bands),
            admitted: 0,
        }
    }

    fn admitted(&self) -> usize {
        self.admitted
    }

    fn with_target(&self, spectrum: &[f32]) -> Self {
        Osp {
            basis: self.basis.with_pushed(&spectrum_f64(spectrum)),
            admitted: self.admitted + 1,
        }
    }

    fn nominate(
        &self,
        cube: &HyperCube,
        range: (usize, usize),
        carry: &ProjectionCarry,
    ) -> (Option<ScoredPixel>, f64) {
        kernels::max_projection_carried(cube, &self.basis, range, carry)
    }

    fn rescore(n: usize, k: usize) -> f64 {
        flops::projection_score(n, k)
    }

    /// Every rank orthonormalises the winner against its basis, the last
    /// round's included.
    fn follow_up(n: usize, k: usize, _t: usize) -> f64 {
        flops::mflop(flops::basis_push(n, k))
    }

    fn score(n: usize, k: usize) -> f64 {
        flops::projection_score(n, k)
    }

    fn run_per_pixel(n: usize, t: usize) -> f64 {
        (0..t).map(|k| flops::projection_score(n, k)).sum()
    }
}

/// UFCLS's system: the least-squares problem over the targets so far
/// (`None` before the first). Its carry holds, of the pixels unmixed
/// against it, their endmember dots and active-set trails.
#[derive(Debug, Default)]
pub struct Fcls {
    system: Option<FclsProblem>,
}

impl Detector for Fcls {
    const NAME: &'static str = "UFCLS";
    type Carry = FclsCarry;

    fn carry(lines: usize, samples: usize, t: usize) -> FclsCarry {
        FclsCarry::for_run(lines, samples, t)
    }

    fn new(_bands: usize) -> Self {
        Fcls::default()
    }

    fn admitted(&self) -> usize {
        self.system.as_ref().map_or(0, FclsProblem::num_endmembers)
    }

    /// One Gram row per target (the whole system for the first).
    fn with_target(&self, spectrum: &[f32]) -> Self {
        let signature = spectrum_f64(spectrum);
        let grown = match &self.system {
            Some(problem) => problem.with_endmember(&signature),
            None => FclsProblem::new(Matrix::row_vector(&signature)),
        };
        Fcls {
            system: Some(grown.expect("ufcls: endmembers share the cube's band count")),
        }
    }

    fn nominate(
        &self,
        cube: &HyperCube,
        range: (usize, usize),
        carry: &FclsCarry,
    ) -> (Option<ScoredPixel>, f64) {
        let problem = self.system.as_ref().expect("ufcls: one target at least");
        kernels::max_fcls_error_carried(cube, problem, range, carry)
    }

    fn rescore(n: usize, k: usize) -> f64 {
        flops::fcls(n, k.max(1))
    }

    /// The *next* round's Gram rebuild, so the endmember broadcast can
    /// overlap it; nothing follows the last round.
    fn follow_up(n: usize, k: usize, t: usize) -> f64 {
        if k + 1 < t {
            flops::mflop(flops::gram(n, k + 1))
        } else {
            0.0
        }
    }

    fn score(n: usize, k: usize) -> f64 {
        flops::fcls(n, k)
    }

    fn run_per_pixel(n: usize, t: usize) -> f64 {
        flops::brightness(n) + (1..t).map(|k| flops::fcls(n, k)).sum::<f64>()
    }
}
