//! Streaming, mergeable mean/covariance accumulation.
//!
//! Hetero-PCT (Algorithm 4, steps 4–6) computes the image mean vector and
//! covariance matrix **in parallel**: each worker accumulates partial sums
//! over its partition and the master merges them. [`CovarianceAccumulator`]
//! is that partial sum — an associative, commutative monoid under
//! [`CovarianceAccumulator::merge`], so any partitioning of the pixel set
//! yields bitwise-identical* statistics (*up to floating-point summation
//! order, which is fixed by the deterministic partition order used by the
//! algorithms).
//!
//! Internally the accumulator keeps raw sums `Σx` and `Σxxᵀ`; covariance is
//! finalised as `Σxxᵀ/n − m mᵀ`. For reflectance-scaled data (`O(1)`
//! magnitudes) this is numerically adequate and makes merging trivial.

use crate::error::shape_mismatch;
use crate::{LinAlgError, Matrix, Result};

/// Partial sums for mean/covariance over a stream of `dim`-vectors.
///
/// The sums are held in wire order — `[count, Σx…, Σxxᵀ…]`, the upper
/// triangle (diagonal included) packed row-major — so shipping an
/// accumulator ([`Self::into_flat`]) moves the buffer it was summed in.
#[derive(Debug, Clone, PartialEq)]
pub struct CovarianceAccumulator {
    dim: usize,
    /// `[count, sum…, cross…]`, [`Self::flat_len`] long. The count is a
    /// whole number far below 2⁵³, so `f64` holds and adds it exactly.
    flat: Vec<f64>,
}

impl CovarianceAccumulator {
    /// An empty accumulator for vectors of length `dim`.
    pub fn new(dim: usize) -> Self {
        CovarianceAccumulator {
            dim,
            flat: vec![0.0; Self::flat_len(dim)],
        }
    }

    /// Vector dimensionality this accumulator expects.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of samples accumulated so far.
    pub fn count(&self) -> u64 {
        self.flat[0] as u64
    }

    /// `Σx` and the packed `Σxxᵀ`.
    fn sums(&self) -> (&[f64], &[f64]) {
        self.flat[1..].split_at(self.dim)
    }

    /// The count, `Σx` and the packed `Σxxᵀ`, to add to.
    fn sums_mut(&mut self) -> (&mut f64, &mut [f64], &mut [f64]) {
        let (count, sums) = self.flat.split_at_mut(1);
        let (sum, cross) = sums.split_at_mut(self.dim);
        (&mut count[0], sum, cross)
    }

    /// Accumulates one sample.
    ///
    /// # Panics
    /// Panics if `x.len() != self.dim()`.
    pub fn push(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.dim, "push: wrong sample length");
        let (count, sum, cross) = self.sums_mut();
        *count += 1.0;
        let mut k = 0;
        for (i, &xi) in x.iter().enumerate() {
            sum[i] += xi;
            for &xj in &x[i..] {
                cross[k] += xi * xj;
                k += 1;
            }
        }
    }

    /// Accumulates one `f32` sample (the native pixel type of `hsi-cube`),
    /// widening to `f64` for the sums.
    pub fn push_f32(&mut self, x: &[f32]) {
        assert_eq!(x.len(), self.dim, "push_f32: wrong sample length");
        let (count, sum, cross) = self.sums_mut();
        *count += 1.0;
        let mut k = 0;
        for (i, &xi) in x.iter().enumerate() {
            let xi = xi as f64;
            sum[i] += xi;
            for &xj in &x[i..] {
                cross[k] += xi * (xj as f64);
                k += 1;
            }
        }
    }

    /// Accumulates a batch of `f32` samples stored back-to-back
    /// (`data.len()` must be a multiple of `dim`), **bit-identically**
    /// to calling [`Self::push_f32`] once per sample.
    ///
    /// This is the register-tiled SYRK-style path. Samples are processed
    /// in panels of at most [`Self::PANEL`] pixels, widened to `f64` once
    /// per panel into rows padded to a whole number of tile columns.
    /// `Σxxᵀ` is then updated one tile of 4 band rows × 8 band columns at
    /// a time: the tile is loaded into registers, receives
    /// `xᵢ·xⱼ` of every pixel of the panel, and is stored back once — the
    /// scalar path instead re-streams the whole `O(dim²/2)` triangle for
    /// every pixel. Every `cross` and `sum` element still starts from its
    /// stored value and adds its terms in sample order, so the
    /// floating-point result is exactly that of the per-sample loop.
    pub fn push_pixels_f32(&mut self, data: &[f32]) {
        let d = self.dim;
        assert!(
            d > 0 && data.len().is_multiple_of(d),
            "push_pixels_f32: data length {} not a multiple of dim {d}",
            data.len()
        );
        let (count, sum, cross) = self.sums_mut();
        let stride = d.next_multiple_of(TILE_COLS);
        let mut scratch = vec![0.0f64; Self::PANEL.min(data.len() / d) * stride];
        for panel in data.chunks(Self::PANEL * d) {
            let pixels = panel.len() / d;
            let widened = &mut scratch[..pixels * stride];
            for (dst, src) in widened.chunks_exact_mut(stride).zip(panel.chunks_exact(d)) {
                for (w, &x) in dst.iter_mut().zip(src) {
                    *w = f64::from(x);
                }
            }
            *count += pixels as f64;
            for row in widened.chunks_exact(stride) {
                for (s, &x) in sum.iter_mut().zip(row) {
                    *s += x;
                }
            }
            for i0 in (0..d).step_by(TILE_ROWS) {
                for j0 in (i0 - i0 % TILE_COLS..d).step_by(TILE_COLS) {
                    add_tile(cross, d, widened, stride, (i0, j0));
                }
            }
        }
    }

    /// Panel width (pixels) of the tiled [`Self::push_pixels_f32`]
    /// update: every tile of `Σxxᵀ` is loaded and stored once per panel.
    /// The scratch is `min(PANEL, pixels)` rows of `dim` rounded up to 8
    /// f64s (112 KB at 224 bands), so a call with few pixels allocates
    /// only what it fills.
    pub const PANEL: usize = 64;

    /// Merges another accumulator into this one (the master's combine step).
    pub fn merge(&mut self, other: &CovarianceAccumulator) -> Result<()> {
        if other.dim != self.dim {
            return Err(shape_mismatch(
                format!("accumulator of dim {}", self.dim),
                format!("dim {}", other.dim),
            ));
        }
        self.absorb(&other.flat);
        Ok(())
    }

    /// The one set of additions behind [`Self::merge`] and
    /// [`Self::merge_flat`]: count, sums and cross sums, element by
    /// element in wire order.
    fn absorb(&mut self, flat: &[f64]) {
        for (a, b) in self.flat.iter_mut().zip(flat) {
            *a += b;
        }
    }

    /// Checks that `flat` is a [`Self::to_flat`] buffer of a
    /// `dim`-dimensional accumulator.
    fn check_flat(dim: usize, flat: &[f64]) -> Result<()> {
        let expect = Self::flat_len(dim);
        if flat.len() != expect {
            return Err(shape_mismatch(
                format!("flat buffer of length {expect}"),
                format!("length {}", flat.len()),
            ));
        }
        Ok(())
    }

    /// Length of the [`Self::to_flat`] buffer of a `dim`-dimensional
    /// accumulator: the count, `dim` sums and the packed upper triangle.
    pub const fn flat_len(dim: usize) -> usize {
        1 + dim + dim * (dim + 1) / 2
    }

    /// Merges an accumulator serialised by [`Self::to_flat`] straight
    /// from the wire buffer — the same additions in the same order as
    /// rebuilding the accumulator and calling [`Self::merge`], so the
    /// result is bit-identical, without materialising the intermediate.
    pub fn merge_flat(&mut self, flat: &[f64]) -> Result<()> {
        Self::check_flat(self.dim, flat)?;
        self.absorb(flat);
        Ok(())
    }

    /// Finalised mean vector. Errors when no samples were accumulated.
    pub fn mean(&self) -> Result<Vec<f64>> {
        if self.count() == 0 {
            return Err(LinAlgError::Empty);
        }
        let inv = 1.0 / self.count() as f64;
        Ok(self.sums().0.iter().map(|s| s * inv).collect())
    }

    /// Finalised covariance matrix `E[xxᵀ] − m mᵀ` (population covariance,
    /// divisor `n`, matching the paper's "average of covariance
    /// components"). Errors when no samples were accumulated.
    pub fn covariance(&self) -> Result<Matrix> {
        let mean = self.mean()?;
        let inv = 1.0 / self.count() as f64;
        let cross = self.sums().1;
        let mut cov = Matrix::zeros(self.dim, self.dim);
        let mut k = 0;
        for i in 0..self.dim {
            for j in i..self.dim {
                let v = cross[k] * inv - mean[i] * mean[j];
                cov[(i, j)] = v;
                cov[(j, i)] = v;
                k += 1;
            }
        }
        Ok(cov)
    }

    /// Serialises the accumulator into a flat `f64` buffer
    /// (`[count, sum…, cross…]`) for shipment through the message-passing
    /// engine; [`Self::merge_flat`] consumes it.
    pub fn to_flat(&self) -> Vec<f64> {
        self.flat.clone()
    }

    /// [`Self::to_flat`] of an accumulator that is not needed afterwards:
    /// the same buffer, moved instead of copied.
    pub fn into_flat(self) -> Vec<f64> {
        self.flat
    }
}

/// Band rows of one register tile of `Σxxᵀ`.
const TILE_ROWS: usize = 4;
/// Band columns of one register tile of `Σxxᵀ` (two four-lane registers).
const TILE_COLS: usize = 8;

/// Adds `xᵢ·xⱼ` of every pixel of `panel` (rows of `stride` widened
/// bands, zero past `dim`) to the cells `i0 ≤ i < i0 + TILE_ROWS`,
/// `j0 ≤ j < j0 + TILE_COLS` of the packed upper triangle `cross`, in
/// pixel order. Only cells with `i ≤ j < dim` are loaded and stored; the
/// others of the tile add products nobody reads.
fn add_tile(cross: &mut [f64], dim: usize, panel: &[f64], stride: usize, (i0, j0): (usize, usize)) {
    // Per tile row `i`: the columns it keeps, as offsets into the tile
    // and into `cross` (row `i` of the packed triangle holds `(i, i..dim)`
    // from `i·dim − i·(i−1)/2` on).
    let kept = |r: usize| {
        let i = i0 + r;
        let cols = j0.max(i)..(j0 + TILE_COLS).min(dim);
        let at = (i * (2 * dim - i + 1) / 2 + cols.start - i)..;
        (cols.start - j0..cols.end - j0, at)
    };
    let rows = TILE_ROWS.min(dim - i0);
    let mut tile = [[0.0f64; TILE_COLS]; TILE_ROWS];
    for (r, row) in tile.iter_mut().enumerate().take(rows) {
        let (cols, at) = kept(r);
        let cells = &mut row[cols];
        cells.copy_from_slice(&cross[at][..cells.len()]);
    }
    accumulate(&mut tile, panel, stride, (i0, j0));
    for (r, row) in tile.iter().enumerate().take(rows) {
        let (cols, at) = kept(r);
        let cells = &row[cols];
        cross[at][..cells.len()].copy_from_slice(cells);
    }
}

/// The pixel loop of [`add_tile`], on a copy of the tile that only
/// constant indices touch, so it lives in eight vector registers for the
/// whole panel. Run on the caller's tile itself, which the load and store
/// index by row range, the loop stays in memory and runs at a third of
/// the old row update's speed; out of line, the copy cannot be folded
/// back into that tile.
#[inline(never)]
fn accumulate(
    tile: &mut [[f64; TILE_COLS]; TILE_ROWS],
    panel: &[f64],
    stride: usize,
    (i0, j0): (usize, usize),
) {
    let mut acc = *tile;
    for px in panel.chunks_exact(stride) {
        let xi: &[f64; TILE_ROWS] = px[i0..i0 + TILE_ROWS].try_into().expect("tile rows");
        let xj: &[f64; TILE_COLS] = px[j0..j0 + TILE_COLS].try_into().expect("tile columns");
        for (row, &a) in acc.iter_mut().zip(xi) {
            for (c, &b) in row.iter_mut().zip(xj) {
                *c += a * b;
            }
        }
    }
    *tile = acc;
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CovarianceAccumulator {
        /// Reconstructs an accumulator serialised by [`Self::to_flat`]:
        /// the intermediate [`Self::merge_flat`] skips.
        fn from_flat(dim: usize, flat: &[f64]) -> Result<Self> {
            Self::check_flat(dim, flat)?;
            Ok(CovarianceAccumulator {
                dim,
                flat: flat.to_vec(),
            })
        }
    }

    fn samples() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 2.0],
            vec![3.0, 0.0],
            vec![-1.0, 4.0],
            vec![2.0, 2.0],
        ]
    }

    fn reference_mean_cov(data: &[Vec<f64>]) -> (Vec<f64>, Matrix) {
        let n = data.len() as f64;
        let d = data[0].len();
        let mut mean = vec![0.0; d];
        for x in data {
            for (m, v) in mean.iter_mut().zip(x) {
                *m += v / n;
            }
        }
        let mut cov = Matrix::zeros(d, d);
        for x in data {
            for i in 0..d {
                for j in 0..d {
                    cov[(i, j)] += (x[i] - mean[i]) * (x[j] - mean[j]) / n;
                }
            }
        }
        (mean, cov)
    }

    #[test]
    fn mean_and_covariance_match_reference() {
        let data = samples();
        let mut acc = CovarianceAccumulator::new(2);
        for x in &data {
            acc.push(x);
        }
        let (m_ref, c_ref) = reference_mean_cov(&data);
        let m = acc.mean().unwrap();
        for (a, b) in m.iter().zip(&m_ref) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(acc.covariance().unwrap().approx_eq(&c_ref, 1e-12));
    }

    #[test]
    fn merge_equals_single_pass() {
        let data = samples();
        let mut whole = CovarianceAccumulator::new(2);
        for x in &data {
            whole.push(x);
        }
        let mut a = CovarianceAccumulator::new(2);
        let mut b = CovarianceAccumulator::new(2);
        for x in &data[..2] {
            a.push(x);
        }
        for x in &data[2..] {
            b.push(x);
        }
        a.merge(&b).unwrap();
        assert_eq!(a.count(), whole.count());
        assert!(a
            .covariance()
            .unwrap()
            .approx_eq(&whole.covariance().unwrap(), 1e-12));
    }

    #[test]
    fn merge_dimension_mismatch() {
        let mut a = CovarianceAccumulator::new(2);
        let b = CovarianceAccumulator::new(3);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn empty_accumulator_errors() {
        let acc = CovarianceAccumulator::new(4);
        assert!(matches!(acc.mean(), Err(LinAlgError::Empty)));
        assert!(matches!(acc.covariance(), Err(LinAlgError::Empty)));
    }

    #[test]
    fn flat_roundtrip() {
        let mut acc = CovarianceAccumulator::new(3);
        acc.push(&[1.0, 2.0, 3.0]);
        acc.push(&[0.5, -1.0, 2.0]);
        let flat = acc.to_flat();
        let back = CovarianceAccumulator::from_flat(3, &flat).unwrap();
        assert_eq!(back, acc);
        assert!(CovarianceAccumulator::from_flat(2, &flat).is_err());
        // Wire order: the count, the sums, the packed upper triangle.
        assert_eq!(flat[..4], [2.0, 1.5, 1.0, 5.0]);
        assert_eq!(flat[4..], [1.25, 1.5, 4.0, 5.0, 4.0, 13.0]);
        // The move is the copy.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&acc.into_flat()), bits(&flat));
    }

    #[test]
    fn merge_flat_is_bit_identical_to_from_flat_then_merge() {
        let dim = 5;
        let mut state: u64 = 11;
        let mut draw = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 40) as f32) / (1 << 24) as f32
        };
        let mut via_struct = CovarianceAccumulator::new(dim);
        let mut via_slice = CovarianceAccumulator::new(dim);
        for shard in 0..4 {
            let mut part = CovarianceAccumulator::new(dim);
            let data: Vec<f32> = (0..(shard + 3) * dim).map(|_| draw()).collect();
            part.push_pixels_f32(&data);
            let flat = part.to_flat();
            assert_eq!(flat.len(), CovarianceAccumulator::flat_len(dim));
            let back = CovarianceAccumulator::from_flat(dim, &flat).unwrap();
            via_struct.merge(&back).unwrap();
            via_slice.merge_flat(&flat).unwrap();
        }
        assert_eq!(via_slice, via_struct);
        for (a, b) in via_slice.to_flat().iter().zip(&via_struct.to_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(via_slice.merge_flat(&[0.0; 3]).is_err());
    }

    #[test]
    fn f32_push_matches_f64() {
        let mut a = CovarianceAccumulator::new(2);
        let mut b = CovarianceAccumulator::new(2);
        a.push(&[0.5, 0.25]);
        b.push_f32(&[0.5_f32, 0.25_f32]);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean().unwrap(), b.mean().unwrap());
    }

    #[test]
    fn blocked_push_is_bit_identical_to_scalar() {
        // The tiled panel update must match per-sample accumulation bit
        // for bit: dims below, at and past one 4 × 8 tile, ragged in rows
        // and columns, and the benchmark's 224; pixel counts across the
        // panel boundary, added to sums a first call left. Compared by
        // bits: `PartialEq` takes −0.0 for +0.0.
        let mut state: u64 = 7;
        let mut draw = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            match state >> 61 {
                0 => -0.0,
                1 => 0.0,
                _ => ((state >> 40) as f32) / (1 << 24) as f32 - 0.5,
            }
        };
        for dim in [1, 4, 5, 8, 9, 12, 13, 31, 224] {
            let first: Vec<f32> = (0..3 * dim).map(|_| draw()).collect();
            for pixels in [0, 1, 63, 64, 65, 130] {
                let data: Vec<f32> = (0..pixels * dim).map(|_| draw()).collect();
                let mut scalar = CovarianceAccumulator::new(dim);
                let mut blocked = CovarianceAccumulator::new(dim);
                blocked.push_pixels_f32(&first);
                for px in first.chunks(dim).chain(data.chunks(dim)) {
                    scalar.push_f32(px);
                }
                blocked.push_pixels_f32(&data);
                let bits = |acc: &CovarianceAccumulator| {
                    acc.to_flat()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&blocked), bits(&scalar), "dim {dim}, {pixels} pixels");
            }
        }
    }

    #[test]
    fn blocked_push_accepts_empty_and_single() {
        let mut acc = CovarianceAccumulator::new(3);
        acc.push_pixels_f32(&[]);
        assert_eq!(acc.count(), 0);
        acc.push_pixels_f32(&[1.0, 2.0, 3.0]);
        let mut one = CovarianceAccumulator::new(3);
        one.push_f32(&[1.0, 2.0, 3.0]);
        assert_eq!(acc, one);
    }

    #[test]
    #[should_panic(expected = "not a multiple of dim")]
    fn blocked_push_rejects_ragged_data() {
        let mut acc = CovarianceAccumulator::new(3);
        acc.push_pixels_f32(&[1.0, 2.0]);
    }

    #[test]
    fn covariance_of_constant_stream_is_zero() {
        let mut acc = CovarianceAccumulator::new(3);
        for _ in 0..10 {
            acc.push(&[2.0, 2.0, 2.0]);
        }
        let cov = acc.covariance().unwrap();
        assert!(cov.max_abs() < 1e-12);
    }

    #[test]
    fn covariance_is_positive_semidefinite() {
        // Eigenvalues of a covariance matrix must be >= 0 (numerically).
        let mut acc = CovarianceAccumulator::new(3);
        let mut state: u64 = 99;
        for _ in 0..50 {
            let mut x = [0.0; 3];
            for v in &mut x {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *v = ((state >> 33) as f64) / (u32::MAX as f64);
            }
            acc.push(&x);
        }
        let cov = acc.covariance().unwrap();
        let e = crate::eigen::SymmetricEigen::new(&cov).unwrap();
        for l in e.eigenvalues {
            assert!(l > -1e-10, "negative eigenvalue {l}");
        }
    }
}
