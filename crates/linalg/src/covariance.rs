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
//!
//! [`CovarianceAccumulator::from_shards`] is the master's merge with the
//! shards summed where they are merged: it takes the pixels of every
//! shard, not their sums, and splits the work by rows of the packed
//! triangle ([`ShardBand`]), each band on a thread of the caller's
//! choosing, for the bits of the shard-by-shard merge.

use crate::error::shape_mismatch;
use crate::{LinAlgError, Matrix, Result};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Partial sums for mean/covariance over a stream of `dim`-vectors.
///
/// The sums are held in wire order — `[count, Σx…, Σxxᵀ…]`, the upper
/// triangle (diagonal included) packed row-major — so a band of
/// triangle rows ([`ShardBand`]) is one contiguous run of the buffer.
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
        let panel = Self::PANEL.min(data.len() / d) * d.next_multiple_of(TILE_COLS);
        push_band(d, 0..d, &mut self.flat, data, &mut vec![0.0; panel]);
    }

    /// Panel width (pixels) of the tiled [`Self::push_pixels_f32`]
    /// update: every tile of `Σxxᵀ` is loaded and stored once per panel.
    /// The scratch is `min(PANEL, pixels)` rows of `dim` rounded up to 8
    /// f64s (112 KB at 224 bands), so a call with few pixels allocates
    /// only what it fills.
    pub const PANEL: usize = 64;

    /// The statistics of `shards` merged in order into a fresh
    /// accumulator, where shard `s` is given by its chunks of pixels
    /// (`dim` values each, back to back) and is the fold of its chunks,
    /// each summed from zero: bit for bit, summing every chunk into an
    /// accumulator of its own with [`Self::push_pixels_f32`], merging
    /// each shard's later chunks into its first and each shard into a
    /// zeroed total.
    ///
    /// The work is cut into at most `parts` bands of whole register-tile
    /// rows of `Σxxᵀ` with near-equal cell counts (the first band also
    /// sums the count and `Σx`), and `run` is handed the bands to fold,
    /// each with [`ShardBand::fold`], on whatever threads it chooses.
    /// Every cell is summed by one band, in the order the merge would, so
    /// the result is the same for every `parts`. Every buffer a band
    /// works in is made here, on the caller's thread, at the size the
    /// band fills ([`ShardBand`]): the threads `run` picks allocate
    /// nothing.
    ///
    /// # Panics
    /// Panics if `dim` is zero or a chunk's length is not a multiple of
    /// `dim`, as [`Self::push_pixels_f32`] does, or if `run` leaves a
    /// band unfolded.
    pub fn from_shards(
        dim: usize,
        shards: &[Vec<&[f32]>],
        parts: usize,
        run: impl FnOnce(Vec<ShardBand<'_>>),
    ) -> Self {
        assert!(dim > 0, "from_shards: dim 0");
        for chunk in shards.iter().flatten() {
            assert!(
                chunk.len().is_multiple_of(dim),
                "from_shards: chunk length {} not a multiple of dim {dim}",
                chunk.len()
            );
        }
        // What the bands sum outside themselves: past the first shard with
        // pixels, a chunk buffer for any shard, a shard buffer for one of
        // several chunks; before it, a chunk buffer if it has several.
        let mut nonempty = shards.iter().filter(|chunks| !chunks.is_empty());
        let first_chunks = nonempty.next().map_or(0, Vec::len);
        let later: Vec<usize> = nonempty.map(Vec::len).collect();
        let needs_chunk = first_chunks > 1 || !later.is_empty();
        let needs_shard = later.iter().any(|&chunks| chunks > 1);
        let panel = shards
            .iter()
            .flatten()
            .map(|chunk| chunk.len() / dim)
            .max()
            .unwrap_or(0)
            .min(Self::PANEL)
            * dim.next_multiple_of(TILE_COLS);
        let mut acc = Self::new(dim);
        let folded = AtomicUsize::new(0);
        let ranges = row_bands(dim, parts);
        let mut scratch: Vec<BandScratch> = ranges
            .iter()
            .map(|rows| {
                let start = if rows.start == 0 {
                    0
                } else {
                    rows_end(dim, rows.start)
                };
                let len = rows_end(dim, rows.end) - start;
                let zeros = |needed: bool| vec![0.0; if needed { len } else { 0 }];
                BandScratch {
                    chunk: zeros(needs_chunk),
                    shard: zeros(needs_shard),
                    panel: vec![0.0; panel],
                }
            })
            .collect();
        let (mut rest, mut taken) = (&mut acc.flat[..], 0);
        let mut bands = Vec::with_capacity(ranges.len());
        for (rows, scratch) in ranges.into_iter().zip(&mut scratch) {
            // The band's run ends where row `rows.end` of the triangle
            // would start; the first run also holds the count and `Σx`.
            let end = rows_end(dim, rows.end);
            let (cells, tail) = std::mem::take(&mut rest).split_at_mut(end - taken);
            (rest, taken) = (tail, end);
            bands.push(ShardBand {
                dim,
                rows,
                cells,
                shards,
                scratch,
                folded: &folded,
            });
        }
        let count = bands.len();
        run(bands);
        assert_eq!(
            folded.into_inner(),
            count,
            "from_shards: a band was left unfolded"
        );
        acc
    }

    /// Merges another accumulator into this one (the master's combine step).
    pub fn merge(&mut self, other: &CovarianceAccumulator) -> Result<()> {
        if other.dim != self.dim {
            return Err(shape_mismatch(
                format!("accumulator of dim {}", self.dim),
                format!("dim {}", other.dim),
            ));
        }
        add_into(&mut self.flat, &other.flat);
        Ok(())
    }

    /// Length of the [`Self::to_flat`] buffer of a `dim`-dimensional
    /// accumulator: the count, `dim` sums and the packed upper triangle.
    pub const fn flat_len(dim: usize) -> usize {
        rows_end(dim, dim)
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

    /// The sums as one flat `f64` buffer in wire order
    /// (`[count, sum…, cross…]`), [`Self::flat_len`] long.
    pub fn to_flat(&self) -> Vec<f64> {
        self.flat.clone()
    }
}

/// One band of rows of a fresh accumulator that
/// [`CovarianceAccumulator::from_shards`] hands out: rows `rows` of the
/// packed `Σxxᵀ`, and the count and `Σx` when the band starts at row 0.
///
/// **Who makes a band's buffers.** The chunk and shard buffers a fold
/// sums into beside the band, and the panel its tiled push widens pixels
/// into, are made by `from_shards` on its caller's thread, each at the
/// size the fold fills, and lent to the band. The thread that folds the
/// band — a pool helper started for this one merge, whose glibc arena
/// would otherwise keep what it allocated — only fills them.
#[derive(Debug)]
pub struct ShardBand<'a> {
    dim: usize,
    rows: Range<usize>,
    /// The band's run of the accumulator's buffer, zero until folded.
    cells: &'a mut [f64],
    shards: &'a [Vec<&'a [f32]>],
    scratch: &'a mut BandScratch,
    /// Bands folded so far, of all the accumulator's bands.
    folded: &'a AtomicUsize,
}

/// The buffers one [`ShardBand`] folds in: each empty when the shards
/// never need it, else at its final size.
#[derive(Debug)]
struct BandScratch {
    /// A chunk summed from zero, the band's length.
    chunk: Vec<f64>,
    /// A shard of several chunks summed from zero, the band's length.
    shard: Vec<f64>,
    /// The widened panel of [`push_band`]: at most
    /// [`CovarianceAccumulator::PANEL`] pixels of the longest chunk.
    panel: Vec<f64>,
}

impl ShardBand<'_> {
    /// Sums the shards into this band, in shard order.
    ///
    /// The first shard with pixels is summed inside the band itself: it
    /// is still zero, every sum of a chunk starts at `+0.0` and so is
    /// never `−0.0`, and `+0.0 + x` is `x` to the bit. A later shard of
    /// one chunk is summed in the chunk buffer, and one of several chunks
    /// in the shard buffer that its later chunks are summed into through
    /// the chunk buffer; either is then added to the band. An empty
    /// shard is skipped, which adds `+0.0` to sums that are never `−0.0`.
    /// So at most two buffers of the band's length are held beside it,
    /// and only when a shard needs them.
    pub fn fold(self) {
        let (dim, rows) = (self.dim, self.rows);
        let total = self.cells;
        let BandScratch {
            chunk: chunk_buf,
            shard: shard_buf,
            panel,
        } = self.scratch;
        let mut push =
            |cells: &mut [f64], chunk: &[f32]| push_band(dim, rows.clone(), cells, chunk, panel);
        let mut shards = self.shards.iter().filter(|chunks| !chunks.is_empty());
        if let Some(first) = shards.next() {
            fold_chunks(&mut push, total, first, chunk_buf);
        }
        for chunks in shards {
            if let [chunk] = chunks.as_slice() {
                chunk_buf.fill(0.0);
                push(chunk_buf, chunk);
                add_into(total, chunk_buf);
            } else {
                shard_buf.fill(0.0);
                fold_chunks(&mut push, shard_buf, chunks, chunk_buf);
                add_into(total, shard_buf);
            }
        }
        self.folded.fetch_add(1, Ordering::Relaxed);
    }
}

/// Sums `chunks` into `dst`, which is zero, with `push`: the first chunk
/// in place, each later one in `chunk_buf`, then added.
fn fold_chunks(
    push: &mut impl FnMut(&mut [f64], &[f32]),
    dst: &mut [f64],
    chunks: &[&[f32]],
    chunk_buf: &mut [f64],
) {
    push(dst, chunks[0]);
    for chunk in &chunks[1..] {
        chunk_buf.fill(0.0);
        push(chunk_buf, chunk);
        add_into(dst, chunk_buf);
    }
}

/// Where the run of an accumulator's buffer that holds rows `..row` of
/// the packed `Σxxᵀ` ends: past the count, `Σx` and those rows.
const fn rows_end(dim: usize, row: usize) -> usize {
    1 + dim + packed_row(dim, row)
}

/// Offset of row `i` in the packed upper triangle of a `dim × dim`
/// matrix, which holds `(i, i..dim)` from there on; row `dim` is the
/// triangle's length.
const fn packed_row(dim: usize, i: usize) -> usize {
    i * (2 * dim - i + 1) / 2
}

/// `a += b`, element by element.
fn add_into(a: &mut [f64], b: &[f64]) {
    for (a, b) in a.iter_mut().zip(b) {
        *a += b;
    }
}

/// Cuts rows `0..dim` of the packed triangle into at most `parts`
/// bands of whole tile rows (the last may be ragged), each ending at
/// the first tile row that takes it past its share of the cells.
fn row_bands(dim: usize, parts: usize) -> Vec<Range<usize>> {
    let cells = packed_row(dim, dim);
    let parts = parts.max(1);
    let mut bands = Vec::new();
    let mut start = 0;
    for k in 1..=parts {
        let share = cells * k / parts;
        let mut end = start;
        while end < dim && packed_row(dim, end) < share {
            end += TILE_ROWS;
        }
        let end = end.min(dim);
        if end > start {
            bands.push(start..end);
            start = end;
        }
    }
    bands
}

/// Adds the pixels of `data` (`dim` values each, back to back) to
/// `cells`, the run of an accumulator's buffer that holds rows `rows` of
/// the packed `Σxxᵀ` — preceded by the count and `Σx` when `rows` starts
/// at 0. `rows` starts on a tile row.
///
/// The tiled update of [`CovarianceAccumulator::push_pixels_f32`], on
/// the tiles of `rows` only: every cell still adds its terms in sample
/// order, whichever rows a call covers. `scratch` is the caller's,
/// zero, and holds `min(PANEL, pixels)` rows of `dim` rounded up to
/// whole tile columns; only the first `dim` of a row are ever written,
/// so it stays zero past them from call to call.
fn push_band(dim: usize, rows: Range<usize>, cells: &mut [f64], data: &[f32], scratch: &mut [f64]) {
    let (head, cross) = cells.split_at_mut(if rows.start == 0 { 1 + dim } else { 0 });
    let base = packed_row(dim, rows.start);
    let stride = dim.next_multiple_of(TILE_COLS);
    let panel_px = CovarianceAccumulator::PANEL;
    for panel in data.chunks(panel_px * dim) {
        let pixels = panel.len() / dim;
        let widened = &mut scratch[..pixels * stride];
        for (dst, src) in widened
            .chunks_exact_mut(stride)
            .zip(panel.chunks_exact(dim))
        {
            for (w, &x) in dst.iter_mut().zip(src) {
                *w = f64::from(x);
            }
        }
        if let Some((count, sum)) = head.split_first_mut() {
            *count += pixels as f64;
            for row in widened.chunks_exact(stride) {
                for (s, &x) in sum.iter_mut().zip(row) {
                    *s += x;
                }
            }
        }
        for i0 in rows.clone().step_by(TILE_ROWS) {
            for j0 in (i0 - i0 % TILE_COLS..dim).step_by(TILE_COLS) {
                add_tile(cross, base, dim, widened, stride, (i0, j0));
            }
        }
    }
}

/// Band rows of one register tile of `Σxxᵀ`.
const TILE_ROWS: usize = 4;
/// Band columns of one register tile of `Σxxᵀ` (two four-lane registers).
const TILE_COLS: usize = 8;

/// Adds `xᵢ·xⱼ` of every pixel of `panel` (rows of `stride` widened
/// bands, zero past `dim`) to the cells `i0 ≤ i < i0 + TILE_ROWS`,
/// `j0 ≤ j < j0 + TILE_COLS` of the packed upper triangle, in pixel
/// order; `cross` holds the triangle from offset `base` on. Only cells
/// with `i ≤ j < dim` are loaded and stored; the others of the tile add
/// products nobody reads.
fn add_tile(
    cross: &mut [f64],
    base: usize,
    dim: usize,
    panel: &[f64],
    stride: usize,
    (i0, j0): (usize, usize),
) {
    // Per tile row `i`: the columns it keeps, as offsets into the tile
    // and into `cross`.
    let kept = |r: usize| {
        let i = i0 + r;
        let cols = j0.max(i)..(j0 + TILE_COLS).min(dim);
        let at = (packed_row(dim, i) - base + cols.start - i)..;
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
        #[expect(clippy::expect_used, reason = "a slice `TILE_ROWS` long converts")]
        let xi: &[f64; TILE_ROWS] = px[i0..i0 + TILE_ROWS].try_into().expect("tile rows");
        #[expect(clippy::expect_used, reason = "a slice `TILE_COLS` long converts")]
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
    fn flat_is_in_wire_order() {
        let mut acc = CovarianceAccumulator::new(3);
        acc.push(&[1.0, 2.0, 3.0]);
        acc.push(&[0.5, -1.0, 2.0]);
        let flat = acc.to_flat();
        assert_eq!(flat.len(), CovarianceAccumulator::flat_len(3));
        // The count, the sums, the packed upper triangle.
        assert_eq!(flat[..4], [2.0, 1.5, 1.0, 5.0]);
        assert_eq!(flat[4..], [1.25, 1.5, 4.0, 5.0, 4.0, 13.0]);
    }

    fn flat_bits(acc: &CovarianceAccumulator) -> Vec<u64> {
        acc.to_flat().iter().map(|v| v.to_bits()).collect()
    }

    /// Bands of whole tile rows, in order, covering every row, none
    /// empty, at most as many as asked for.
    #[test]
    fn row_bands_tile_the_triangle() {
        for dim in [1, 3, 4, 5, 8, 9, 31, 224] {
            for parts in [1, 2, 3, 8, 100] {
                let bands = row_bands(dim, parts);
                assert!(!bands.is_empty() && bands.len() <= parts, "{dim} {parts}");
                assert_eq!(bands[0].start, 0);
                assert_eq!(bands.last().unwrap().end, dim);
                for pair in bands.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                    assert_eq!(pair[0].end % TILE_ROWS, 0);
                }
                assert!(bands.iter().all(|b| b.start < b.end));
            }
        }
        // Near-equal cells: 224 bands in two halves of 12 600 ± 4 rows.
        let [a, b] = row_bands(224, 2).try_into().unwrap();
        assert_eq!((a, b), (0..68, 68..224));
    }

    /// `from_shards` against the merge it replaces: each chunk pushed
    /// into a fresh accumulator, a shard's later chunks merged into its
    /// first, each shard merged into a zeroed total; one-chunk, several-
    /// chunk and empty shards in every position, at every band count.
    #[test]
    fn from_shards_is_the_shard_by_shard_merge() {
        let mut state: u64 = 11;
        let mut draw = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Thirds fill every mantissa bit, so regrouped sums differ.
            match state >> 61 {
                0 => -0.0,
                _ => (((state >> 40) as f32) / (1 << 24) as f32 - 0.5) / 3.0,
            }
        };
        for dim in [1, 5, 13] {
            let data: Vec<f32> = (0..40 * dim).map(|_| draw()).collect();
            let px = |lo: usize, hi: usize| &data[lo * dim..hi * dim];
            let layouts: [Vec<Vec<&[f32]>>; 3] = [
                vec![
                    vec![px(0, 3), px(3, 4)],
                    vec![px(4, 9)],
                    vec![],
                    vec![px(9, 11), px(11, 40)],
                ],
                vec![vec![], vec![px(0, 1)], vec![px(1, 2), px(2, 2), px(2, 30)]],
                vec![vec![px(0, 40)]],
            ];
            for shards in &layouts {
                let mut want = CovarianceAccumulator::new(dim);
                for chunks in shards {
                    let mut shard: Option<CovarianceAccumulator> = None;
                    for chunk in chunks {
                        let mut acc = CovarianceAccumulator::new(dim);
                        acc.push_pixels_f32(chunk);
                        match &mut shard {
                            Some(s) => s.merge(&acc).unwrap(),
                            None => shard = Some(acc),
                        }
                    }
                    want.merge(&shard.unwrap_or_else(|| CovarianceAccumulator::new(dim)))
                        .unwrap();
                }
                for parts in [1, 2, 3, 8] {
                    let got = CovarianceAccumulator::from_shards(dim, shards, parts, |bands| {
                        bands.into_iter().for_each(ShardBand::fold)
                    });
                    assert_eq!(
                        flat_bits(&got),
                        flat_bits(&want),
                        "dim {dim}, {parts} parts"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a band was left unfolded")]
    fn from_shards_rejects_an_unfolded_band() {
        let data = [1.0f32; 16];
        let shards = vec![vec![&data[..]]];
        CovarianceAccumulator::from_shards(8, &shards, 2, |mut bands| {
            bands.pop();
            bands.into_iter().for_each(ShardBand::fold);
        });
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
