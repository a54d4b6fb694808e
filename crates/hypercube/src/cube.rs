//! The hyperspectral image cube container.
//!
//! Storage is band-interleaved-by-pixel (BIP): the spectrum of pixel
//! `(line, sample)` occupies the contiguous slice
//! `window[(line*samples + sample)*bands ..][..bands]`. This matches the
//! paper's hybrid partitioning strategy — partitions are blocks of
//! *spatially adjacent pixel vectors that retain their full spectral
//! content* — because a row block is then a single contiguous memory
//! region, shippable through the message-passing engine in one message
//! (the role MPI derived datatypes play in the paper).
//!
//! ## A cube is a window on shared storage
//!
//! A [`HyperCube`] does not own its samples outright: it is a
//! `lines × samples × bands` **window** (an element offset plus the
//! shape) onto an immutable, reference-counted sample buffer. A row
//! block is contiguous, so [`HyperCube::extract_lines`] and
//! [`HyperCube::extract_lines_with_overlap`] — and `clone` — hand out a
//! second window on the *same* buffer: a refcount bump and an offset,
//! never a copy, however large the scene. Every reading accessor speaks
//! about the window only; a block is an image in its own right, with its
//! own line 0 and its own edges.
//!
//! Writing is **copy-on-write**. [`HyperCube::as_mut_slice`],
//! [`HyperCube::pixel_mut`] and [`HyperCube::into_vec`] are free when the
//! cube is the sole owner of a whole buffer (every `zeros` / `from_vec`
//! cube, hence every synthesised or ENVI-read scene, is); a cube that
//! shares its buffer, or covers only part of it, first copies *its own
//! window* out into a fresh buffer and then writes there. A write never
//! reaches a parent, a sibling window or a clone.

use std::fmt;
use std::sync::Arc;

/// A `lines × samples × bands` hyperspectral image cube (BIP layout, `f32`).
///
/// ```
/// use hsi_cube::HyperCube;
/// let mut cube = HyperCube::zeros(2, 3, 4);
/// cube.pixel_mut(1, 2)[0] = 0.5;
/// assert_eq!(cube.pixel(1, 2), &[0.5, 0.0, 0.0, 0.0]);
/// assert_eq!(cube.num_pixels(), 6);
///
/// // A row block is a window on the same samples, not a copy …
/// let block = cube.extract_lines(1, 1);
/// assert!(std::ptr::eq(block.as_slice().as_ptr(), cube.pixel(1, 0).as_ptr()));
/// // … and writing to either side never shows through on the other.
/// cube.pixel_mut(1, 2)[0] = 9.0;
/// assert_eq!(block.pixel(0, 2)[0], 0.5);
/// ```
#[derive(Clone)]
pub struct HyperCube {
    lines: usize,
    samples: usize,
    bands: usize,
    /// Element index in `data` of the window's first sample.
    offset: usize,
    /// The sample buffer, shared with every window cut from it.
    data: Arc<Vec<f32>>,
}

/// Spatial coordinates of a pixel: `(line, sample)` = (row, column).
pub type Coord = (usize, usize);

impl HyperCube {
    /// Creates a zero-filled cube.
    pub fn zeros(lines: usize, samples: usize, bands: usize) -> Self {
        Self::from_vec(lines, samples, bands, vec![0.0; lines * samples * bands])
    }

    /// Creates a cube from a flat BIP vector (the cube becomes the sole
    /// owner of the buffer; nothing is copied).
    ///
    /// # Panics
    /// Panics if `data.len() != lines * samples * bands`.
    pub fn from_vec(lines: usize, samples: usize, bands: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            lines * samples * bands,
            "from_vec: data length mismatch"
        );
        HyperCube {
            lines,
            samples,
            bands,
            offset: 0,
            data: Arc::new(data),
        }
    }

    /// Number of image lines (rows).
    #[inline]
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Number of samples per line (columns).
    #[inline]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of spectral bands.
    #[inline]
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Total number of pixels (`lines × samples`).
    #[inline]
    pub fn num_pixels(&self) -> usize {
        self.lines * self.samples
    }

    /// Number of `f32` samples in the window.
    #[inline]
    fn window_len(&self) -> usize {
        self.lines * self.samples * self.bands
    }

    /// Size of the window's raw data in bytes (`f32` elements × 4) —
    /// what shipping this cube costs, whatever buffer it is cut from.
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        (self.window_len() * std::mem::size_of::<f32>()) as u64
    }

    /// Borrow of the window's flat BIP samples.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data[self.offset..self.offset + self.window_len()]
    }

    /// Makes this cube the sole owner of a buffer that is exactly its
    /// window — by copying the window out when the buffer is shared or
    /// larger — and returns that buffer.
    fn owned_buffer(&mut self) -> &mut Vec<f32> {
        let whole = self.offset == 0 && self.data.len() == self.window_len();
        if !whole || Arc::get_mut(&mut self.data).is_none() {
            self.data = Arc::new(self.as_slice().to_vec());
            self.offset = 0;
        }
        Arc::get_mut(&mut self.data).expect("sole owner of an unshared or freshly copied buffer")
    }

    /// Mutable borrow of the window's flat BIP samples (copy-on-write:
    /// see the [module docs](self)).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.owned_buffer()
    }

    /// Consumes the cube, returning the window's samples as a flat
    /// buffer (moved out when the cube solely owns a whole buffer,
    /// copied otherwise).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(self.owned_buffer())
    }

    /// Spectrum of the pixel at `(line, sample)` as a contiguous slice.
    ///
    /// # Panics
    /// Panics (in debug) on out-of-range coordinates.
    #[inline]
    pub fn pixel(&self, line: usize, sample: usize) -> &[f32] {
        debug_assert!(line < self.lines && sample < self.samples);
        let start = (line * self.samples + sample) * self.bands;
        &self.as_slice()[start..start + self.bands]
    }

    /// Mutable spectrum of the pixel at `(line, sample)` (copy-on-write:
    /// see the [module docs](self)).
    #[inline]
    pub fn pixel_mut(&mut self, line: usize, sample: usize) -> &mut [f32] {
        debug_assert!(line < self.lines && sample < self.samples);
        let start = (line * self.samples + sample) * self.bands;
        let bands = self.bands;
        &mut self.owned_buffer()[start..start + bands]
    }

    /// Spectrum of the `i`-th pixel in row-major pixel order.
    #[inline]
    pub fn pixel_flat(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.num_pixels());
        &self.as_slice()[i * self.bands..(i + 1) * self.bands]
    }

    /// Converts a flat pixel index to `(line, sample)` coordinates.
    #[inline]
    pub fn coord_of(&self, i: usize) -> Coord {
        (i / self.samples, i % self.samples)
    }

    /// Converts `(line, sample)` coordinates to a flat pixel index.
    #[inline]
    pub fn index_of(&self, (line, sample): Coord) -> usize {
        line * self.samples + sample
    }

    /// Iterator over `(coord, spectrum)` pairs in row-major order.
    pub fn iter_pixels(&self) -> impl Iterator<Item = (Coord, &[f32])> + '_ {
        (0..self.num_pixels()).map(move |i| (self.coord_of(i), self.pixel_flat(i)))
    }

    /// Lines `[first_line, first_line + n_lines)` as a cube of their own
    /// (the unit of work shipped to a worker): a window on this cube's
    /// storage, O(1) whatever the block size.
    ///
    /// # Panics
    /// Panics if the requested range exceeds the cube.
    pub fn extract_lines(&self, first_line: usize, n_lines: usize) -> HyperCube {
        assert!(
            first_line + n_lines <= self.lines,
            "extract_lines: range {}..{} exceeds {} lines",
            first_line,
            first_line + n_lines,
            self.lines
        );
        HyperCube {
            lines: n_lines,
            samples: self.samples,
            bands: self.bands,
            offset: self.offset + first_line * self.samples * self.bands,
            data: Arc::clone(&self.data),
        }
    }

    /// Lines `[first_line, first_line + n_lines)` with an **overlap
    /// border** of `overlap` lines on each side (clamped to the image
    /// boundary), as used by Hetero-MORPH to trade redundant computation
    /// for communication. Returns the window together with the number of
    /// extra lines actually prepended (so the caller can map local to
    /// global line numbers).
    pub fn extract_lines_with_overlap(
        &self,
        first_line: usize,
        n_lines: usize,
        overlap: usize,
    ) -> (HyperCube, usize) {
        assert!(first_line + n_lines <= self.lines);
        let lo = first_line.saturating_sub(overlap);
        let hi = (first_line + n_lines + overlap).min(self.lines);
        (self.extract_lines(lo, hi - lo), first_line - lo)
    }

    /// Returns the spectrum of the pixel with the largest brightness
    /// `xᵀx`, with its coordinates; ties resolve to the first in row-major
    /// order. Returns `None` for an empty cube.
    pub fn brightest_pixel(&self) -> Option<(Coord, &[f32])> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.num_pixels() {
            let b = crate::metrics::brightness(self.pixel_flat(i));
            match best {
                Some((_, score)) if b <= score => {}
                _ => best = Some((i, b)),
            }
        }
        best.map(|(i, _)| (self.coord_of(i), self.pixel_flat(i)))
    }

    /// Returns a new cube containing only the given bands (in the given
    /// order). Standard preprocessing for AVIRIS products, whose water-
    /// absorption bands are customarily removed before analysis.
    ///
    /// # Panics
    /// Panics when `bands` is empty or any index is out of range.
    pub fn select_bands(&self, bands: &[usize]) -> HyperCube {
        assert!(!bands.is_empty(), "select_bands: no bands selected");
        for &b in bands {
            assert!(b < self.bands, "select_bands: band {b} out of range");
        }
        let mut data = Vec::with_capacity(self.num_pixels() * bands.len());
        for i in 0..self.num_pixels() {
            let px = self.pixel_flat(i);
            for &b in bands {
                data.push(px[b]);
            }
        }
        HyperCube::from_vec(self.lines, self.samples, bands.len(), data)
    }

    /// Per-band mean spectrum of the whole cube (used in tests and as the
    /// sequential reference for the PCT mean step).
    pub fn mean_spectrum(&self) -> Vec<f64> {
        let mut mean = vec![0.0f64; self.bands];
        for i in 0..self.num_pixels() {
            for (m, &v) in mean.iter_mut().zip(self.pixel_flat(i)) {
                *m += v as f64;
            }
        }
        let n = self.num_pixels().max(1) as f64;
        for m in &mut mean {
            *m /= n;
        }
        mean
    }
}

/// Two cubes are equal when their shapes and their windows' samples are;
/// where the samples live (which buffer, what offset) is not compared.
impl PartialEq for HyperCube {
    fn eq(&self, other: &Self) -> bool {
        (self.lines, self.samples, self.bands) == (other.lines, other.samples, other.bands)
            && self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for HyperCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HyperCube({} lines x {} samples x {} bands, {:.1} MB)",
            self.lines,
            self.samples,
            self.bands,
            self.size_bytes() as f64 / (1024.0 * 1024.0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_cube() -> HyperCube {
        // 3 lines x 4 samples x 2 bands; value = pixel index + band/10.
        let mut c = HyperCube::zeros(3, 4, 2);
        for i in 0..12 {
            for b in 0..2 {
                let (l, s) = (i / 4, i % 4);
                c.pixel_mut(l, s)[b] = i as f32 + b as f32 / 10.0;
            }
        }
        c
    }

    #[test]
    fn shape_accessors() {
        let c = HyperCube::zeros(3, 4, 5);
        assert_eq!(c.lines(), 3);
        assert_eq!(c.samples(), 4);
        assert_eq!(c.bands(), 5);
        assert_eq!(c.num_pixels(), 12);
        assert_eq!(c.size_bytes(), 3 * 4 * 5 * 4);
    }

    #[test]
    fn pixel_access_roundtrip() {
        let c = ramp_cube();
        assert_eq!(c.pixel(0, 0), &[0.0, 0.1]);
        assert_eq!(c.pixel(2, 3), &[11.0, 11.1]);
        assert_eq!(c.pixel_flat(5), c.pixel(1, 1));
    }

    #[test]
    fn coord_index_inverse() {
        let c = HyperCube::zeros(7, 9, 1);
        for i in 0..c.num_pixels() {
            assert_eq!(c.index_of(c.coord_of(i)), i);
        }
    }

    #[test]
    fn extract_lines_preserves_content() {
        let c = ramp_cube();
        let sub = c.extract_lines(1, 2);
        assert_eq!(sub.lines(), 2);
        assert_eq!(sub.pixel(0, 0), c.pixel(1, 0));
        assert_eq!(sub.pixel(1, 3), c.pixel(2, 3));
    }

    /// The copying definition `extract_lines` had before it became a
    /// window: the reference every accessor of a window must agree with.
    fn copied_lines(c: &HyperCube, first: usize, n: usize) -> HyperCube {
        let row = c.samples() * c.bands();
        let data = c.as_slice()[first * row..(first + n) * row].to_vec();
        HyperCube::from_vec(n, c.samples(), c.bands(), data)
    }

    /// 6 lines x 3 samples x 4 bands of distinct values with a unique
    /// brightest pixel in every line range.
    fn tall_cube() -> HyperCube {
        HyperCube::from_vec(6, 3, 4, (0..72).map(|i| (i * 7 % 73) as f32).collect())
    }

    #[test]
    fn window_equals_the_copy_under_every_accessor() {
        let c = tall_cube();
        for first in 0..=c.lines() {
            for n in 0..=c.lines() - first {
                let w = c.extract_lines(first, n);
                let r = copied_lines(&c, first, n);
                assert_eq!(
                    (w.lines(), w.samples(), w.bands()),
                    (r.lines(), r.samples(), r.bands())
                );
                assert_eq!(w.as_slice(), r.as_slice());
                assert_eq!(w.size_bytes(), r.size_bytes());
                assert_eq!(w.size_bytes(), (n * 3 * 4 * 4) as u64);
                assert_eq!(w, r);
                assert_eq!(r, w);
                assert_eq!(format!("{w:?}"), format!("{r:?}"));
                for i in 0..w.num_pixels() {
                    let (l, s) = w.coord_of(i);
                    assert_eq!(w.pixel_flat(i), r.pixel_flat(i));
                    assert_eq!(w.pixel(l, s), r.pixel(l, s));
                }
                assert!(w.iter_pixels().eq(r.iter_pixels()));
                assert_eq!(w.brightest_pixel(), r.brightest_pixel());
                assert_eq!(w.mean_spectrum(), r.mean_spectrum());
                assert_eq!(w.select_bands(&[3, 0]), r.select_bands(&[3, 0]));
                assert_eq!(w.clone().into_vec(), r.clone().into_vec());
            }
        }
        // Equal shape, different samples; equal samples, different shape.
        assert_ne!(c.extract_lines(0, 2), c.extract_lines(1, 2));
        assert_ne!(
            HyperCube::zeros(2, 3, 4),
            HyperCube::from_vec(3, 2, 4, vec![0.0; 24])
        );
    }

    #[test]
    fn windows_share_the_parents_storage_and_compose_offsets() {
        let c = tall_cube();
        let w = c.extract_lines(2, 3);
        assert!(std::ptr::eq(w.as_slice().as_ptr(), c.pixel(2, 0).as_ptr()));
        // A window of a window is a window on the same buffer.
        let ww = w.extract_lines(1, 2);
        assert!(std::ptr::eq(ww.as_slice().as_ptr(), c.pixel(3, 0).as_ptr()));
        assert_eq!(ww, copied_lines(&c, 3, 2));
        let (halo, pre) = w.extract_lines_with_overlap(1, 1, 5);
        assert_eq!(pre, 1);
        assert_eq!(
            halo, w,
            "the halo clamps at the window's edges, not the buffer's"
        );
        assert!(std::ptr::eq(
            halo.as_slice().as_ptr(),
            w.as_slice().as_ptr()
        ));
        // So is a clone.
        assert!(std::ptr::eq(
            c.clone().as_slice().as_ptr(),
            c.as_slice().as_ptr()
        ));
        // An empty window at the very end is in range.
        assert!(c.extract_lines(6, 0).as_slice().is_empty());
    }

    #[test]
    fn writing_through_a_window_never_reaches_parent_or_siblings() {
        let mut c = tall_cube();
        let before = copied_lines(&c, 0, 6);
        let mut a = c.extract_lines(1, 3);
        let b = c.extract_lines(2, 3); // overlaps `a` on lines 2..4
        let b_ptr = b.as_slice().as_ptr();

        a.pixel_mut(1, 0)[2] = -1.0;
        a.as_mut_slice()[0] = -2.0;
        assert_eq!(a.pixel(1, 0)[2], -1.0);
        assert_eq!(a.as_slice()[0], -2.0);
        assert_eq!(a.as_slice().len(), 3 * 3 * 4, "copied its own window only");
        assert_eq!(c, before);
        assert_eq!(b, copied_lines(&before, 2, 3));
        assert!(std::ptr::eq(b.as_slice().as_ptr(), b_ptr));
        // Everything `a` did not write is still the parent's value.
        let mut expect = copied_lines(&before, 1, 3).into_vec();
        expect[0] = -2.0;
        expect[3 * 4 + 2] = -1.0; // pixel (1, 0) is the window's fourth
        assert_eq!(a.as_slice(), &expect[..]);

        // Writing to the parent while windows are alive leaves them alone.
        c.pixel_mut(2, 1).fill(99.0);
        assert_eq!(c.pixel(2, 1), &[99.0; 4]);
        assert_eq!(b, copied_lines(&before, 2, 3));
        assert!(std::ptr::eq(b.as_slice().as_ptr(), b_ptr));

        // A clone is a window too.
        let mut d = before.clone();
        d.as_mut_slice().fill(0.0);
        assert_eq!(before, copied_lines(&before, 0, 6));
        assert_ne!(d, before);
    }

    #[test]
    fn a_sole_owner_of_a_whole_buffer_writes_in_place() {
        let mut c = tall_cube();
        let ptr = c.as_slice().as_ptr();
        c.pixel_mut(5, 2)[3] = 1.5;
        c.as_mut_slice()[0] = 2.5;
        assert!(std::ptr::eq(c.as_slice().as_ptr(), ptr));
        // Once the last window is gone the parent is sole owner again.
        let w = c.extract_lines(0, 1);
        drop(w);
        c.pixel_mut(0, 0)[1] = 3.5;
        assert!(std::ptr::eq(c.as_slice().as_ptr(), ptr));
        let v = c.into_vec();
        assert!(
            std::ptr::eq(v.as_ptr(), ptr),
            "into_vec moves the buffer out"
        );
        assert_eq!((v[0], v[1], v[71]), (2.5, 3.5, 1.5));
    }

    #[test]
    fn into_vec_of_a_window_returns_the_window_only() {
        let c = tall_cube();
        let v = c.extract_lines(4, 2).into_vec();
        assert_eq!(v, c.as_slice()[4 * 12..]);
        // A sole owner of a *partial* window (its parent is gone) still
        // returns only what it shows.
        let w = tall_cube().extract_lines(1, 1);
        assert_eq!(w.into_vec(), c.as_slice()[12..24]);
    }

    #[test]
    #[should_panic(expected = "extract_lines")]
    fn extract_lines_out_of_range_panics() {
        ramp_cube().extract_lines(2, 2);
    }

    #[test]
    fn extract_with_overlap_clamps_at_borders() {
        let c = ramp_cube();
        // First partition: no lines above to prepend.
        let (sub, pre) = c.extract_lines_with_overlap(0, 1, 1);
        assert_eq!(pre, 0);
        assert_eq!(sub.lines(), 2); // 1 own + 1 below
                                    // Middle partition gets both sides.
        let (sub, pre) = c.extract_lines_with_overlap(1, 1, 1);
        assert_eq!(pre, 1);
        assert_eq!(sub.lines(), 3);
        // Last partition: nothing below.
        let (sub, pre) = c.extract_lines_with_overlap(2, 1, 1);
        assert_eq!(pre, 1);
        assert_eq!(sub.lines(), 2);
    }

    #[test]
    fn brightest_pixel_is_global_max() {
        let c = ramp_cube();
        let ((l, s), px) = c.brightest_pixel().unwrap();
        assert_eq!((l, s), (2, 3));
        assert_eq!(px, c.pixel(2, 3));
    }

    #[test]
    fn brightest_pixel_empty_cube() {
        let c = HyperCube::zeros(0, 0, 4);
        assert!(c.brightest_pixel().is_none());
    }

    #[test]
    fn mean_spectrum_of_constant_cube() {
        let c = HyperCube::from_vec(2, 2, 3, vec![2.0; 12]);
        let m = c.mean_spectrum();
        assert_eq!(m, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn iter_pixels_covers_all_in_order() {
        let c = ramp_cube();
        let coords: Vec<_> = c.iter_pixels().map(|(xy, _)| xy).collect();
        assert_eq!(coords.len(), 12);
        assert_eq!(coords[0], (0, 0));
        assert_eq!(coords[11], (2, 3));
    }
}
