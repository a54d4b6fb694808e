//! Row-major dense matrix over `f64`.
//!
//! [`Matrix`] is deliberately minimal: a contiguous `Vec<f64>` plus shape,
//! with the handful of products and reductions the hyperspectral algorithms
//! need. Rows are contiguous, which matches the band-interleaved-by-pixel
//! layout used by `hsi-cube` (a pixel's spectrum is one row).

use crate::error::shape_mismatch;
use crate::{LinAlgError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// Indexing is `(row, col)`; storage is `data[row * cols + col]`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: no rows supplied");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "from_rows: row {i} has inconsistent length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a single-row matrix from a vector (a row vector).
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix::from_vec(1, v.len(), v.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the flat row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its flat row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        debug_assert!(c < self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// This matrix with `row` appended below its last, in one allocation
    /// of exactly its size (a row pushed onto a clone would keep up to
    /// twice that).
    ///
    /// # Panics
    /// Panics if `row.len() != self.cols()`.
    pub fn with_row(&self, row: &[f64]) -> Matrix {
        assert_eq!(row.len(), self.cols, "with_row: wrong row length");
        let mut data = Vec::with_capacity(self.data.len() + row.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(row);
        Matrix::from_vec(self.rows + 1, self.cols, data)
    }

    /// The capacity of the storage, in values.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses the classic i-k-j loop order so the inner loop streams over
    /// contiguous rows of both `self` and `rhs` (cache-friendly, per the
    /// Rust Performance Book guidance on memory access patterns).
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(shape_mismatch(
                format!("rhs with {} rows", self.cols),
                format!("{}x{}", rhs.rows, rhs.cols),
            ));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                let o_row = out.row_mut(i);
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(shape_mismatch(
                format!("vector of length {}", self.cols),
                format!("length {}", v.len()),
            ));
        }
        Ok((0..self.rows).map(|r| dot(self.row(r), v)).collect())
    }

    /// Gram matrix `selfᵀ * self` (always square `cols × cols`, symmetric).
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let xi = row[i];
                if xi == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    g[(i, j)] += xi * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..self.cols {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Elementwise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(shape_mismatch(
                format!("{}x{}", self.rows, self.cols),
                format!("{}x{}", rhs.rows, rhs.cols),
            ));
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix::from_vec(self.rows, self.cols, data))
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(shape_mismatch(
                format!("{}x{}", self.rows, self.cols),
                format!("{}x{}", rhs.rows, rhs.cols),
            ));
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix::from_vec(self.rows, self.cols, data))
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// `true` when every element of `self - rhs` is within `tol` in absolute
    /// value. Shapes must match.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        self.shape() == rhs.shape()
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Checks symmetry within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Sum of diagonal elements. Errors on non-square matrices.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(shape_mismatch(
                "square matrix",
                format!("{}x{}", self.rows, self.cols),
            ));
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Validates that the matrix is non-empty, returning [`LinAlgError::Empty`]
    /// otherwise.
    pub fn require_non_empty(&self) -> Result<()> {
        if self.rows == 0 || self.cols == 0 {
            Err(LinAlgError::Empty)
        } else {
            Ok(())
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Debug-asserts equal lengths; in release the shorter length governs.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The `L` dot products `xs[k]·ys[k]` summed **abreast**: one accumulator
/// each, every one adding its own terms in index order from [`dot`]'s
/// starting value, so each has the bits `dot` gives that pair alone —
/// `L` independent chains overlap the add latency a single sum waits out.
/// Elements widen to `f64` first (`f32` pixels against `f64` vectors).
/// Pass one slice `L` times to share its loads.
///
/// Always inlined: LLVM keeps it out of line where a function calls it
/// twice, and the call costs more than the sums (measured in
/// [`missing_dots`] on the 256 × 16 × 224 scene: ATDCA's carried rounds
/// 1.4× slower, a from-empty UFCLS line 1.17×).
///
/// # Panics
/// Panics when a slice is shorter than `xs[0]`.
#[inline(always)]
pub fn dots_abreast<A, B, const L: usize>(xs: [&[A]; L], ys: [&[B]; L]) -> [f64; L]
where
    A: Copy + Into<f64>,
    B: Copy + Into<f64>,
{
    const BLOCK: usize = 4;
    let n = xs.first().map_or(0, |x| x.len());
    let (xs, ys) = (xs.map(|x| &x[..n]), ys.map(|y| &y[..n]));
    // `Sum for f64` starts from −0.0.
    let mut sums = [-0.0f64; L];
    // The products of a few indices first (independent of one another),
    // then the adds, which are the only ordered part.
    let blocked = n - n % BLOCK;
    for at in (0..blocked).step_by(BLOCK) {
        let mut products = [[0.0f64; BLOCK]; L];
        for ((lane, x), y) in products.iter_mut().zip(&xs).zip(&ys) {
            let block = x[at..at + BLOCK].iter().zip(&y[at..at + BLOCK]);
            for (product, (&a, &b)) in lane.iter_mut().zip(block) {
                *product = a.into() * b.into();
            }
        }
        for i in 0..BLOCK {
            for (sum, lane) in sums.iter_mut().zip(&products) {
                *sum += lane[i];
            }
        }
    }
    for i in blocked..n {
        for ((sum, x), y) in sums.iter_mut().zip(&xs).zip(&ys) {
            *sum += x[i].into() * y[i].into();
        }
    }
    sums
}

/// How many chains [`missing_dots`] runs abreast.
const CHAINS: usize = 4;

/// The dots a few pixels missed: `xs[l]` (at most four) with `vector(i)`
/// for every `i` in `from[l]..to`, each handed to `take(l, i, dot)` in
/// ascending `i` for each pixel, with [`dot`]'s bits. Four chains run
/// abreast ([`dots_abreast`]) in whichever layout takes fewer passes: the
/// pixels abreast, one vector a pass, or one pixel at a time, four of its
/// vectors a pass. A lone chain waits out the add latency for as long as
/// four abreast take, so no pass runs fewer: a spare lane repeats a real
/// one, and what it forms is not handed on.
///
/// Kept out of line, so the four accumulator chains have its registers
/// to themselves rather than the caller's loop's.
#[inline(never)]
pub fn missing_dots<'v, T: Copy + Into<f64>>(
    xs: &[&[T]],
    from: &[usize],
    to: usize,
    vector: impl Fn(usize) -> &'v [f64],
    mut take: impl FnMut(usize, usize, f64),
) {
    let lanes = xs.len().min(from.len()).min(CHAINS);
    let Some(first) = from[..lanes].iter().copied().min() else {
        return;
    };
    let lone_passes: usize = from[..lanes]
        .iter()
        .map(|&f| to.saturating_sub(f).div_ceil(CHAINS))
        .sum();
    if to.saturating_sub(first) <= lone_passes {
        let pixels: [&[T]; CHAINS] = std::array::from_fn(|l| xs[l.min(lanes - 1)]);
        for i in first..to {
            let formed = dots_abreast(pixels, [vector(i); CHAINS]);
            for (l, (&c, &f)) in formed.iter().zip(&from[..lanes]).enumerate() {
                if f <= i {
                    take(l, i, c);
                }
            }
        }
    } else {
        for (l, (&x, &f)) in xs.iter().zip(&from[..lanes]).enumerate() {
            for at in (f..to).step_by(CHAINS) {
                let vectors = std::array::from_fn(|j| vector((at + j).min(to - 1)));
                let formed = dots_abreast([x; CHAINS], vectors);
                for (j, &c) in formed.iter().take(to - at).enumerate() {
                    take(l, at + j, c);
                }
            }
        }
    }
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x` (BLAS `axpy`).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace().unwrap(), 3.0);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]);
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(LinAlgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_known_product() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 1.0]]);
        let v = [2.0, 1.0, -1.0];
        let got = a.matvec(&v).unwrap();
        assert_eq!(got, vec![1.0 * 2.0 - 2.0 - 0.5, 3.0 - 1.0]);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.approx_eq(&explicit, 1e-12));
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn with_row_grows_the_matrix_in_an_exact_allocation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let grown = m.with_row(&[7.0, 8.0, 9.0]);
        let want = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        assert_eq!(grown, want);
        assert_eq!(grown.capacity(), 9);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(m.max_abs(), 4.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn empty_matrix_rejected() {
        let m = Matrix::zeros(0, 3);
        assert!(matches!(m.require_non_empty(), Err(LinAlgError::Empty)));
    }
}
