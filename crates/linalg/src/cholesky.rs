//! Cholesky decomposition of symmetric positive-definite matrices.
//!
//! The least-squares solvers in [`crate::lstsq`] form normal equations
//! `(UᵀU)·a = Uᵀx` whose left-hand side is SPD whenever the endmember
//! matrix `U` has full column rank; Cholesky is the cheapest stable way to
//! solve them.

use crate::error::shape_mismatch;
use crate::{LinAlgError, Matrix, Result};

/// A lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
#[derive(Debug, Clone)]
pub struct CholeskyDecomposition {
    l: Matrix,
}

impl CholeskyDecomposition {
    /// Factorises a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is the caller's responsibility (use
    /// [`Matrix::is_symmetric`] to verify when in doubt). Returns
    /// [`LinAlgError::NotPositiveDefinite`] when a diagonal pivot is
    /// non-positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(shape_mismatch(
                "square matrix",
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        a.require_non_empty()?;
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        factor_rows(l.as_mut_slice(), n, 0..n, |i, j| a[(i, j)])
            .map_err(|_| LinAlgError::NotPositiveDefinite)?;
        Ok(CholeskyDecomposition { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow of the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` via `L·y = b` then `Lᵀ·x = y`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(shape_mismatch(
                format!("rhs of length {n}"),
                format!("length {}", b.len()),
            ));
        }
        let mut y = b.to_vec();
        solve_in_place(self.l.as_slice(), n, &mut y);
        Ok(y)
    }

    /// Determinant of `A` (= product of squared diagonal entries of `L`).
    pub fn det(&self) -> f64 {
        let mut d = 1.0;
        for i in 0..self.dim() {
            let v = self.l[(i, i)];
            d *= v * v;
        }
        d
    }
}

/// Computes rows `rows` of the lower Cholesky factor of the matrix whose
/// lower-triangle entries are `a(i, j)`, into `l` (row-major with row
/// stride `stride`). Rows before `rows.start` must already hold the factor
/// of the leading block — a factor row depends only on the rows above it,
/// which is what lets [`crate::lstsq`] keep the untouched leading rows when
/// its passive set changes. On a non-positive pivot returns the failing row;
/// the rows before it are valid.
pub(crate) fn factor_rows(
    l: &mut [f64],
    stride: usize,
    rows: std::ops::Range<usize>,
    a: impl Fn(usize, usize) -> f64,
) -> std::result::Result<(), usize> {
    for i in rows {
        for j in 0..=i {
            let mut sum = a(i, j);
            for k in 0..j {
                sum -= l[i * stride + k] * l[j * stride + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(i);
                }
                l[i * stride + j] = sum.sqrt();
            } else {
                l[i * stride + j] = sum / l[j * stride + j];
            }
        }
    }
    Ok(())
}

/// Overwrites `y` (the right-hand side, length = dimension) with the
/// solution of `L·Lᵀ·x = y` for the factor stored in `l` as by
/// [`factor_rows`].
#[allow(clippy::needless_range_loop)] // indexed form mirrors the textbook algorithm
pub(crate) fn solve_in_place(l: &[f64], stride: usize, y: &mut [f64]) {
    let n = y.len();
    for i in 0..n {
        let mut sum = y[i];
        for k in 0..i {
            sum -= l[i * stride + k] * y[k];
        }
        y[i] = sum / l[i * stride + i];
    }
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[k * stride + i] * y[k];
        }
        y[i] = sum / l[i * stride + i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_known_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let ch = CholeskyDecomposition::new(&a).unwrap();
        let l = ch.l();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-12));
        assert!((ch.det() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn solve_matches_lu() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let b = [1.0, -2.0, 3.0];
        let x_ch = CholeskyDecomposition::new(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::lu::solve(&a, &b).unwrap();
        for (p, q) in x_ch.iter().zip(&x_lu) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            CholeskyDecomposition::new(&a),
            Err(LinAlgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(CholeskyDecomposition::new(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(
            CholeskyDecomposition::new(&Matrix::zeros(0, 0)),
            Err(LinAlgError::Empty)
        ));
    }

    /// What lets `lstsq` keep the leading factor rows when its passive set
    /// changes, and re-factor from row 0 when it resumes a recorded
    /// iteration: a factor row is a function of the matrix and the rows
    /// above it alone — not of the call that produced it, nor of the
    /// buffer's stride.
    #[test]
    fn factor_rows_are_the_same_bits_however_they_are_reached() {
        // The Gram matrix of six spectra plus a ridge, and sub-matrices of
        // it picked as `lstsq` picks a passive set.
        let spectra: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                (0..9)
                    .map(|b| 0.1 + ((i * 7 + b * 3) % 11) as f64 * 0.083)
                    .collect()
            })
            .collect();
        let g = |i: usize, j: usize| {
            let dot: f64 = spectra[i].iter().zip(&spectra[j]).map(|(a, b)| a * b).sum();
            dot + if i == j { 0.5 } else { 0.0 }
        };
        let lower = |l: &[f64], stride: usize, k: usize| -> Vec<u64> {
            (0..k)
                .flat_map(|i| (0..=i).map(move |j| (i, j)))
                .map(|(i, j)| l[i * stride + j].to_bits())
                .collect()
        };
        let t = spectra.len();
        let one_call = |set: &[usize], stride: usize| {
            let mut l = vec![f64::NAN; t * stride];
            factor_rows(&mut l, stride, 0..set.len(), |r, s| g(set[r], set[s])).unwrap();
            lower(&l, stride, set.len())
        };

        let set = [0, 1, 2, 4, 5];
        let k = set.len();
        let want = one_call(&set, t);
        for stride in [t, t + 1] {
            assert_eq!(one_call(&set, stride), want, "stride {stride}");
            let mut l = vec![f64::NAN; t * stride];
            for row in 0..k {
                factor_rows(&mut l, stride, row..row + 1, |r, s| g(set[r], set[s])).unwrap();
            }
            assert_eq!(lower(&l, stride, k), want, "row by row, stride {stride}");
            // The set changes at a middle position — an index enters at
            // position 3, then the one at position 1 leaves: only the rows
            // from there on are redone, below the rows kept.
            for (changed, from) in [(&[0, 1, 2, 3, 4, 5][..], 3), (&[0, 2, 3, 4, 5][..], 1)] {
                factor_rows(&mut l, stride, from..changed.len(), |r, s| {
                    g(changed[r], changed[s])
                })
                .unwrap();
                assert_eq!(
                    lower(&l, stride, changed.len()),
                    one_call(changed, t),
                    "rows {from}.. redone, stride {stride}"
                );
            }
        }
    }

    #[test]
    fn gram_matrix_of_full_rank_basis_is_spd() {
        let u = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 2.0]]);
        let g = u.gram();
        let ch = CholeskyDecomposition::new(&g).unwrap();
        assert!(ch.det() > 0.0);
    }
}
