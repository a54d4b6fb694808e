//! Symmetric eigendecomposition: Householder tridiagonalisation followed
//! by implicit-shift QL (the EISPACK `tred2`/`tql2` pair).
//!
//! The principal component transform (Algorithm 4, step 7 of the paper)
//! needs the eigenvectors of an `N × N` covariance matrix (`N = 224`
//! spectral bands), sorted by descending eigenvalue. The reduction costs
//! `O(N³)` once and every QL iteration only `O(N²)`, and all inner loops
//! run along contiguous rows (the matrix is kept fully symmetric so that
//! `A·u` and the rank-2 update are row operations; eigenvectors are
//! accumulated as rows, so each plane rotation touches two rows).
//!
//! This is the *host's* solver. The virtual clock keeps charging the
//! modelled 2006 master's cost (`hetero_hsi::flops::jacobi_eigen`).

use crate::error::shape_mismatch;
use crate::matrix::axpy;
use crate::{LinAlgError, Matrix, Result};

/// QL iterations allowed per eigenvalue before declaring non-convergence
/// (the EISPACK budget; two or three are typical).
const MAX_QL_ITERATIONS: usize = 30;

/// Result of a symmetric eigendecomposition: `A = V · diag(λ) · Vᵀ`.
///
/// Eigenpairs are sorted by **descending** eigenvalue, matching the PCT's
/// convention that the first principal component carries the most variance.
///
/// ```
/// use hsi_linalg::{Matrix, eigen::SymmetricEigen};
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let e = SymmetricEigen::new(&a).unwrap();
/// assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
/// assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in descending order.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors as **rows** (row `i` pairs with `eigenvalues[i]`), so
    /// `eigenvectors.matvec(x)` projects `x` onto the principal axes.
    pub eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Decomposes a symmetric matrix.
    ///
    /// `a` must be square; symmetry is enforced by averaging `a` with its
    /// transpose first (cheap insurance against accumulation asymmetries in
    /// covariance sums). Equal eigenvalues keep their order of appearance
    /// and every eigenvector has its first non-negligible component
    /// positive, so the result is a pure function of `a`. Returns
    /// [`LinAlgError::NoConvergence`] if one eigenvalue has not separated
    /// after `MAX_QL_ITERATIONS` (30) QL iterations — which for finite
    /// symmetric input effectively cannot happen.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(shape_mismatch(
                "square matrix",
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        a.require_non_empty()?;
        let n = a.rows();

        // Work on the symmetrised copy.
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
            }
        }
        let mut lambda = vec![0.0; n];
        let mut off = vec![0.0; n];
        let mut v = tridiagonalise(&mut m, &mut lambda, &mut off);
        ql_implicit(&mut lambda, &mut off, &mut v)?;

        // Sort eigenpairs by descending eigenvalue. Sorting is stable with
        // an index tiebreak so results are fully deterministic.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| {
            lambda[j]
                .partial_cmp(&lambda[i])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(i.cmp(&j))
        });
        let mut eigenvalues = Vec::with_capacity(n);
        // The reduction's scratch is dead by now: it becomes the output, so
        // a decomposition never holds more than two `n × n` work matrices.
        let mut eigenvectors = m;
        for (row, &idx) in order.iter().enumerate() {
            eigenvalues.push(lambda[idx]);
            // Canonical sign: first nonzero component positive, so that the
            // decomposition is unique and reproducible across platforms.
            let src = v.row(idx);
            let sign = src
                .iter()
                .find(|x| x.abs() > 1e-12)
                .map(|x| x.signum())
                .unwrap_or(1.0);
            for (dst, &val) in eigenvectors.row_mut(row).iter_mut().zip(src) {
                *dst = sign * val;
            }
        }
        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Number of eigenpairs.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// The `k × n` transformation matrix formed by the top-`k` eigenvectors
    /// (the PCT's `T`). Errors when `k > n`.
    pub fn principal_transform(&self, k: usize) -> Result<Matrix> {
        if k > self.dim() {
            return Err(shape_mismatch(
                format!("k <= {}", self.dim()),
                format!("k = {k}"),
            ));
        }
        let n = self.dim();
        let mut t = Matrix::zeros(k, n);
        for i in 0..k {
            t.row_mut(i).copy_from_slice(self.eigenvectors.row(i));
        }
        Ok(t)
    }
}

/// Householder reduction of the symmetric `m` to tridiagonal form
/// `T = Qᵀ·m·Q` (EISPACK `tred2`).
///
/// On return `diag` holds `T`'s diagonal, `off[i]` (`i ≥ 1`) the entry
/// coupling `i − 1` and `i` (`off[0] = 0`), and the result is `Qᵀ`, one
/// transformed basis vector per row. `m` is consumed as scratch.
///
/// Step `i` (from the last row up) reflects coordinates `0..i` so that row
/// `i` keeps only its sub-diagonal entry. Both triangles of the leading
/// block are updated — twice the arithmetic of a one-triangle update, but
/// every inner loop is then an element-wise pass along a row, and the two
/// triangles stay bit-for-bit mirror images (the update term is the same
/// expression with its commutative operands swapped).
fn tridiagonalise(m: &mut Matrix, diag: &mut [f64], off: &mut [f64]) -> Matrix {
    let n = m.rows();
    // `h[i] = uᵀu / 2` of step `i`'s reflector `I − u·uᵀ/h`, whose vector
    // `u` is left in `m[i][..i]`; zero where the row needed no reflection.
    let mut h = vec![0.0; n];
    let mut p = vec![0.0; n];
    for i in (1..n).rev() {
        let (block, rest) = m.as_mut_slice().split_at_mut(i * n);
        let u = &mut rest[..i];
        let scale: f64 = u.iter().map(|x| x.abs()).sum();
        if i == 1 || scale == 0.0 {
            off[i] = u[i - 1];
            continue;
        }
        let mut norm_sq = 0.0;
        for x in u.iter_mut() {
            *x /= scale;
            norm_sq += *x * *x;
        }
        let f = u[i - 1];
        let g = if f >= 0.0 {
            -norm_sq.sqrt()
        } else {
            norm_sq.sqrt()
        };
        off[i] = scale * g;
        h[i] = norm_sq - f * g;
        u[i - 1] = f - g;
        let u = &*u;

        // p = A·u / h, summed row by row (A is symmetric, so Σₖ uₖ·rowₖ).
        let p = &mut p[..i];
        p.fill(0.0);
        for (k, &uk) in u.iter().enumerate() {
            axpy(uk, &block[k * n..k * n + i], p);
        }
        let mut up = 0.0;
        for (pj, &uj) in p.iter_mut().zip(u) {
            *pj /= h[i];
            up += uj * *pj;
        }
        // q = p − (uᵀp / 2h)·u, then A ← A − u·qᵀ − q·uᵀ.
        let half = up / (h[i] + h[i]);
        axpy(-half, u, p);
        let q = &*p;
        for j in 0..i {
            let (uj, qj) = (u[j], q[j]);
            for ((ajk, &uk), &qk) in block[j * n..j * n + i].iter_mut().zip(u).zip(q) {
                *ajk -= uj * qk + qj * uk;
            }
        }
    }
    off[0] = 0.0;
    for (i, d) in diag.iter_mut().enumerate() {
        *d = m[(i, i)];
    }

    // Q = P_{n−1}···P_1, built from the inside out so that step `i` only
    // touches the leading `i × i` block; its transpose (taken in place) is
    // returned.
    let mut q = Matrix::identity(n);
    let mut w = vec![0.0; n];
    for i in 2..n {
        if h[i] == 0.0 {
            continue;
        }
        let u = &m.row(i)[..i];
        let w = &mut w[..i];
        w.fill(0.0);
        for (r, &ur) in u.iter().enumerate() {
            axpy(ur, &q.row(r)[..i], w);
        }
        for (r, &ur) in u.iter().enumerate() {
            axpy(-ur / h[i], w, &mut q.row_mut(r)[..i]);
        }
    }
    let cells = q.as_mut_slice();
    for r in 0..n {
        for c in r + 1..n {
            cells.swap(r * n + c, c * n + r);
        }
    }
    q
}

/// Implicit-shift QL on the tridiagonal matrix (`diag`, `off` as left by
/// [`tridiagonalise`]), applying every plane rotation to two rows of `v`.
/// On success `diag` holds the eigenvalues (unsorted) and row `i` of `v`
/// the eigenvector of `diag[i]`.
fn ql_implicit(diag: &mut [f64], off: &mut [f64], v: &mut Matrix) -> Result<()> {
    let n = diag.len();
    // Renumber so that off[i] couples i and i + 1.
    off.copy_within(1.., 0);
    off[n - 1] = 0.0;
    for l in 0..n {
        let mut iterations = 0;
        loop {
            // The first negligible coupling at or after `l` splits the
            // matrix; when it is at `l` itself, diag[l] has converged.
            let m = (l..n - 1)
                .find(|&m| off[m].abs() <= f64::EPSILON * (diag[m].abs() + diag[m + 1].abs()))
                .unwrap_or(n - 1);
            if m == l {
                break;
            }
            if iterations == MAX_QL_ITERATIONS {
                return Err(LinAlgError::NoConvergence { iterations });
            }
            iterations += 1;

            // Wilkinson shift from the leading 2×2 of the unreduced block.
            let mut g = (diag[l + 1] - diag[l]) / (2.0 * off[l]);
            let r = g.hypot(1.0);
            g = diag[m] - diag[l] + off[l] / (g + r.copysign(g));
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * off[i];
                let b = c * off[i];
                let r = f.hypot(g);
                off[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: skip the rest of this chase.
                    diag[i + 1] -= p;
                    off[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = diag[i + 1] - p;
                let r = (diag[i] - g) * s + 2.0 * c * b;
                p = s * r;
                diag[i + 1] = g + p;
                g = c * r - b;

                let (upper, lower) = v.as_mut_slice().split_at_mut((i + 1) * n);
                for (vi, vj) in upper[i * n..].iter_mut().zip(&mut lower[..n]) {
                    let t = *vj;
                    *vj = s * *vi + c * t;
                    *vi = c * *vi - s * t;
                }
            }
            if underflow {
                continue;
            }
            diag[l] -= p;
            off[l] = g;
            off[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenpairs() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = e.eigenvectors.row(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((v0[0] - v0[1]).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_identity() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 1.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        // A ≈ Vᵀ diag(λ) V with V rows = eigenvectors.
        let v = &e.eigenvectors;
        let mut d = Matrix::zeros(3, 3);
        for i in 0..3 {
            d[(i, i)] = e.eigenvalues[i];
        }
        let recon = v.transpose().matmul(&d).unwrap().matmul(v).unwrap();
        assert!(recon.approx_eq(&a, 1e-10));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Matrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 3.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        let vvt = e.eigenvectors.matmul(&e.eigenvectors.transpose()).unwrap();
        assert!(vvt.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((sum - a.trace().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn descending_order() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 5.0, 0.0], &[0.0, 0.0, 3.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_eq!(e.eigenvalues.len(), 3);
        assert!(e.eigenvalues[0] >= e.eigenvalues[1]);
        assert!(e.eigenvalues[1] >= e.eigenvalues[2]);
    }

    #[test]
    fn principal_transform_shape() {
        let a = Matrix::identity(4);
        let e = SymmetricEigen::new(&a).unwrap();
        let t = e.principal_transform(2).unwrap();
        assert_eq!(t.shape(), (2, 4));
        assert!(e.principal_transform(5).is_err());
    }

    #[test]
    fn moderate_size_random_symmetric() {
        // 40x40 symmetric matrix from a deterministic LCG.
        let n = 40;
        let mut state: u64 = 7;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let e = SymmetricEigen::new(&a).unwrap();
        // Check A v = λ v for the extreme pairs.
        for idx in [0, n - 1] {
            let v = e.eigenvectors.row(idx).to_vec();
            let av = a.matvec(&v).unwrap();
            for (p, q) in av.iter().zip(v.iter()) {
                assert!((p - e.eigenvalues[idx] * q).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(
            SymmetricEigen::new(&Matrix::zeros(0, 0)),
            Err(LinAlgError::Empty)
        ));
    }
}
