//! Orthonormalisation and orthogonal-subspace projection.
//!
//! ATDCA (Algorithm 2 of the paper) repeatedly applies the
//! orthogonal-subspace projector `P_U^⊥ = I − U(UᵀU)⁻¹Uᵀ` to every pixel
//! vector. Building the explicit `N × N` projector costs `O(N²)` per pixel
//! to apply; instead we maintain an orthonormal basis `Q` of `span(U)` with
//! modified Gram–Schmidt and apply `P_U^⊥ x = x − Q(Qᵀx)` in `O(tN)` where
//! `t = |U| ≪ N`. The explicit form lives in the tests, which assert the
//! two agree.

use crate::matrix::{axpy, dot, dots_abreast, missing_dots, norm2};
use crate::Matrix;

/// Relative tolerance under which a vector is considered linearly dependent
/// on the existing basis and is dropped.
const DEPENDENCE_TOL: f64 = 1e-10;

/// Incrementally-built orthonormal basis of a growing span of vectors.
///
/// This mirrors ATDCA's use pattern: targets are discovered one at a time
/// and appended with [`OrthoBasis::push`].
#[derive(Debug, Clone, Default)]
pub struct OrthoBasis {
    /// Orthonormal vectors, one per row.
    q: Vec<Vec<f64>>,
    dim: usize,
}

impl OrthoBasis {
    /// An empty basis over vectors of length `dim`.
    pub fn new(dim: usize) -> Self {
        OrthoBasis { q: Vec::new(), dim }
    }

    /// Builds a basis from the rows of `u` (dependent rows are skipped).
    pub fn from_rows(u: &Matrix) -> Self {
        let mut basis = OrthoBasis::new(u.cols());
        for r in 0..u.rows() {
            basis.push(u.row(r));
        }
        basis
    }

    /// Number of orthonormal vectors currently held.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// `true` when the basis holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow of the `i`-th orthonormal vector.
    pub fn vector(&self, i: usize) -> &[f64] {
        &self.q[i]
    }

    /// Orthonormalises `v` against the basis (modified Gram–Schmidt with
    /// one reorthogonalisation pass) and appends it. Returns `true` when
    /// the vector enlarged the span, `false` when it was (numerically)
    /// dependent and was dropped.
    ///
    /// # Panics
    /// Panics if `v.len() != self.dim()`.
    pub fn push(&mut self, v: &[f64]) -> bool {
        assert_eq!(v.len(), self.dim, "push: wrong vector length");
        let scale = norm2(v);
        if scale == 0.0 {
            return false;
        }
        let mut w = v.to_vec();
        // Two MGS passes ("twice is enough" — Kahan/Parlett) for stability.
        for _ in 0..2 {
            for q in &self.q {
                let c = dot(&w, q);
                axpy(-c, q, &mut w);
            }
        }
        let n = norm2(&w);
        if n <= DEPENDENCE_TOL * scale {
            return false;
        }
        let inv = 1.0 / n;
        for x in &mut w {
            *x *= inv;
        }
        self.q.push(w);
        true
    }

    /// This basis with `v` pushed ([`OrthoBasis::push`]), built at its
    /// final size: the vectors are copied into a list with room for
    /// exactly one more, so a pushed copy keeps no spare capacity.
    pub fn with_pushed(&self, v: &[f64]) -> OrthoBasis {
        let mut q = Vec::with_capacity(self.q.len() + 1);
        q.extend(self.q.iter().cloned());
        let mut grown = OrthoBasis { q, dim: self.dim };
        grown.push(v);
        grown
    }

    /// Applies the **orthogonal-complement** projector:
    /// `out = (I − QQᵀ) x = P_U^⊥ x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.dim()`.
    pub fn project_complement(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "project_complement: wrong length");
        let mut out = x.to_vec();
        self.project_complement_into(&mut out);
        out
    }

    /// In-place variant of [`Self::project_complement`]; `buf` holds `x` on
    /// entry and `P_U^⊥ x` on exit. Avoids allocation in hot loops.
    #[inline]
    pub fn project_complement_into(&self, buf: &mut [f64]) {
        for q in &self.q {
            let c = dot(buf, q);
            axpy(-c, q, buf);
        }
    }

    /// Squared norm of the complement projection — the ATDCA per-pixel score
    /// `(P_U^⊥ x)ᵀ (P_U^⊥ x)` — computed without materialising the
    /// projected vector: `‖x‖² − Σ (qᵢᵀx)²` by the Pythagorean theorem.
    #[inline]
    pub fn complement_score(&self, x: &[f64]) -> f64 {
        let [residual] = self.residual_from([x], 0, [dot(x, x)]);
        // Guard the tiny negative residuals of floating-point cancellation.
        residual.max(0.0)
    }

    /// The running sums behind [`Self::complement_score`], continued, for
    /// `L` pixels abreast (`f32` or `f64`): given
    /// `residuals[k] = ‖xₖ‖² − Σ_{i<seen} (qᵢᵀxₖ)²` it subtracts the terms
    /// of vectors `seen..len()`, left to right, and returns the
    /// **unclamped** sums. A basis only ever appends, so a caller that
    /// keeps each pixel's residual between pushes pays one dot per new
    /// vector and gets the bits `complement_score` computes from scratch —
    /// same operands, same order, whatever `L`; clamp the value you rank
    /// by, keep the one you carry.
    #[inline]
    pub fn residual_from<T: Copy + Into<f64>, const L: usize>(
        &self,
        xs: [&[T]; L],
        seen: usize,
        residuals: [f64; L],
    ) -> [f64; L] {
        let mut s = residuals;
        for q in &self.q[seen..] {
            let c = dots_abreast(xs, [q.as_slice(); L]);
            for (s, c) in s.iter_mut().zip(c) {
                *s -= c * c;
            }
        }
        s
    }

    /// [`Self::residual_from`] for up to four pixels each continued from
    /// its own depth: `residuals[k]` covers the first `seen[k]` vectors on
    /// entry and the whole basis on exit. The missing dots are formed four
    /// chains abreast ([`missing_dots`]) and subtracted in vector order,
    /// so each sum has the bits `residual_from` gives that pixel alone.
    pub fn continue_residuals<T: Copy + Into<f64>>(
        &self,
        xs: &[&[T]],
        seen: &[usize],
        residuals: &mut [f64],
    ) {
        missing_dots(
            xs,
            seen,
            self.len(),
            |i| &self.q[i],
            |k, _, c| {
                residuals[k] -= c * c;
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuDecomposition;
    use crate::Result;

    /// Builds the explicit orthogonal-subspace projector
    /// `P_U^⊥ = I − Uᵀ(UUᵀ)⁻¹U` for an endmember matrix whose **rows** are the
    /// signatures (the paper's `U` is `t × N`, one target per row).
    ///
    /// This is the literal textbook operator — `O(N²)` storage and apply —
    /// that [`OrthoBasis`] is checked against.
    fn explicit_projector(u: &Matrix) -> Result<Matrix> {
        u.require_non_empty()?;
        let n = u.cols();
        // UUᵀ is t × t (small); invert with LU.
        let uut = u.matmul(&u.transpose())?;
        let inv = LuDecomposition::new(&uut)?.inverse()?;
        // P = I − Uᵀ (UUᵀ)⁻¹ U
        let ut = u.transpose();
        let m = ut.matmul(&inv)?.matmul(u)?;
        let mut p = Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                p[(i, j)] -= m[(i, j)];
            }
        }
        Ok(p)
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn basis_orthonormality() {
        let mut basis = OrthoBasis::new(3);
        assert!(basis.push(&[1.0, 1.0, 0.0]));
        assert!(basis.push(&[1.0, 0.0, 1.0]));
        assert_eq!(basis.len(), 2);
        for i in 0..2 {
            assert!((norm2(basis.vector(i)) - 1.0).abs() < 1e-12);
        }
        assert!(dot(basis.vector(0), basis.vector(1)).abs() < 1e-12);
    }

    #[test]
    fn dependent_vector_dropped() {
        let mut basis = OrthoBasis::new(3);
        assert!(basis.push(&[1.0, 2.0, 3.0]));
        assert!(!basis.push(&[2.0, 4.0, 6.0]));
        assert!(!basis.push(&[0.0, 0.0, 0.0]));
        assert_eq!(basis.len(), 1);
    }

    /// A pushed copy is the pushed original to the bit, and holds no
    /// spare room: its list has exactly its vectors, each exactly `dim`.
    #[test]
    fn with_pushed_is_push_at_the_final_size() {
        let mut basis = OrthoBasis::new(3);
        basis.push(&[1.0, 1.0, 0.0]);
        let grown = basis.with_pushed(&[1.0, 0.0, 1.0]);
        basis.push(&[1.0, 0.0, 1.0]);
        assert_eq!(grown.q, basis.q);
        assert_eq!(grown.q.capacity(), 2);
        assert!(grown.q.iter().all(|v| v.capacity() == 3));
        // A dependent vector is dropped from the copy as well.
        assert_eq!(grown.with_pushed(&[2.0, 2.0, 0.0]).len(), 2);
    }

    #[test]
    fn complement_of_basis_member_is_zero() {
        let mut basis = OrthoBasis::new(3);
        basis.push(&[0.0, 3.0, 4.0]);
        let p = basis.project_complement(&[0.0, 3.0, 4.0]);
        assert!(norm2(&p) < 1e-10);
        assert!(basis.complement_score(&[0.0, 3.0, 4.0]) < 1e-10);
    }

    #[test]
    fn complement_orthogonal_to_span() {
        let mut basis = OrthoBasis::new(4);
        basis.push(&[1.0, 0.5, 0.0, 2.0]);
        basis.push(&[0.0, 1.0, 1.0, 0.0]);
        let x = [3.0, -1.0, 2.0, 0.5];
        let p = basis.project_complement(&x);
        for i in 0..basis.len() {
            assert!(dot(&p, basis.vector(i)).abs() < 1e-10);
        }
        // Score equals squared norm of the projected vector.
        assert!((basis.complement_score(&x) - dot(&p, &p)).abs() < 1e-10);
    }

    #[test]
    fn matches_explicit_projector() {
        let u = Matrix::from_rows(&[&[1.0, 2.0, 0.0, 1.0], &[0.0, 1.0, 1.0, 3.0]]);
        let p = explicit_projector(&u).unwrap();
        let basis = OrthoBasis::from_rows(&u);
        let x = [0.3, -1.2, 2.0, 0.7];
        let via_matrix = p.matvec(&x).unwrap();
        let via_basis = basis.project_complement(&x);
        assert_close(&via_matrix, &via_basis, 1e-10);
    }

    #[test]
    fn explicit_projector_is_idempotent_and_symmetric() {
        let u = Matrix::from_rows(&[&[2.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]);
        let p = explicit_projector(&u).unwrap();
        let pp = p.matmul(&p).unwrap();
        assert!(pp.approx_eq(&p, 1e-10));
        assert!(p.is_symmetric(1e-10));
        // P annihilates rows of U.
        let px = p.matvec(u.row(0)).unwrap();
        assert!(norm2(&px) < 1e-10);
    }

    #[test]
    fn empty_basis_is_identity_projection() {
        let basis = OrthoBasis::new(3);
        let x = [1.0, 2.0, 3.0];
        assert_close(&basis.project_complement(&x), &x, 0.0);
        assert!((basis.complement_score(&x) - dot(&x, &x)).abs() < 1e-12);
    }

    #[test]
    fn residual_continued_across_pushes_equals_from_scratch_bits() {
        let rows: [&[f64]; 4] = [
            &[0.9, 0.1, 0.4, 0.7, 0.2],
            &[0.2, 0.8, 0.3, 0.1, 0.6],
            &[1.8, 0.2, 0.8, 1.4, 0.4], // dependent on row 0: dropped
            &[0.5, 0.5, 0.9, 0.3, 0.1],
        ];
        let x = [0.31, 0.77, 0.12, 0.58, 0.93];
        let mut basis = OrthoBasis::new(5);
        let (mut seen, mut carried) = (0, dot(&x, &x));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(basis.push(row), i != 2);
            [carried] = basis.residual_from([&x[..]], seen, [carried]);
            seen = basis.len();
            assert_eq!(
                carried.max(0.0).to_bits(),
                basis.complement_score(&x).to_bits(),
                "after push {i}"
            );
        }
        assert_eq!(seen, 3);
    }

    /// Four pixels at four depths, continued together or one at a time,
    /// in either of `missing_dots`' layouts: each sum has the bits
    /// `residual_from` gives that pixel alone.
    #[test]
    fn residuals_continued_from_their_own_depths_keep_the_bits() {
        let n = 7;
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                (0..n)
                    .map(|b| 0.1 + ((3 * i + 5 * b) % 11) as f64 / 7.0)
                    .collect()
            })
            .collect();
        let mut basis = OrthoBasis::new(n);
        for row in &rows {
            basis.push(row);
        }
        let k = basis.len();
        let pixels: Vec<Vec<f32>> = (0..4)
            .map(|p| (0..n).map(|b| ((p * 7 + b * 3) % 5) as f32 / 3.0).collect())
            .collect();
        let xs: Vec<&[f32]> = pixels.iter().map(|x| x.as_slice()).collect();
        let norm = |x: &[f32]| dots_abreast([x], [x])[0];
        let alone = |x: &[f32], seen: usize| {
            let [start] = basis.residual_from([x], 0, [norm(x)]);
            let [seen_sum] = OrthoBasis {
                q: basis.q[..seen].to_vec(),
                dim: n,
            }
            .residual_from([x], 0, [norm(x)]);
            let [resumed] = basis.residual_from([x], seen, [seen_sum]);
            assert_eq!(start.to_bits(), resumed.to_bits());
            (seen_sum, start)
        };
        for seen in [[k - 1; 4], [0, 1, k - 1, k], [2, 0, 5, 3], [k; 4]] {
            let want: Vec<(f64, f64)> = xs.iter().zip(seen).map(|(x, d)| alone(x, d)).collect();
            let mut sums: Vec<f64> = want.iter().map(|w| w.0).collect();
            basis.continue_residuals(&xs, &seen, &mut sums);
            for one in 0..4 {
                let mut sum = [want[one].0];
                basis.continue_residuals(&xs[one..=one], &seen[one..=one], &mut sum);
                assert_eq!(sum[0].to_bits(), want[one].1.to_bits(), "{seen:?}, alone");
                assert_eq!(sums[one].to_bits(), want[one].1.to_bits(), "{seen:?}");
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// ATDCA prunes a pixel by its stale residual with no margin: the
        /// carried sum is updated by `s −= c·c` with `c·c ≥ 0` and
        /// rounding is monotone, so every vector a basis takes in —
        /// near-dependent ones included — leaves it at most where it was,
        /// bit for bit (a NaN pixel's stays NaN), on zero and NaN pixels
        /// too.
        #[test]
        fn a_carried_residual_never_rises(
            n in 1usize..12,
            vals in proptest::collection::vec(-1.0f64..1.0, 12 * 12),
            pixel_vals in proptest::collection::vec(-2.0f32..2.0, 6 * 12),
            near in 1e-12f64..1e-6,
        ) {
            let rows: Vec<Vec<f64>> = vals.chunks(12).map(|c| c[..n].to_vec()).collect();
            let mut pixels: Vec<Vec<f32>> =
                pixel_vals.chunks(12).map(|c| c[..n].to_vec()).collect();
            pixels[0].fill(0.0);
            pixels[1][n / 2] = f32::NAN;
            let mut basis = OrthoBasis::new(n);
            let mut carried: Vec<f64> = pixels.iter().map(|x| dots_abreast([x], [x])[0]).collect();
            for (i, row) in rows.iter().enumerate() {
                // Every other vector is a near-twin of the one before it.
                let v: Vec<f64> = match i % 2 {
                    1 => rows[i - 1].iter().zip(row).map(|(a, b)| a + near * b).collect(),
                    _ => row.clone(),
                };
                let seen = basis.len();
                basis.push(&v);
                for (x, sum) in pixels.iter().zip(carried.iter_mut()) {
                    let [next] = basis.residual_from([x.as_slice()], seen, [*sum]);
                    prop_assert!(
                        next <= *sum || (next.is_nan() && sum.is_nan()),
                        "{next:e} > {sum:e} after vector {i}"
                    );
                    *sum = next;
                }
            }
        }
    }

    #[test]
    fn from_rows_skips_dependent() {
        let u = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0], &[0.0, 1.0]]);
        let basis = OrthoBasis::from_rows(&u);
        assert_eq!(basis.len(), 2);
    }
}
