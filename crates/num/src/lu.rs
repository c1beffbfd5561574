//! Dense LU factorization with partial pivoting and sparse triangular
//! solves.
//!
//! Circuit matrices produced by modified nodal analysis are small (tens of
//! unknowns for one DRAM column) but must be factored thousands of times per
//! transient run, so the factorization is written for predictable, in-place
//! performance rather than generality. They are also sparse: the 42-unknown
//! column's L and U factors hold about a third of the dense entries. The
//! factorization therefore records each row's nonzero columns of L and U
//! as it goes, and the elimination and both substitutions loop over those
//! lists only. Every skipped term is a product with an exact zero, so the
//! results are bit-identical to the dense loops (DESIGN.md §11).

use crate::matrix::DMatrix;
use crate::NumError;

/// Pivot magnitudes below this are treated as singular.
pub const SINGULARITY_THRESHOLD: f64 = 1e-13;

/// The nonzero entries of one triangle (strict L or strict U) of a
/// factorization, row by row, columns ascending (compressed sparse rows).
#[derive(Debug, Clone, Default)]
struct Triangle {
    /// Row `i` occupies `cols[ptr[i]..ptr[i + 1]]` and the same range of
    /// `vals`.
    ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl Triangle {
    /// Sizes the buffers for an `n`×`n` factor: room for every strict
    /// triangle entry, so recording never reallocates.
    fn reserve(&mut self, n: usize) {
        let cap = n * n.saturating_sub(1) / 2;
        self.ptr.resize(n + 1, 0);
        self.cols.resize(cap, 0);
        self.vals.resize(cap, 0.0);
    }

    /// Records row `i` from the dense `row` entries `cols_range`, keeping
    /// the nonzero ones. Branchless: every entry is written at the next
    /// free position, and the position only advances past a nonzero.
    fn record(&mut self, i: usize, row: &[f64], cols_range: std::ops::Range<usize>) {
        let mut pos = self.ptr[i];
        for j in cols_range {
            let v = row[j];
            // `pos` stays below the number of entries seen so far, which
            // the buffers (sized for the whole triangle) always exceed.
            self.cols[pos] = j;
            self.vals[pos] = v;
            pos += usize::from(v != 0.0);
        }
        self.ptr[i + 1] = pos;
    }

    /// `sum − Σ vals·x[cols]` over row `i`, in ascending column order.
    #[inline]
    fn subtract_row(&self, i: usize, mut sum: f64, x: &[f64]) -> f64 {
        let range = self.ptr[i]..self.ptr[i + 1];
        for (&j, &v) in self.cols[range.clone()].iter().zip(&self.vals[range]) {
            sum -= v * x[j];
        }
        sum
    }
}

/// An LU factorization `P·A = L·U` of a square matrix, with partial
/// pivoting.
///
/// # Example
///
/// ```
/// use dso_num::{matrix::DMatrix, lu::LuFactor};
///
/// # fn main() -> Result<(), dso_num::NumError> {
/// let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = LuFactor::new(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// // Verify A x = b.
/// let b = a.mul_vec(&x)?;
/// assert!((b[0] - 3.0).abs() < 1e-12 && (b[1] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    /// Combined L (below diagonal, unit diagonal implied) and U (on and
    /// above the diagonal), row-major.
    lu: Vec<f64>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Dimension of a valid factorization; `0` while none is held (empty,
    /// or the last refactor failed).
    n: usize,
    /// Sign of the permutation, for the determinant.
    perm_sign: f64,
    /// Nonzeros of the strict lower triangle (L without its unit diagonal).
    lower: Triangle,
    /// Nonzeros of the strict upper triangle (U without its diagonal).
    upper: Triangle,
}

impl LuFactor {
    /// Factorizes `a` with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`NumError::ShapeMismatch`] if `a` is not square.
    /// * [`NumError::SingularMatrix`] if a pivot smaller than
    ///   [`SINGULARITY_THRESHOLD`] (relative to the matrix scale) is hit.
    /// * [`NumError::NonFinite`] if `a` contains NaN or infinity.
    pub fn new(a: &DMatrix) -> Result<Self, NumError> {
        let mut f = LuFactor::empty();
        f.refactor_into(a)?;
        Ok(f)
    }

    /// An empty (0×0) factorization, used as reusable storage for
    /// [`LuFactor::refactor_into`].
    pub fn empty() -> Self {
        LuFactor {
            lu: Vec::new(),
            perm: Vec::new(),
            n: 0,
            perm_sign: 1.0,
            lower: Triangle::default(),
            upper: Triangle::default(),
        }
    }

    /// Refactorizes `a`, reusing this factorization's buffers. Once the
    /// stored buffers match `a`'s dimension (e.g. after a first
    /// [`LuFactor::new`] or `refactor_into` of the same size), this performs
    /// no heap allocation, whatever `a`'s sparsity pattern — the
    /// per-timestep path of a transient simulation depends on that.
    ///
    /// # Errors
    ///
    /// Same contract as [`LuFactor::new`]. On error no factorization is
    /// held: [`LuFactor::dim`] reads `0` until the next successful
    /// refactor, so no caller can solve against a half-eliminated factor.
    pub fn refactor_into(&mut self, a: &DMatrix) -> Result<(), NumError> {
        self.n = 0;
        if !a.is_square() {
            return Err(NumError::ShapeMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        if !a.is_finite() {
            return Err(NumError::NonFinite {
                context: "LU input matrix".into(),
            });
        }
        self.eliminate(a)?;
        self.n = a.rows();
        Ok(())
    }

    /// Gaussian elimination with partial pivoting of `a` into the stored
    /// buffers, recording each row's L and U nonzeros as the row becomes
    /// final (right after it is chosen as pivot row).
    fn eliminate(&mut self, a: &DMatrix) -> Result<(), NumError> {
        let n = a.rows();
        self.lu.clear();
        self.lu.extend_from_slice(a.as_slice());
        self.perm.clear();
        self.perm.extend(0..n);
        self.perm_sign = 1.0;
        self.lower.reserve(n);
        self.upper.reserve(n);
        let lu = &mut self.lu;
        let perm = &mut self.perm;
        let scale = a.max_abs().max(1.0);
        let threshold = SINGULARITY_THRESHOLD * scale;

        for k in 0..n {
            // Partial pivoting: pick the largest magnitude in column k.
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < threshold {
                return Err(NumError::SingularMatrix {
                    column: k,
                    pivot: pivot_val,
                });
            }
            if pivot_row != k {
                for j in 0..n {
                    lu.swap(k * n + j, pivot_row * n + j);
                }
                perm.swap(k, pivot_row);
                self.perm_sign = -self.perm_sign;
            }
            // Row k is now final: its L part was written by earlier steps
            // and its U part is never touched again.
            let row_k = &lu[k * n..(k + 1) * n];
            self.lower.record(k, row_k, 0..k);
            self.upper.record(k, row_k, k + 1..n);
            let pivot = lu[k * n + k];
            let (u_lo, u_hi) = (self.upper.ptr[k], self.upper.ptr[k + 1]);
            let u_cols = &self.upper.cols[u_lo..u_hi];
            let u_vals = &self.upper.vals[u_lo..u_hi];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                if factor != 0.0 {
                    // Only the pivot row's nonzero columns change row i.
                    let row_i = &mut lu[i * n..(i + 1) * n];
                    for (&j, &u) in u_cols.iter().zip(u_vals) {
                        row_i[j] -= factor * u;
                    }
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix, or `0` if no factorization is
    /// held.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumError> {
        if b.len() != self.n {
            return Err(NumError::ShapeMismatch {
                expected: format!("vector of length {}", self.n),
                found: format!("vector of length {}", b.len()),
            });
        }
        let mut x = vec![0.0; self.n];
        self.solve_in_place(b, &mut x);
        Ok(x)
    }

    /// Solves `A·x = b`, writing the solution into `x` without allocating.
    /// Both substitutions visit only the recorded nonzeros of L and U, in
    /// the ascending column order of a dense substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()` or `x.len() != self.dim()`.
    pub fn solve_in_place(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        assert_eq!(x.len(), n, "solution length mismatch");
        // Forward substitution with permuted rhs: L·y = P·b.
        for i in 0..n {
            x[i] = self.lower.subtract_row(i, b[self.perm[i]], x);
        }
        // Back substitution: U·x = y.
        for i in (0..n).rev() {
            x[i] = self.upper.subtract_row(i, x[i], x) / self.lu[i * n + i];
        }
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.n {
            det *= self.lu[i * self.n + i];
        }
        det
    }

    /// A cheap condition estimate: ratio of largest to smallest absolute
    /// pivot. Large values indicate an ill-conditioned system.
    pub fn pivot_ratio(&self) -> f64 {
        let mut max = 0.0_f64;
        let mut min = f64::INFINITY;
        for i in 0..self.n {
            let p = self.lu[i * self.n + i].abs();
            max = max.max(p);
            min = min.min(p);
        }
        if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }
}

/// Convenience: factor `a` and solve `a·x = b` in one call.
///
/// # Errors
///
/// Propagates the errors of [`LuFactor::new`] and [`LuFactor::solve`].
pub fn solve(a: &DMatrix, b: &[f64]) -> Result<Vec<f64>, NumError> {
    LuFactor::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::norm_inf;

    fn residual(a: &DMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x).unwrap();
        norm_inf(&ax.iter().zip(b).map(|(l, r)| l - r).collect::<Vec<f64>>())
    }

    #[test]
    fn solve_2x2() {
        let a = DMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = [1.0, 2.0];
        let x = solve(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal: succeeds only with pivoting.
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn singular_reported() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let err = LuFactor::new(&a).unwrap_err();
        assert!(matches!(err, NumError::SingularMatrix { .. }));
    }

    #[test]
    fn non_square_rejected() {
        let a = DMatrix::zeros(2, 3);
        assert!(matches!(
            LuFactor::new(&a),
            Err(NumError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn nan_rejected() {
        let mut a = DMatrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(LuFactor::new(&a), Err(NumError::NonFinite { .. })));
    }

    #[test]
    fn determinant_of_known_matrix() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        assert!((lu.determinant() - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn determinant_of_identity_is_one() {
        let lu = LuFactor::new(&DMatrix::identity(5)).unwrap();
        assert!((lu.determinant() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a =
            DMatrix::from_rows(&[&[3.0, -1.0, 2.0], &[1.0, 4.0, 0.5], &[-2.0, 1.0, 5.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        let b = [1.0, -2.0, 0.25];
        let x1 = lu.solve(&b).unwrap();
        let mut x2 = vec![0.0; 3];
        lu.solve_in_place(&b, &mut x2);
        assert_eq!(x1, x2);
        assert!(residual(&a, &x1, &b) < 1e-12);
    }

    #[test]
    fn refactor_into_matches_new_and_reuses_buffers() {
        let a = DMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = DMatrix::from_rows(&[&[0.0, 2.0], &[5.0, -1.0]]).unwrap();
        let mut f = LuFactor::new(&a).unwrap();
        f.refactor_into(&b).unwrap();
        let fresh = LuFactor::new(&b).unwrap();
        assert_eq!(f.lu, fresh.lu);
        assert_eq!(f.perm, fresh.perm);
        assert_eq!(f.determinant(), fresh.determinant());
        // Refactoring back to `a` restores the original solution.
        f.refactor_into(&a).unwrap();
        let rhs = [1.0, 2.0];
        let x = f.solve(&rhs).unwrap();
        assert!(residual(&a, &x, &rhs) < 1e-12);
    }

    #[test]
    fn refactor_into_grows_from_empty() {
        let mut f = LuFactor::empty();
        assert_eq!(f.dim(), 0);
        let a =
            DMatrix::from_rows(&[&[3.0, -1.0, 2.0], &[1.0, 4.0, 0.5], &[-2.0, 1.0, 5.0]]).unwrap();
        f.refactor_into(&a).unwrap();
        assert_eq!(f.dim(), 3);
        let rhs = [1.0, -2.0, 0.25];
        let x = f.solve(&rhs).unwrap();
        assert!(residual(&a, &x, &rhs) < 1e-12);
    }

    #[test]
    fn failed_refactor_holds_no_factorization() {
        let good = DMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let singular = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let mut non_finite = DMatrix::identity(2);
        non_finite[(1, 0)] = f64::INFINITY;
        let mut f = LuFactor::new(&good).unwrap();
        for bad in [&singular, &non_finite, &DMatrix::zeros(2, 3)] {
            assert!(f.refactor_into(bad).is_err());
            assert_eq!(f.dim(), 0, "a failed refactor must not report a factor");
            assert!(f.solve(&[1.0, 2.0]).is_err());
            // A later successful refactor restores a usable factor.
            f.refactor_into(&good).unwrap();
            assert_eq!(f.dim(), 2);
            let x = f.solve(&[1.0, 2.0]).unwrap();
            assert!(residual(&good, &x, &[1.0, 2.0]) < 1e-12);
        }
    }

    #[test]
    fn rhs_length_checked() {
        let lu = LuFactor::new(&DMatrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn pivot_ratio_of_identity() {
        let lu = LuFactor::new(&DMatrix::identity(4)).unwrap();
        assert_eq!(lu.pivot_ratio(), 1.0);
    }

    #[test]
    fn larger_random_like_system() {
        // Deterministic pseudo-random diagonally dominant system.
        let n = 25;
        let mut a = DMatrix::zeros(n, n);
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (u32::MAX as f64)) - 0.5
        };
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next();
                    a[(i, j)] = v;
                    row_sum += v.abs();
                }
            }
            a[(i, i)] = row_sum + 1.0;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = solve(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-10);
    }
}
