//! Property-style tests of the numerical kernel.
//!
//! Driven by the in-tree deterministic [`TestRng`] rather than an external
//! property-testing crate so the suite builds with no registry access.
//! Every case derives from a fixed seed and replays bit-for-bit.

use dso_num::interp::{linspace, logspace, Curve};
use dso_num::lu::LuFactor;
use dso_num::matrix::{norm_inf, DMatrix};
use dso_num::newton::{NewtonOptions, NewtonSolver, NonlinearSystem};
use dso_num::roots::{bisect_transition, brent, Scale};
use dso_num::testing::TestRng;
use dso_num::trend::{classify, Trend};
use dso_num::NumError;

const CASES: usize = 64;

/// A random diagonally dominant matrix: always nonsingular, well enough
/// conditioned that residual checks are meaningful.
fn diag_dominant(rng: &mut TestRng, n: usize) -> DMatrix {
    let mut a = DMatrix::zeros(n, n);
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            if i != j {
                let v = rng.range(-1.0, 1.0);
                a[(i, j)] = v;
                row_sum += v.abs();
            }
        }
        a[(i, i)] = row_sum + 1.0 + rng.next_f64();
    }
    a
}

#[test]
fn lu_solves_diag_dominant() {
    let mut rng = TestRng::new(0x1001);
    for _ in 0..CASES {
        let a = diag_dominant(&mut rng, 8);
        let b = rng.vec(8, -10.0, 10.0);
        let lu = LuFactor::new(&a).expect("diagonally dominant is nonsingular");
        let x = lu.solve(&b).expect("solve succeeds");
        let ax = a.mul_vec(&x).expect("dimensions match");
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(l, r)| l - r).collect();
        assert!(norm_inf(&resid) < 1e-9, "residual {}", norm_inf(&resid));
    }
}

/// An in-test copy of the dense LU as it stood before the sparse kernels:
/// partial pivoting, an elimination update over every column of the pivot
/// row, and forward/back substitution over every entry of L and U.
/// Returns the solution of `a·x = b` and the determinant, or `None` if a
/// pivot is singular.
fn reference_dense_lu_solve(a: &DMatrix, b: &[f64]) -> Option<(Vec<f64>, f64)> {
    let n = a.rows();
    let mut lu = a.as_slice().to_vec();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut perm_sign = 1.0;
    let threshold = dso_num::lu::SINGULARITY_THRESHOLD * a.max_abs().max(1.0);
    for k in 0..n {
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
            return None;
        }
        if pivot_row != k {
            for j in 0..n {
                lu.swap(k * n + j, pivot_row * n + j);
            }
            perm.swap(k, pivot_row);
            perm_sign = -perm_sign;
        }
        let pivot = lu[k * n + k];
        for i in (k + 1)..n {
            let factor = lu[i * n + k] / pivot;
            lu[i * n + k] = factor;
            if factor != 0.0 {
                for j in (k + 1)..n {
                    lu[i * n + j] -= factor * lu[k * n + j];
                }
            }
        }
    }
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[perm[i]];
        for j in 0..i {
            sum -= lu[i * n + j] * x[j];
        }
        x[i] = sum;
    }
    for i in (0..n).rev() {
        let mut sum = x[i];
        for j in (i + 1)..n {
            sum -= lu[i * n + j] * x[j];
        }
        x[i] = sum / lu[i * n + i];
    }
    let det = (0..n).fold(perm_sign, |d, i| d * lu[i * n + i]);
    Some((x, det))
}

/// A random matrix with roughly `zero_frac` of its entries (diagonal
/// included) planted as exact zeros and no diagonal dominance, so the
/// factorization pivots and L/U carry scattered structural zeros.
fn sparse_random(rng: &mut TestRng, n: usize, zero_frac: f64) -> DMatrix {
    let mut a = DMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if rng.next_f64() >= zero_frac {
                a[(i, j)] = rng.range(-2.0, 2.0);
            }
        }
    }
    a
}

#[test]
fn sparse_lu_is_bit_identical_to_dense_reference() {
    // One factorization object is refactored over a stream of matrices of
    // varying size and sparsity pattern, so stale pattern state from an
    // earlier refactor would show up as a wrong bit.
    let mut rng = TestRng::new(0x100c);
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let mut lu = LuFactor::empty();
    let (mut solved, mut singular) = (0, 0);
    for case in 0..4 * CASES {
        let n = rng.index_range(1, 14);
        let zero_frac = *rng.choose(&[0.0, 0.3, 0.6, 0.8]);
        let a = sparse_random(&mut rng, n, zero_frac);
        let b: Vec<f64> = (0..n)
            .map(|_| {
                if rng.next_f64() < zero_frac {
                    0.0
                } else {
                    rng.range(-5.0, 5.0)
                }
            })
            .collect();
        match (lu.refactor_into(&a), reference_dense_lu_solve(&a, &b)) {
            (Ok(()), Some((x_ref, det_ref))) => {
                let mut x = vec![0.0; n];
                lu.solve_in_place(&b, &mut x);
                assert_eq!(bits(&x), bits(&x_ref), "case {case}: solution bits");
                assert_eq!(
                    lu.determinant().to_bits(),
                    det_ref.to_bits(),
                    "case {case}: determinant bits"
                );
                solved += 1;
            }
            (Err(NumError::SingularMatrix { .. }), None) => {
                assert_eq!(lu.dim(), 0, "case {case}: failed refactor kept a factor");
                singular += 1;
            }
            (ours, reference) => panic!(
                "case {case}: sparse {:?} vs dense singular = {}",
                ours,
                reference.is_none()
            ),
        }
    }
    // Both outcomes were actually exercised.
    assert!(solved > 2 * CASES, "only {solved} solvable cases");
    assert!(singular > 0, "no singular case planted");
}

#[test]
fn determinant_sign_consistent_with_permutation() {
    // det(A) of a diagonally dominant matrix with positive diagonal must at
    // minimum be finite and nonzero.
    let mut rng = TestRng::new(0x1003);
    for _ in 0..CASES {
        let a = diag_dominant(&mut rng, 6);
        let lu = LuFactor::new(&a).expect("nonsingular");
        let det = lu.determinant();
        assert!(det.is_finite() && det != 0.0);
    }
}

#[test]
fn curve_eval_bounded_by_neighbors() {
    let mut rng = TestRng::new(0x1004);
    for _ in 0..CASES {
        let n = rng.index_range(4, 12);
        let ys = rng.vec(n, -5.0, 5.0);
        let t = rng.next_f64();
        let xs = linspace(0.0, 1.0, n).expect("valid spacing");
        let curve = Curve::new(xs, ys.clone()).expect("valid curve");
        let v = curve.eval(t).expect("in domain");
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }
}

#[test]
fn line_intersection_exact() {
    // Two straight lines over [0, 1] cross at most once; when the endpoint
    // differences change sign, the intersection satisfies both line
    // equations.
    let mut rng = TestRng::new(0x1005);
    for _ in 0..CASES {
        let (a0, a1) = (rng.range(-5.0, 5.0), rng.range(-5.0, 5.0));
        let (b0, b1) = (rng.range(-5.0, 5.0), rng.range(-5.0, 5.0));
        let la = Curve::new(vec![0.0, 1.0], vec![a0, a1]).expect("valid");
        let lb = Curve::new(vec![0.0, 1.0], vec![b0, b1]).expect("valid");
        let roots = la.intersections(&lb).expect("domains overlap");
        assert!(roots.len() <= 1 || (a0 == b0 && a1 == b1));
        for r in roots {
            let va = la.eval(r).expect("in domain");
            let vb = lb.eval(r).expect("in domain");
            assert!((va - vb).abs() < 1e-9, "at {r}: {va} vs {vb}");
        }
    }
}

#[test]
fn bisection_brackets_planted_threshold() {
    let mut rng = TestRng::new(0x1006);
    for _ in 0..CASES {
        let threshold = rng.range(1.0, 9.0);
        let scale = if rng.next_bool() {
            Scale::Logarithmic
        } else {
            Scale::Linear
        };
        let t = bisect_transition(0.5, 10.0, 1e-6, scale, |x| Ok(x > threshold))
            .expect("valid bracket");
        assert!(t.last_false <= threshold);
        assert!(t.first_true >= threshold);
        assert!(t.width() < 1e-3);
    }
}

#[test]
fn brent_finds_root_of_cubic() {
    // x^3 - shift has a real root at shift^(1/3) within [-2, 2].
    let mut rng = TestRng::new(0x1007);
    for _ in 0..CASES {
        let shift = rng.range(-0.9, 0.9);
        let root = brent(-2.0, 2.0, 1e-12, 200, |x| x * x * x - shift).expect("bracketed");
        assert!((root * root * root - shift).abs() < 1e-9);
    }
}

#[test]
fn sorted_data_classifies_monotone() {
    let mut rng = TestRng::new(0x1008);
    for _ in 0..CASES {
        let n = rng.index_range(3, 20);
        let mut ys = rng.vec(n, -100.0, 100.0);
        ys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let trend = classify(&ys, 0.0).expect("valid input");
        assert!(
            trend == Trend::Increasing || trend == Trend::Flat,
            "sorted data classified {trend}"
        );
        ys.reverse();
        let trend = classify(&ys, 0.0).expect("valid input");
        assert!(trend == Trend::Decreasing || trend == Trend::Flat);
    }
}

#[test]
fn logspace_is_geometric() {
    let mut rng = TestRng::new(0x1009);
    for _ in 0..CASES {
        let lo = rng.range(1e-3, 1.0);
        let ratio = rng.log_range(1.5, 1e4);
        let n = rng.index_range(3, 20);
        let hi = lo * ratio;
        let pts = logspace(lo, hi, n).expect("valid range");
        assert_eq!(pts.len(), n);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        let r0 = pts[1] / pts[0];
        for w in pts.windows(2) {
            assert!((w[1] / w[0] - r0).abs() < 1e-6 * r0);
        }
    }
}

/// A mildly nonlinear system with a diagonally dominant linear part:
/// `F(x) = A·x + 0.1·tanh(x) − b`. Always solvable from `x = 0`, nonlinear
/// enough that the Newton iteration takes several steps.
struct TanhSystem {
    a: DMatrix,
    b: Vec<f64>,
}

impl NonlinearSystem for TanhSystem {
    fn unknowns(&self) -> usize {
        self.b.len()
    }

    fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
        let n = self.b.len();
        for i in 0..n {
            let mut acc = -self.b[i] + 0.1 * x[i].tanh();
            for (j, xj) in x.iter().enumerate().take(n) {
                acc += self.a[(i, j)] * xj;
            }
            out[i] = acc;
        }
        Ok(())
    }

    fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError> {
        let n = self.b.len();
        for i in 0..n {
            for j in 0..n {
                jac[(i, j)] = self.a[(i, j)];
            }
            let sech = 1.0 / x[i].cosh();
            jac[(i, i)] += 0.1 * sech * sech;
        }
        Ok(())
    }
}

/// An in-test copy of the solver loop as it stood before modified-Newton
/// reuse landed: assemble the Jacobian and refactor the LU on **every**
/// iteration, same voltage limiting, same damped line search, same
/// convergence tests. Returns the iterate and `(iterations, residual)`.
fn reference_full_newton(
    system: &mut TanhSystem,
    x: &mut [f64],
    opts: &NewtonOptions,
) -> (usize, f64) {
    let n = system.unknowns();
    let mut residual = vec![0.0; n];
    let mut trial_residual = vec![0.0; n];
    let mut trial_x = vec![0.0; n];
    let mut jac = DMatrix::zeros(n, n);
    system.residual(x, &mut residual).expect("residual");
    let mut res_norm = norm_inf(&residual);
    for iter in 0..opts.max_iterations {
        if res_norm < opts.residual_tol {
            return (iter, res_norm);
        }
        jac.clear();
        system.jacobian(x, &mut jac).expect("jacobian");
        let lu = LuFactor::new(&jac).expect("nonsingular");
        let neg_f: Vec<f64> = residual.iter().map(|r| -r).collect();
        let mut dx = vec![0.0; n];
        lu.solve_in_place(&neg_f, &mut dx);
        system.limit_step(x, &mut dx, opts.max_step);
        let mut alpha = 1.0;
        let mut accepted = false;
        for _ in 0..12 {
            for i in 0..n {
                trial_x[i] = x[i] + alpha * dx[i];
            }
            system
                .residual(&trial_x, &mut trial_residual)
                .expect("residual");
            let trial_norm = norm_inf(&trial_residual);
            if trial_norm.is_finite() && (trial_norm < res_norm || alpha <= 1e-3) {
                x.copy_from_slice(&trial_x);
                residual.copy_from_slice(&trial_residual);
                res_norm = trial_norm;
                accepted = true;
                break;
            }
            alpha *= opts.damping;
        }
        if !accepted {
            x.copy_from_slice(&trial_x);
            residual.copy_from_slice(&trial_residual);
            res_norm = norm_inf(&residual);
        }
        let step_norm = norm_inf(&dx) * alpha;
        if step_norm < opts.step_tol && res_norm < opts.residual_tol * 1e3 {
            return (iter + 1, res_norm);
        }
    }
    panic!("reference Newton did not converge: residual {res_norm}");
}

fn tanh_case(rng: &mut TestRng, n: usize) -> TanhSystem {
    TanhSystem {
        a: diag_dominant(rng, n),
        b: rng.vec(n, -3.0, 3.0),
    }
}

#[test]
fn reuse_off_is_bit_identical_to_pre_reuse_solver() {
    // The compatibility contract of the modified-Newton change:
    // `lu_reuse: false` must reproduce the pre-change solver exactly —
    // same iterates to the bit, same iteration count, same final residual,
    // and zero reuse accounting.
    let mut rng = TestRng::new(0x100b);
    let opts = NewtonOptions {
        lu_reuse: false,
        ..NewtonOptions::default()
    };
    let mut solver = NewtonSolver::new(opts.clone());
    for _ in 0..CASES {
        let n = rng.index_range(2, 8);
        let mut system = tanh_case(&mut rng, n);
        let mut x = vec![0.0; n];
        let stats = solver.solve(&mut system, &mut x).expect("converges");
        let mut x_ref = vec![0.0; n];
        let (iters_ref, res_ref) = reference_full_newton(&mut system, &mut x_ref, &opts);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&x_ref), "iterate bits diverged");
        assert_eq!(stats.iterations, iters_ref, "iteration count diverged");
        assert_eq!(
            stats.residual.to_bits(),
            res_ref.to_bits(),
            "final residual bits diverged"
        );
        assert_eq!(stats.lu_reuses, 0, "reuse-off solve reported reuses");
        assert!(stats.lu_refactors >= stats.iterations.min(1));
    }
}

#[test]
fn reuse_on_matches_root_and_saves_refactors() {
    // Reuse changes the iteration trajectory (that is the point), but it
    // must land on the same root to solver tolerance and, in aggregate,
    // trade refactors for cheap back-substitution iterations.
    let mut rng = TestRng::new(0x100c);
    let mut fast = NewtonSolver::new(NewtonOptions::default());
    let mut slow = NewtonSolver::new(NewtonOptions {
        lu_reuse: false,
        ..NewtonOptions::default()
    });
    let (mut reuses, mut refactors) = (0usize, 0usize);
    for _ in 0..CASES {
        let n = rng.index_range(2, 8);
        let mut system = tanh_case(&mut rng, n);
        let mut x_fast = vec![0.0; n];
        let stats = fast.solve(&mut system, &mut x_fast).expect("converges");
        reuses += stats.lu_reuses;
        refactors += stats.lu_refactors;
        let mut x_slow = vec![0.0; n];
        slow.solve(&mut system, &mut x_slow).expect("converges");
        for (f, s) in x_fast.iter().zip(&x_slow) {
            assert!((f - s).abs() < 1e-6, "roots diverged: {f} vs {s}");
        }
    }
    assert!(
        reuses > refactors,
        "modified-Newton saved nothing: {reuses} reuses vs {refactors} refactors"
    );
}

#[test]
fn norm_inf_propagates_nan() {
    // A poisoned residual must never report a finite (spuriously small)
    // norm — the Newton driver's non-finite guard depends on this.
    assert!(norm_inf(&[1.0, f64::NAN, 3.0]).is_nan());
    assert!(!norm_inf(&[1.0, -4.0, 3.0]).is_nan());
    let mut m = DMatrix::zeros(2, 2);
    m[(0, 1)] = f64::NAN;
    assert!(m.norm_inf().is_nan());
}
