//! A damped Newton–Raphson driver for nonlinear systems.
//!
//! The circuit simulator expresses each DC operating point and each transient
//! time step as a nonlinear system `F(x) = 0` whose Jacobian is the stamped
//! MNA matrix. This module owns the iteration policy — convergence criteria,
//! step damping, iteration budget — so the simulator only supplies the
//! residual/Jacobian evaluation.

use crate::lu::LuFactor;
use crate::matrix::{norm_inf, DMatrix};
use crate::NumError;

/// Residual-reduction ratio below which a reused (stale) LU factorization
/// is considered to still be making progress. A modified-Newton iteration
/// that fails to shrink the residual by at least this factor is "stalled"
/// and triggers a refactor on the next iteration. The ratio is demanding
/// on purpose: a chord iteration against a merely-adequate stale Jacobian
/// contracts linearly (say 2–3x per iteration) and would grind out many
/// cheap-but-numerous back-substitutions where one refactor restores
/// quadratic convergence — profiling the DRAM sweep showed a lenient 0.5
/// ratio more than doubling total Newton iterations once factorizations
/// were retained across time steps.
pub const REUSE_STALL_RATIO: f64 = 0.1;

/// NaN-safe stall test: true unless `res_norm` strictly contracted below
/// `REUSE_STALL_RATIO * prev_norm`. A non-finite residual is never
/// "contracting", so a solve that went NaN schedules a refactor instead
/// of riding a stale factorization.
fn reuse_stalled(res_norm: f64, prev_norm: f64) -> bool {
    res_norm.partial_cmp(&(REUSE_STALL_RATIO * prev_norm)) != Some(std::cmp::Ordering::Less)
}

/// A nonlinear system `F(x) = 0` with Jacobian `J(x)`.
///
/// Implementors fill `residual` with `F(x)` and `jacobian` with `∂F/∂x`.
/// Both slices/matrices are pre-sized to [`NonlinearSystem::unknowns`].
pub trait NonlinearSystem {
    /// Number of unknowns.
    fn unknowns(&self) -> usize;

    /// Evaluates the residual `F(x)` into `out`.
    ///
    /// # Errors
    ///
    /// Implementations may fail (e.g. a device model evaluated outside its
    /// domain); the error aborts the Newton iteration.
    fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError>;

    /// Evaluates the Jacobian `J(x)` into `jac` (previously cleared).
    ///
    /// # Errors
    ///
    /// Same contract as [`NonlinearSystem::residual`].
    fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError>;

    /// Clamps a proposed Newton update, returning the allowed step.
    ///
    /// The default implementation rescales the whole step so that its
    /// largest component does not exceed [`NewtonOptions::max_step`]; the
    /// rescaling preserves the Newton direction (which is a descent
    /// direction for the residual norm), so the damped line search still
    /// makes progress. Device-specific limiting (e.g. junction voltage
    /// limiting) can refine this.
    fn limit_step(&self, _x: &[f64], dx: &mut [f64], max_step: f64) {
        let biggest = dx.iter().fold(0.0_f64, |m, d| m.max(d.abs()));
        if biggest > max_step {
            let scale = max_step / biggest;
            for d in dx.iter_mut() {
                *d *= scale;
            }
        }
    }

    /// `true` when [`NonlinearSystem::residual`] may return an approximation
    /// (e.g. device-bypass shortcuts in an MNA system). When this returns
    /// `true`, the solver re-validates every convergence acceptance with
    /// [`NonlinearSystem::residual_exact`] so a bypass tolerance can never
    /// let a falsely converged point through.
    fn residual_is_approximate(&self) -> bool {
        false
    }

    /// Evaluates the *exact* residual `F(x)` into `out`, ignoring any
    /// approximation shortcuts. The default delegates to
    /// [`NonlinearSystem::residual`]; only systems that answer `true` to
    /// [`NonlinearSystem::residual_is_approximate`] need to override it.
    ///
    /// # Errors
    ///
    /// Same contract as [`NonlinearSystem::residual`].
    fn residual_exact(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
        self.residual(x, out)
    }
}

/// Iteration policy for [`NewtonSolver`].
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonOptions {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Absolute tolerance on the residual infinity norm.
    pub residual_tol: f64,
    /// Absolute tolerance on the update infinity norm.
    pub step_tol: f64,
    /// Per-component clamp on the Newton update (voltage limiting).
    pub max_step: f64,
    /// Damping factor applied when the residual grows (0 < factor < 1).
    pub damping: f64,
    /// Modified-Newton (Newton-Richardson) factorization reuse: keep the
    /// current LU and do back-substitution-only iterations, refactoring
    /// only when the residual-reduction ratio stalls past
    /// [`REUSE_STALL_RATIO`] or the line search damps the step. The policy
    /// is a deterministic function of the per-point iteration history, so
    /// results are bit-identical at any thread count. `false`
    /// refactors on every iteration (the pre-reuse solver).
    pub lu_reuse: bool,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iterations: 100,
            residual_tol: 1e-9,
            step_tol: 1e-9,
            max_step: 0.5,
            damping: 0.5,
            lu_reuse: true,
        }
    }
}

/// Outcome statistics of a successful Newton solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonStats {
    /// Iterations used.
    pub iterations: usize,
    /// Final residual infinity norm.
    pub residual: f64,
    /// Iterations that assembled the Jacobian and refactored the LU.
    pub lu_refactors: usize,
    /// Iterations that reused the previous LU (back-substitution only).
    pub lu_reuses: usize,
}

/// A reusable Newton–Raphson solver.
///
/// # Example
///
/// Solve `x² = 2`:
///
/// ```
/// use dso_num::matrix::DMatrix;
/// use dso_num::newton::{NewtonOptions, NewtonSolver, NonlinearSystem};
///
/// struct Sqrt2;
/// impl NonlinearSystem for Sqrt2 {
///     fn unknowns(&self) -> usize { 1 }
///     fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), dso_num::NumError> {
///         out[0] = x[0] * x[0] - 2.0;
///         Ok(())
///     }
///     fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), dso_num::NumError> {
///         jac[(0, 0)] = 2.0 * x[0];
///         Ok(())
///     }
/// }
///
/// # fn main() -> Result<(), dso_num::NumError> {
/// let mut solver = NewtonSolver::new(NewtonOptions::default());
/// let mut x = vec![1.0];
/// let stats = solver.solve(&mut Sqrt2, &mut x)?;
/// assert!((x[0] - 2.0_f64.sqrt()).abs() < 1e-8);
/// assert!(stats.iterations < 40);
/// // Modified-Newton reuse (on by default) trades a few extra cheap
/// // back-substitution iterations for far fewer LU refactors.
/// assert!(stats.lu_reuses > stats.lu_refactors);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NewtonSolver {
    options: NewtonOptions,
    // Scratch buffers reused across calls: once sized for a system, a solve
    // performs zero heap allocations (asserted by `tests/alloc_audit.rs`).
    residual: Vec<f64>,
    trial_residual: Vec<f64>,
    dx: Vec<f64>,
    trial_x: Vec<f64>,
    neg_f: Vec<f64>,
    jac: DMatrix,
    lu: LuFactor,
}

impl NewtonSolver {
    /// Creates a solver with the given iteration policy.
    pub fn new(options: NewtonOptions) -> Self {
        NewtonSolver {
            options,
            residual: Vec::new(),
            trial_residual: Vec::new(),
            dx: Vec::new(),
            trial_x: Vec::new(),
            neg_f: Vec::new(),
            jac: DMatrix::zeros(0, 0),
            lu: LuFactor::empty(),
        }
    }

    /// The solver's iteration policy.
    pub fn options(&self) -> &NewtonOptions {
        &self.options
    }

    /// Evaluates `‖F(x)‖∞` without solving, reusing the solver's residual
    /// scratch (no allocation once warmed). Callers use this to rank
    /// candidate initial guesses — e.g. a warm-start seed against the
    /// previous committed state — before committing to one.
    ///
    /// # Errors
    ///
    /// * [`NumError::ShapeMismatch`] if `x` has the wrong length.
    /// * Any error surfaced by the system's residual evaluation.
    pub fn residual_norm<S: NonlinearSystem>(
        &mut self,
        system: &mut S,
        x: &[f64],
    ) -> Result<f64, NumError> {
        let n = system.unknowns();
        if x.len() != n {
            return Err(NumError::ShapeMismatch {
                expected: format!("point of length {n}"),
                found: format!("length {}", x.len()),
            });
        }
        self.residual.resize(n, 0.0);
        system.residual(x, &mut self.residual)?;
        Ok(norm_inf(&self.residual))
    }

    /// Solves `F(x) = 0` starting from the initial guess in `x`, leaving the
    /// solution in `x`.
    ///
    /// # Errors
    ///
    /// * [`NumError::NoConvergence`] if the iteration budget is exhausted.
    /// * [`NumError::SingularMatrix`] if the Jacobian cannot be factored.
    /// * Any error surfaced by the system's residual/Jacobian evaluation.
    pub fn solve<S: NonlinearSystem>(
        &mut self,
        system: &mut S,
        x: &mut [f64],
    ) -> Result<NewtonStats, NumError> {
        self.solve_impl(system, x, false)
    }

    /// Like [`NewtonSolver::solve`], but — when [`NewtonOptions::lu_reuse`]
    /// is on and the previous solve factored a same-sized system — starts
    /// with a back-substitution-only iteration against the retained LU
    /// instead of refactoring. Callers use this for a follow-up solve whose
    /// Jacobian is known to be close to the previous one (e.g. the
    /// backward-Euler error-estimate solve over the step just accepted).
    /// Falls back to a plain solve when no compatible factorization exists.
    ///
    /// # Errors
    ///
    /// As [`NewtonSolver::solve`].
    pub fn solve_reusing<S: NonlinearSystem>(
        &mut self,
        system: &mut S,
        x: &mut [f64],
    ) -> Result<NewtonStats, NumError> {
        let reuse = self.options.lu_reuse && self.lu.dim() == system.unknowns();
        self.solve_impl(system, x, reuse)
    }

    fn solve_impl<S: NonlinearSystem>(
        &mut self,
        system: &mut S,
        x: &mut [f64],
        start_reusing: bool,
    ) -> Result<NewtonStats, NumError> {
        // Fine-level span + outcome metrics; both compile down to one
        // relaxed atomic load each while observability is off, keeping the
        // warmed solve allocation-free (see `tests/alloc_audit.rs`).
        let span = dso_obs::span_fine("newton.solve");
        let result = self.solve_inner(system, x, start_reusing);
        match &result {
            Ok(stats) => {
                dso_obs::counter!("newton.solves").incr();
                dso_obs::counter!("newton.iterations").add(stats.iterations as u64);
                dso_obs::histogram!(
                    "newton.iterations_per_solve",
                    &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
                )
                .observe(stats.iterations as f64);
                dso_obs::histogram!(
                    "newton.residual_final",
                    &[1e-15, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 1.0]
                )
                .observe(stats.residual);
                span.note("iterations", stats.iterations as f64);
            }
            Err(_) => dso_obs::counter!("newton.failed_solves").incr(),
        }
        result
    }

    /// Re-validates a tentative convergence acceptance against the exact
    /// residual when the system's `residual` is approximate. Returns the
    /// refreshed norm (which the caller re-tests); for exact systems the
    /// incoming norm passes straight through with no extra residual call,
    /// preserving the legacy call sequence bit-for-bit.
    fn exact_norm<S: NonlinearSystem>(
        &mut self,
        system: &mut S,
        x: &[f64],
        res_norm: f64,
    ) -> Result<f64, NumError> {
        if !system.residual_is_approximate() {
            return Ok(res_norm);
        }
        system.residual_exact(x, &mut self.residual)?;
        let exact = norm_inf(&self.residual);
        if !exact.is_finite() {
            return Err(NumError::NonFinite {
                context: "exact Newton residual at acceptance".into(),
            });
        }
        Ok(exact)
    }

    fn solve_inner<S: NonlinearSystem>(
        &mut self,
        system: &mut S,
        x: &mut [f64],
        start_reusing: bool,
    ) -> Result<NewtonStats, NumError> {
        let n = system.unknowns();
        if x.len() != n {
            return Err(NumError::ShapeMismatch {
                expected: format!("initial guess of length {n}"),
                found: format!("length {}", x.len()),
            });
        }
        self.residual.resize(n, 0.0);
        self.trial_residual.resize(n, 0.0);
        self.dx.resize(n, 0.0);
        self.trial_x.resize(n, 0.0);
        self.neg_f.resize(n, 0.0);
        if self.jac.rows() != n {
            self.jac = DMatrix::zeros(n, n);
        }

        system.residual(x, &mut self.residual)?;
        let mut res_norm = norm_inf(&self.residual);
        if !res_norm.is_finite() {
            return Err(NumError::NonFinite {
                context: "initial Newton residual".into(),
            });
        }

        let mut lu_refactors = 0_usize;
        let mut lu_reuses = 0_usize;
        // Modified-Newton policy state. Iteration 0 always refactors unless
        // the caller explicitly opted into cross-solve reuse.
        let mut refactor_pending = !start_reusing;
        for iter in 0..self.options.max_iterations {
            if res_norm < self.options.residual_tol {
                res_norm = self.exact_norm(system, x, res_norm)?;
                if res_norm < self.options.residual_tol {
                    return Ok(NewtonStats {
                        iterations: iter,
                        residual: res_norm,
                        lu_refactors,
                        lu_reuses,
                    });
                }
                // The bypass-approximated residual lied; iterate on with the
                // refreshed exact residual and a conservative refactor.
                refactor_pending = true;
            }
            if refactor_pending {
                self.jac.clear();
                system.jacobian(x, &mut self.jac)?;
                self.lu.refactor_into(&self.jac)?;
                lu_refactors += 1;
                dso_obs::counter!("newton.lu_refactors").incr();
            } else {
                lu_reuses += 1;
                dso_obs::counter!("newton.lu_reuses").incr();
            }
            // Residual trajectory: where the iterate stood before this step.
            dso_obs::histogram!(
                "newton.residual_trajectory",
                &[1e-15, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 1.0]
            )
            .observe(res_norm);
            // Newton step: J dx = -F (J possibly stale under reuse).
            for (o, r) in self.neg_f.iter_mut().zip(&self.residual) {
                *o = -r;
            }
            self.lu.solve_in_place(&self.neg_f, &mut self.dx);
            system.limit_step(x, &mut self.dx, self.options.max_step);

            // Damped line search: halve the step while the residual grows.
            let prev_norm = res_norm;
            let mut alpha = 1.0;
            let mut accepted = false;
            for _ in 0..12 {
                for (i, xi) in x.iter().enumerate().take(n) {
                    self.trial_x[i] = xi + alpha * self.dx[i];
                }
                system.residual(&self.trial_x, &mut self.trial_residual)?;
                let trial_norm = norm_inf(&self.trial_residual);
                if trial_norm.is_finite() && (trial_norm < res_norm || alpha <= 1e-3) {
                    x.copy_from_slice(&self.trial_x);
                    self.residual.copy_from_slice(&self.trial_residual);
                    res_norm = trial_norm;
                    accepted = true;
                    break;
                }
                alpha *= self.options.damping;
            }
            if !accepted {
                // Accept the most damped step anyway; some circuits need to
                // pass through a residual hump (latch regeneration).
                x.copy_from_slice(&self.trial_x);
                self.residual.copy_from_slice(&self.trial_residual);
                res_norm = norm_inf(&self.residual);
            }
            let step_norm = norm_inf(&self.dx) * alpha;
            if step_norm < self.options.step_tol && res_norm < self.options.residual_tol * 1e3 {
                let exact = self.exact_norm(system, x, res_norm)?;
                if exact < self.options.residual_tol * 1e3 {
                    return Ok(NewtonStats {
                        iterations: iter + 1,
                        residual: exact,
                        lu_refactors,
                        lu_reuses,
                    });
                }
                res_norm = exact;
                refactor_pending = true;
                continue;
            }
            // Keep reusing the factorization only while full steps are
            // accepted and the residual keeps contracting; damping, a
            // rejected search, or a stall all demand a fresh Jacobian.
            let stalled = reuse_stalled(res_norm, prev_norm);
            refactor_pending = !self.options.lu_reuse || alpha < 1.0 || !accepted || stalled;
        }
        if res_norm < self.options.residual_tol {
            res_norm = self.exact_norm(system, x, res_norm)?;
            if res_norm < self.options.residual_tol {
                return Ok(NewtonStats {
                    iterations: self.options.max_iterations,
                    residual: res_norm,
                    lu_refactors,
                    lu_reuses,
                });
            }
        }
        Err(NumError::NoConvergence {
            iterations: self.options.max_iterations,
            residual: res_norm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-D Rosenbrock-style gradient system: F(x, y) = (x - 1, 10 (y - x^2)).
    struct TwoDim;
    impl NonlinearSystem for TwoDim {
        fn unknowns(&self) -> usize {
            2
        }
        fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
            out[0] = x[0] - 1.0;
            out[1] = 10.0 * (x[1] - x[0] * x[0]);
            Ok(())
        }
        fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError> {
            jac[(0, 0)] = 1.0;
            jac[(1, 0)] = -20.0 * x[0];
            jac[(1, 1)] = 10.0;
            Ok(())
        }
    }

    #[test]
    fn converges_on_smooth_system() {
        let mut solver = NewtonSolver::new(NewtonOptions::default());
        let mut x = vec![-1.0, 2.0];
        let stats = solver.solve(&mut TwoDim, &mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-7, "{x:?}");
        assert!((x[1] - 1.0).abs() < 1e-6, "{x:?}");
        assert!(stats.residual < 1e-6);
    }

    /// Exponential diode-like residual that needs limiting: F = e^(20x) - 1.
    struct StiffExp;
    impl NonlinearSystem for StiffExp {
        fn unknowns(&self) -> usize {
            1
        }
        fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
            out[0] = (20.0 * x[0]).exp() - 1.0;
            Ok(())
        }
        fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError> {
            jac[(0, 0)] = 20.0 * (20.0 * x[0]).exp();
            Ok(())
        }
    }

    #[test]
    fn stiff_exponential_needs_damping() {
        let mut solver = NewtonSolver::new(NewtonOptions {
            residual_tol: 1e-8,
            ..NewtonOptions::default()
        });
        let mut x = vec![2.0];
        solver.solve(&mut StiffExp, &mut x).unwrap();
        assert!(x[0].abs() < 1e-8, "{x:?}");
    }

    struct NoSolution;
    impl NonlinearSystem for NoSolution {
        fn unknowns(&self) -> usize {
            1
        }
        fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
            out[0] = x[0] * x[0] + 1.0; // never zero
            Ok(())
        }
        fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError> {
            jac[(0, 0)] = if x[0].abs() < 1e-12 { 1e-6 } else { 2.0 * x[0] };
            Ok(())
        }
    }

    #[test]
    fn reports_no_convergence() {
        let mut solver = NewtonSolver::new(NewtonOptions {
            max_iterations: 30,
            ..NewtonOptions::default()
        });
        let mut x = vec![3.0];
        let err = solver.solve(&mut NoSolution, &mut x).unwrap_err();
        assert!(matches!(err, NumError::NoConvergence { .. }));
    }

    #[test]
    fn guess_length_checked() {
        let mut solver = NewtonSolver::new(NewtonOptions::default());
        let mut x = vec![0.0; 3];
        assert!(solver.solve(&mut TwoDim, &mut x).is_err());
    }

    /// `TwoDim` whose Jacobian reads all zeros while `broken` is set.
    struct Breakable {
        broken: bool,
    }
    impl NonlinearSystem for Breakable {
        fn unknowns(&self) -> usize {
            2
        }
        fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
            TwoDim.residual(x, out)
        }
        fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError> {
            if !self.broken {
                TwoDim.jacobian(x, jac)?;
            }
            Ok(())
        }
    }

    #[test]
    fn solve_reusing_after_failed_refactor_refactors() {
        let mut solver = NewtonSolver::new(NewtonOptions::default());
        let mut system = Breakable { broken: true };
        let mut x = vec![-1.0, 2.0];
        let err = solver.solve(&mut system, &mut x).unwrap_err();
        assert!(matches!(err, NumError::SingularMatrix { .. }));
        // The failed factorization must not be reused: the follow-up solve
        // refactors at iteration zero instead of back-substituting against
        // a half-eliminated factor.
        system.broken = false;
        let mut x = vec![-1.0, 2.0];
        let stats = solver.solve_reusing(&mut system, &mut x).unwrap();
        assert!(stats.lu_refactors >= 1);
        assert!((x[0] - 1.0).abs() < 1e-7, "{x:?}");
    }

    #[test]
    fn solver_is_reusable() {
        let mut solver = NewtonSolver::new(NewtonOptions::default());
        for start in [-2.0, 0.5, 4.0] {
            let mut x = vec![start, start];
            solver.solve(&mut TwoDim, &mut x).unwrap();
            assert!((x[0] - 1.0).abs() < 1e-6);
        }
    }
}
