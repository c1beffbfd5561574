//! Modified nodal analysis: DC operating point and transient simulation.
//!
//! The unknown vector is `[v(node 1) … v(node N), i(V-source 1) …]` — every
//! non-ground node voltage followed by one branch current per voltage
//! source. Each Newton iteration stamps all devices into the residual
//! (Kirchhoff current sums plus source branch equations) and the Jacobian
//! (conductances).

use crate::circuit::{Circuit, NodeId};
use crate::device::{switch_conductance, Device};
use crate::mos;
use crate::recovery::{RecoveryPolicy, RecoveryStats};
use crate::waveform::Waveform;
use crate::SpiceError;
use dso_num::chaos::{ChaosSystem, FaultPlan};
use dso_num::integrate::{Companion, Method};
use dso_num::matrix::DMatrix;
use dso_num::newton::{NewtonOptions, NewtonSolver, NewtonStats, NonlinearSystem};
use dso_num::NumError;

/// How a transient analysis obtains its initial state.
#[derive(Debug, Clone, PartialEq)]
pub enum StartMode {
    /// Solve the DC operating point at `t = 0` first (sources at their
    /// initial values, capacitors open).
    DcOperatingPoint,
    /// Skip the DC solve (`UIC` in SPICE): nodes start at 0 V except those
    /// listed here, and capacitors with explicit initial voltages seed
    /// their terminals.
    UseIc(Vec<(String, f64)>),
}

/// Local-truncation-error control for adaptive time stepping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Acceptable per-step error estimate (volts). The estimate is the
    /// infinity-norm difference between the trapezoidal and the
    /// backward-Euler solution of the same step, which is proportional to
    /// the local truncation error.
    pub lte_tol: f64,
    /// Smallest step the controller may take.
    pub dt_min: f64,
    /// Largest step the controller may take.
    pub dt_max: f64,
}

impl AdaptiveOptions {
    /// Validates the control parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadAnalysis`] unless
    /// `0 < dt_min <= dt_max` and `lte_tol > 0`.
    pub fn validate(&self) -> Result<(), SpiceError> {
        if !(self.lte_tol > 0.0 && self.dt_min > 0.0 && self.dt_min <= self.dt_max) {
            return Err(SpiceError::BadAnalysis(format!(
                "adaptive options need lte_tol > 0 and 0 < dt_min <= dt_max, got {self:?}"
            )));
        }
        Ok(())
    }
}

/// Configuration of a transient analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// Stop time in seconds.
    pub t_stop: f64,
    /// Fixed output time step in seconds (the *initial* step when
    /// `adaptive` is set).
    pub dt: f64,
    /// Integration method (default trapezoidal; the first step and retry
    /// sub-steps always use backward Euler).
    pub method: Method,
    /// Initial-state policy.
    pub start: StartMode,
    /// When set, the step size is controlled by the local truncation
    /// error instead of being fixed: steps shrink at sharp transitions
    /// and stretch over smooth tails. Costs one extra (backward-Euler)
    /// solve per step for the error estimate.
    pub adaptive: Option<AdaptiveOptions>,
}

impl TranOptions {
    /// Creates options with the default method and a DC start.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadAnalysis`] unless `0 < dt <= t_stop`.
    pub fn new(t_stop: f64, dt: f64) -> Result<Self, SpiceError> {
        if !(dt > 0.0 && dt.is_finite() && t_stop >= dt && t_stop.is_finite()) {
            return Err(SpiceError::BadAnalysis(format!(
                "need 0 < dt <= t_stop, got dt={dt}, t_stop={t_stop}"
            )));
        }
        Ok(TranOptions {
            t_stop,
            dt,
            method: Method::default(),
            start: StartMode::DcOperatingPoint,
            adaptive: None,
        })
    }

    /// Sets the integration method.
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Starts from the given node initial conditions instead of a DC solve.
    pub fn with_ic<I>(mut self, ics: I) -> Self
    where
        I: IntoIterator<Item = (String, f64)>,
    {
        self.start = StartMode::UseIc(ics.into_iter().collect());
        self
    }

    /// Enables local-truncation-error controlled time stepping.
    pub fn with_adaptive(mut self, adaptive: AdaptiveOptions) -> Self {
        self.adaptive = Some(adaptive);
        self
    }
}

/// A DC solution: node voltages and source branch currents.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    node_names: Vec<String>,
    vsource_names: Vec<String>,
    x: Vec<f64>,
}

impl Solution {
    /// Voltage of a named node (ground returns 0).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] if the node does not exist.
    pub fn voltage(&self, node: &str) -> Result<f64, SpiceError> {
        if node == "0" || node == "gnd" {
            return Ok(0.0);
        }
        let idx = self
            .node_names
            .iter()
            .position(|n| n == node)
            .ok_or_else(|| SpiceError::UnknownNode(node.to_string()))?;
        // node_names includes ground at index 0; unknowns start at node 1.
        Ok(self.x[idx - 1])
    }

    /// Branch current of a named voltage source.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownDevice`] if the source does not exist.
    pub fn current(&self, vsource: &str) -> Result<f64, SpiceError> {
        let idx = self
            .vsource_names
            .iter()
            .position(|n| n == vsource)
            .ok_or_else(|| SpiceError::UnknownDevice(vsource.to_string()))?;
        Ok(self.x[self.node_names.len() - 1 + idx])
    }

    /// The raw unknown vector (node voltages then branch currents).
    pub fn as_slice(&self) -> &[f64] {
        &self.x
    }
}

/// Result of a transient analysis: the full unknown vector at every output
/// time point.
#[derive(Debug, Clone, PartialEq)]
pub struct TranResult {
    node_names: Vec<String>,
    vsource_names: Vec<String>,
    times: Vec<f64>,
    /// One unknown vector per time point.
    samples: Vec<Vec<f64>>,
    /// Recovery actions the run needed (empty for a clean run).
    recovery: RecoveryStats,
}

impl TranResult {
    /// The sampled time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Recovery actions taken during the run. A clean run reports
    /// [`RecoveryStats::is_clean`].
    pub fn recovery(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Number of recorded time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    fn node_var(&self, node: &str) -> Result<Option<usize>, SpiceError> {
        if node == "0" || node == "gnd" {
            return Ok(None);
        }
        let idx = self
            .node_names
            .iter()
            .position(|n| n == node)
            .ok_or_else(|| SpiceError::UnknownNode(node.to_string()))?;
        Ok(Some(idx - 1))
    }

    /// The voltage waveform of a named node.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] if the node does not exist.
    pub fn voltage(&self, node: &str) -> Result<Vec<f64>, SpiceError> {
        match self.node_var(node)? {
            None => Ok(vec![0.0; self.times.len()]),
            Some(var) => Ok(self.samples.iter().map(|s| s[var]).collect()),
        }
    }

    /// The node voltage at time `t`, linearly interpolated between samples.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::UnknownNode`] if the node does not exist.
    /// * [`SpiceError::SampleOutOfRange`] if `t` lies outside the simulated
    ///   window (the error carries the valid `[t_start, t_end]` range).
    /// * [`SpiceError::BadAnalysis`] if the result holds no samples at all.
    pub fn voltage_at(&self, node: &str, t: f64) -> Result<f64, SpiceError> {
        let var = self.node_var(node)?;
        let (t0, t1) = match (self.times.first(), self.times.last()) {
            (Some(&t0), Some(&t1)) => (t0, t1),
            _ => {
                return Err(SpiceError::BadAnalysis(
                    "transient produced no samples".into(),
                ))
            }
        };
        if t < t0 || t > t1 {
            return Err(SpiceError::SampleOutOfRange {
                t,
                t_start: t0,
                t_end: t1,
            });
        }
        let var = match var {
            None => return Ok(0.0),
            Some(v) => v,
        };
        let idx = self.times.partition_point(|&tv| tv <= t);
        if idx == 0 {
            return Ok(self.samples[0][var]);
        }
        if idx >= self.times.len() {
            return Ok(self.samples[self.times.len() - 1][var]);
        }
        let (ta, tb) = (self.times[idx - 1], self.times[idx]);
        let (va, vb) = (self.samples[idx - 1][var], self.samples[idx][var]);
        Ok(va + (vb - va) * (t - ta) / (tb - ta))
    }

    /// The node voltage at the final time point.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] if the node does not exist.
    pub fn final_voltage(&self, node: &str) -> Result<f64, SpiceError> {
        match self.node_var(node)? {
            None => Ok(0.0),
            Some(var) => Ok(self
                .samples
                .last()
                .map(|s| s[var])
                .ok_or_else(|| SpiceError::BadAnalysis("no samples".into()))?),
        }
    }

    /// The full unknown vector recorded at time `t`, if this result holds a
    /// sample of dimension `n` at (bitwise) that exact time point.
    ///
    /// Used by [`crate::Simulator::transient_seeded`] to warm-start Newton
    /// iterations from a neighboring run on the same time base; a run with
    /// a different time grid simply never matches and the caller falls back
    /// to its cold guess.
    pub fn guess_at(&self, t: f64, n: usize) -> Option<&[f64]> {
        let idx = self
            .times
            .binary_search_by(|tv| tv.partial_cmp(&t).unwrap_or(std::cmp::Ordering::Less))
            .ok()?;
        let sample = &self.samples[idx];
        (sample.len() == n).then_some(sample.as_slice())
    }

    /// The branch-current waveform of a named voltage source.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownDevice`] if the source does not exist.
    pub fn current(&self, vsource: &str) -> Result<Vec<f64>, SpiceError> {
        let idx = self
            .vsource_names
            .iter()
            .position(|n| n == vsource)
            .ok_or_else(|| SpiceError::UnknownDevice(vsource.to_string()))?;
        let var = self.node_names.len() - 1 + idx;
        Ok(self.samples.iter().map(|s| s[var]).collect())
    }
}

/// Per-capacitor transient state.
#[derive(Debug, Clone, Copy)]
struct CapState {
    /// Voltage across the capacitor at the last accepted time point.
    v_prev: f64,
    /// Capacitor current at the last accepted time point.
    i_prev: f64,
}

/// The simulator: binds a circuit to an ambient temperature and solver
/// policy.
#[derive(Debug, Clone)]
pub struct Simulator<'c> {
    circuit: &'c Circuit,
    temp: f64,
    gmin: f64,
    newton: NewtonOptions,
    recovery: RecoveryPolicy,
    fault_plan: Option<FaultPlan>,
    tuning: SolverTuning,
}

/// Hot-path solver tuning: modified-Newton LU reuse and SPICE3-style
/// device-evaluation bypass.
///
/// Both knobs trade redundant work for bookkeeping without changing what
/// convergence *means*: LU reuse still refactors the moment the residual
/// reduction stalls or damping engages, and a bypassed device's residual
/// is always re-checked exactly at acceptance (see
/// [`dso_num::newton::NonlinearSystem::residual_exact`]). The
/// [`SolverTuning::legacy`] point — reuse off, tolerance zero — reproduces
/// the untuned solver bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverTuning {
    /// Keep the current LU factorization across Newton iterations and
    /// back-substitute only, refactoring when convergence stalls (maps to
    /// [`NewtonOptions::lu_reuse`]).
    pub lu_reuse: bool,
    /// Device bypass tolerance in volts: a MOSFET or diode whose terminal
    /// voltages all moved less than this since its last evaluation reuses
    /// the cached (linearized) stamp instead of re-evaluating the model.
    /// `0.0` disables the bypass *and* the incremental-assembly fast path,
    /// restoring the legacy stamp-everything loop exactly. Forced to `0.0`
    /// whenever a fault plan is armed, so injected faults are never masked
    /// by a stale cache.
    pub bypass_tol: f64,
}

impl Default for SolverTuning {
    fn default() -> Self {
        SolverTuning {
            lu_reuse: true,
            // 100 µV: an order of magnitude tighter than the classic
            // SPICE3 bypass window (reltol·|v| + vntol ≈ 1 mV at DRAM
            // rail voltages), and every acceptance is still re-checked
            // against the exact residual.
            bypass_tol: 1e-4,
        }
    }
}

impl SolverTuning {
    /// The pre-tuning solver: every iteration refactors, every device is
    /// evaluated at every stamp. Bit-identical to the solver before these
    /// knobs existed.
    pub fn legacy() -> Self {
        SolverTuning {
            lu_reuse: false,
            bypass_tol: 0.0,
        }
    }

    /// Folds the tuning into a content fingerprint. The knobs change the
    /// floating-point path a solve takes — different iteration counts,
    /// different summation order — so cached results are only valid for
    /// the exact tuning that produced them.
    pub fn fingerprint_into(&self, fp: &mut dso_num::fingerprint::Fingerprint) {
        fp.write_bool(self.lu_reuse);
        fp.write_f64(self.bypass_tol);
    }
}

impl<'c> Simulator<'c> {
    /// Creates a simulator at the nominal temperature (+27 °C).
    pub fn new(circuit: &'c Circuit) -> Self {
        Simulator {
            circuit,
            temp: 27.0,
            gmin: 1e-12,
            // The only per-simulator override is `lu_reuse`, folded in by
            // `with_tuning`.
            newton: NewtonOptions {
                max_iterations: 200,
                residual_tol: 1e-9,
                step_tol: 1e-12,
                max_step: 1.0,
                damping: 0.5,
                lu_reuse: true,
            },
            recovery: RecoveryPolicy::default(),
            fault_plan: None,
            tuning: SolverTuning::default(),
        }
    }

    /// Sets the ambient temperature in °C (a test *stress*).
    pub fn with_temperature(mut self, temp_celsius: f64) -> Self {
        self.temp = temp_celsius;
        self
    }

    /// Sets the minimum node-to-ground conductance (default 1 pS).
    pub fn with_gmin(mut self, gmin: f64) -> Self {
        self.gmin = gmin;
        self
    }

    /// Sets the convergence-recovery policy (default: all rungs enabled).
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Arms a deterministic fault-injection plan: every Newton solve this
    /// simulator performs consumes one ordinal from the plan and is
    /// corrupted when the plan schedules a fault there. Test-only in
    /// spirit, but available unconditionally so campaign layers can thread
    /// plans through without feature gymnastics.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the hot-path solver tuning (default: LU reuse on, 100 µV device
    /// bypass). `SolverTuning::legacy()` restores the untuned solver
    /// bit-for-bit.
    pub fn with_tuning(mut self, tuning: SolverTuning) -> Self {
        self.tuning = tuning;
        self.newton.lu_reuse = tuning.lu_reuse;
        self
    }

    /// Ambient temperature in °C.
    pub fn temperature(&self) -> f64 {
        self.temp
    }

    /// The recovery policy in force.
    pub fn recovery_policy(&self) -> &RecoveryPolicy {
        &self.recovery
    }

    /// The hot-path solver tuning in force.
    pub fn tuning(&self) -> &SolverTuning {
        &self.tuning
    }

    /// Builds an MNA system for `circuit` with this simulator's
    /// temperature, gmin, and bypass tolerance. Fault-armed simulators get
    /// a zero bypass tolerance: an injected fault must never be masked by
    /// a device cache, and the plan's solve ordinals must count exactly
    /// the evaluations the untuned path performs.
    fn make_system<'x>(&self, circuit: &'x Circuit) -> MnaSystem<'x> {
        let mut system = MnaSystem::new(circuit, self.temp, self.gmin);
        system.bypass_tol = if self.fault_plan.is_some() {
            0.0
        } else {
            self.tuning.bypass_tol
        };
        system
    }

    /// Runs one Newton solve, routing it through the armed fault plan (if
    /// any) and counting the attempt. `reuse` lets the solve start from
    /// the solver's previous LU factorization instead of refactoring at
    /// iteration zero (see [`NewtonSolver::solve_reusing`]) — only pass it
    /// when the previous solve factored the *same* system a short step
    /// away in state.
    fn run_solve(
        &self,
        solver: &mut NewtonSolver,
        system: &mut MnaSystem<'_>,
        x: &mut [f64],
        stats: &mut RecoveryStats,
        reuse: bool,
    ) -> Result<NewtonStats, NumError> {
        stats.solve_attempts += 1;
        dso_obs::counter!("spice.solve_attempts").incr();
        let out = match &self.fault_plan {
            Some(plan) => {
                let mut chaos = ChaosSystem::arm(system, plan);
                if reuse {
                    solver.solve_reusing(&mut chaos, x)
                } else {
                    solver.solve(&mut chaos, x)
                }
            }
            None if reuse => solver.solve_reusing(system, x),
            None => solver.solve(system, x),
        };
        if let Ok(s) = &out {
            stats.newton_iters += s.iterations;
            stats.lu_refactors += s.lu_refactors;
            stats.lu_reuses += s.lu_reuses;
        }
        out
    }

    fn vsource_names(&self) -> Vec<String> {
        self.circuit
            .devices()
            .iter()
            .zip(self.circuit.device_names())
            .filter(|(d, _)| d.has_branch_current())
            .map(|(_, n)| n.clone())
            .collect()
    }

    /// Solves the DC operating point with sources at their `t = 0` values.
    ///
    /// Uses gmin stepping as a homotopy when the direct solve fails.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::BadTopology`] if the circuit fails validation.
    /// * [`SpiceError::Convergence`] if no operating point is found.
    pub fn dc_operating_point(&self) -> Result<Solution, SpiceError> {
        let _span = dso_obs::span("spice.dc_op");
        self.circuit.validate()?;
        let mut system = self.make_system(self.circuit);
        system.time = 0.0;
        let mut solver = NewtonSolver::new(self.newton.clone());
        let mut x = vec![0.0; system.unknowns()];
        let mut stats = RecoveryStats::default();
        // Direct attempt, then gmin homotopy.
        match self.run_solve(&mut solver, &mut system, &mut x, &mut stats, false) {
            Ok(_) => {}
            Err(first_err) => {
                if !self.recovery.gmin_stepping {
                    return Err(SpiceError::Convergence {
                        time: None,
                        attempts: stats.solve_attempts,
                        source: first_err,
                    });
                }
                x.iter_mut().for_each(|v| *v = 0.0);
                let gmin_ladder = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, self.gmin];
                for &g in &gmin_ladder {
                    dso_obs::counter!("spice.dc_gmin_steps").incr();
                    system.set_gmin(g.max(self.gmin));
                    self.run_solve(&mut solver, &mut system, &mut x, &mut stats, false)
                        .map_err(|e| SpiceError::Convergence {
                            time: None,
                            attempts: stats.solve_attempts,
                            source: e,
                        })?;
                }
            }
        }
        Ok(Solution {
            node_names: self.circuit.node_names().to_vec(),
            vsource_names: self.vsource_names(),
            x,
        })
    }

    /// Sweeps the DC value of a voltage source and solves the operating
    /// point at each step, warm-starting each solve from the previous one
    /// (the classic `.dc` analysis, used for device I–V characterization
    /// and transfer curves).
    ///
    /// The source's waveform is temporarily replaced; the circuit is not
    /// modified (the sweep works on an internal copy).
    ///
    /// # Errors
    ///
    /// * [`SpiceError::UnknownDevice`]/[`SpiceError::BadParameter`] if
    ///   `source` is not a voltage source.
    /// * [`SpiceError::BadAnalysis`] for an empty sweep.
    /// * [`SpiceError::Convergence`] if any point fails to solve.
    pub fn dc_sweep(&self, source: &str, values: &[f64]) -> Result<Vec<Solution>, SpiceError> {
        if values.is_empty() {
            return Err(SpiceError::BadAnalysis("dc sweep needs values".into()));
        }
        self.circuit.validate()?;
        let mut ckt = self.circuit.clone();
        // Verify the device is a vsource up front for a clean error.
        ckt.set_waveform(source, Waveform::Dc(values[0]))?;

        let mut out = Vec::with_capacity(values.len());
        let mut guess: Option<Vec<f64>> = None;
        let node_names = ckt.node_names().to_vec();
        let vsource_names = self.vsource_names();
        // One solver for the whole sweep: its factorization and scratch
        // buffers are sized once and reused at every point.
        let mut solver = NewtonSolver::new(self.newton.clone());
        for &v in values {
            ckt.set_waveform(source, Waveform::Dc(v))?;
            let mut system = self.make_system(&ckt);
            system.time = 0.0;
            let mut stats = RecoveryStats::default();
            let mut x = guess
                .clone()
                .unwrap_or_else(|| vec![0.0; system.unknowns()]);
            self.run_solve(&mut solver, &mut system, &mut x, &mut stats, false)
                .map_err(|e| SpiceError::Convergence {
                    time: None,
                    attempts: stats.solve_attempts,
                    source: e,
                })?;
            guess = Some(x.clone());
            out.push(Solution {
                node_names: node_names.clone(),
                vsource_names: vsource_names.clone(),
                x,
            });
        }
        Ok(out)
    }

    /// Runs a fixed-step transient analysis.
    ///
    /// The first step (and any convergence-retry sub-step) uses backward
    /// Euler; subsequent steps use the configured method. When a time step
    /// fails to converge, the configured [`RecoveryPolicy`] ladder is
    /// climbed (method fallback → timestep subdivision → gmin stepping)
    /// before the error is surfaced; actions taken are reported in the
    /// result's [`TranResult::recovery`] stats.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::BadTopology`] if the circuit fails validation.
    /// * [`SpiceError::UnknownNode`] if an initial condition names a
    ///   missing node.
    /// * [`SpiceError::Convergence`] if a time step cannot be solved even
    ///   after recovery.
    pub fn transient(&self, options: &TranOptions) -> Result<TranResult, SpiceError> {
        self.transient_seeded(options, None)
    }

    /// Runs a transient analysis like [`Simulator::transient`], but seeds
    /// each time step's Newton iteration from `seed` — the result of a
    /// neighboring run on the same time grid (e.g. the adjacent defect
    /// resistance of a sweep) — when a sample at the step's exact time
    /// point is available.
    ///
    /// Seeding only changes the *initial guess* of the first solve attempt
    /// of each step; recovery-ladder retries always restart from the
    /// previous committed state, so [`RecoveryPolicy`] semantics are
    /// unchanged and a misleading seed degrades to the cold-start path. A
    /// seed with a different time grid or unknown count is ignored
    /// entirely.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulator::transient`].
    pub fn transient_seeded(
        &self,
        options: &TranOptions,
        seed: Option<&TranResult>,
    ) -> Result<TranResult, SpiceError> {
        let _span = dso_obs::span("spice.transient");
        dso_obs::counter!("spice.transients").incr();
        self.circuit.validate()?;
        let mut system = self.make_system(self.circuit);
        let n = system.unknowns();

        // --- Initial state ---------------------------------------------
        let mut x = vec![0.0; n];
        match &options.start {
            StartMode::DcOperatingPoint => {
                let op = self.dc_operating_point()?;
                x.copy_from_slice(op.as_slice());
            }
            StartMode::UseIc(ics) => {
                // Capacitor initial voltages seed their positive terminal
                // relative to the negative one (two passes so chains of
                // caps referenced to ground settle).
                for _ in 0..2 {
                    for device in self.circuit.devices() {
                        if let Device::Capacitor {
                            p,
                            n: neg,
                            initial_voltage: Some(v0),
                            ..
                        } = device
                        {
                            if !p.is_ground() {
                                let vn = if neg.is_ground() { 0.0 } else { x[neg.0 - 1] };
                                x[p.0 - 1] = vn + v0;
                            }
                        }
                    }
                }
                for (name, v) in ics {
                    let node = self.circuit.find_node(name)?;
                    if !node.is_ground() {
                        x[node.0 - 1] = *v;
                    }
                }
            }
        }

        // Capacitor states from the initial node voltages.
        let mut cap_states: Vec<Option<CapState>> = self
            .circuit
            .devices()
            .iter()
            .map(|d| match d {
                Device::Capacitor { p, n, .. } => {
                    let vp = if p.is_ground() { 0.0 } else { x[p.0 - 1] };
                    let vn = if n.is_ground() { 0.0 } else { x[n.0 - 1] };
                    Some(CapState {
                        v_prev: vp - vn,
                        i_prev: 0.0,
                    })
                }
                _ => None,
            })
            .collect();

        let n_node_vars = self.circuit.node_count() - 1;
        let mut solver = NewtonSolver::new(self.newton.clone());

        let steps = (options.t_stop / options.dt).round() as usize;
        let mut times = Vec::with_capacity(steps + 1);
        let mut samples = Vec::with_capacity(steps + 1);
        times.push(0.0);
        samples.push(x.clone());
        let mut stats = RecoveryStats::default();
        // One trial vector reused by every step attempt of the run.
        let mut trial = vec![0.0; n];
        let vsource_names = self.vsource_names();

        if let Some(adaptive) = options.adaptive {
            adaptive.validate()?;
            // LTE-controlled stepping: each step is solved with both the
            // trapezoidal and the backward-Euler method from the same
            // state; their difference is proportional to the local
            // truncation error and drives the step size.
            let mut t = 0.0_f64;
            let mut dt = options.dt.clamp(adaptive.dt_min, adaptive.dt_max);
            let mut first_step = true;
            while t < options.t_stop - 1e-18 {
                let dt_eff = dt.min(options.t_stop - t);
                let t_next = t + dt_eff;
                let trial_method = if first_step {
                    Method::BackwardEuler
                } else {
                    Method::Trapezoidal
                };

                let mut x_tr = x.clone();
                let mut cs_tr = cap_states.clone();
                self.advance(
                    &mut system,
                    &mut solver,
                    &mut x_tr,
                    &mut cs_tr,
                    &mut trial,
                    None,
                    false,
                    t,
                    t_next,
                    trial_method,
                    0,
                    &mut stats,
                )?;
                // The backward-Euler error-estimate solve lands within the
                // truncation error of the trial solution it just computed,
                // so warm-start it from `x_tr` and let it reuse the trial
                // solve's LU factorization — on smooth stretches the
                // estimate converges in back-substitutions alone, halving
                // the cost of adaptive stepping.
                let mut x_be = x.clone();
                let mut cs_be = cap_states.clone();
                self.advance(
                    &mut system,
                    &mut solver,
                    &mut x_be,
                    &mut cs_be,
                    &mut trial,
                    Some(&x_tr),
                    true,
                    t,
                    t_next,
                    Method::BackwardEuler,
                    0,
                    &mut stats,
                )?;
                let err = x_tr
                    .iter()
                    .zip(&x_be)
                    .take(n_node_vars)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0_f64, f64::max);

                if err > adaptive.lte_tol && dt_eff > adaptive.dt_min * 1.000_001 {
                    dt = (0.5 * dt_eff).max(adaptive.dt_min);
                    continue;
                }
                x.copy_from_slice(&x_tr);
                cap_states = cs_tr;
                t = t_next;
                times.push(t);
                samples.push(x.clone());
                first_step = false;
                if err < 0.25 * adaptive.lte_tol {
                    dt = (2.0 * dt_eff).min(adaptive.dt_max);
                } else {
                    dt = dt_eff;
                }
            }
            debug_assert_eq!(n_node_vars + vsource_names.len(), n);
            system.fold_counters(&mut stats);
            return Ok(TranResult {
                node_names: self.circuit.node_names().to_vec(),
                vsource_names,
                times,
                samples,
                recovery: stats,
            });
        }

        let mut first_step = true;
        // Predictor buffer for warm-started steps (reused across the run).
        let mut warm_buf = vec![0.0; n];
        for step in 1..=steps {
            let t_target = if step == steps {
                options.t_stop
            } else {
                step as f64 * options.dt
            };
            let t_prev = times[times.len() - 1];
            // Warm-start predictor: add the seed trajectory's step
            // increment to our own committed state. On smooth stretches
            // the increment is ~0 and the guess degenerates to plain
            // continuation; across switching edges it injects the edge
            // jump the seed has already resolved. Both samples must sit on
            // the same (bitwise) time grid or the seed is ignored.
            let mut have_warm = false;
            if let Some(s) = seed {
                if let (Some(cur), Some(prev)) = (s.guess_at(t_target, n), s.guess_at(t_prev, n)) {
                    for (b, ((xi, c), p)) in warm_buf.iter_mut().zip(x.iter().zip(cur).zip(prev)) {
                        *b = xi + (c - p);
                    }
                    have_warm = true;
                }
            }
            let warm = if have_warm {
                Some(warm_buf.as_slice())
            } else {
                None
            };
            // The first attempt of every step starts from the solver's
            // retained LU (modified-Newton across time steps: the
            // Jacobian drifts slowly along a fixed-step transient). Step
            // one has nothing retained and degenerates to a full solve;
            // recovery rungs always refactor. Like device bypass, the
            // reuse is off while a fault plan is armed: injected faults
            // hook residual/Jacobian evaluations, and a solve that never
            // stamps would silently consume its fault ordinal.
            self.advance(
                &mut system,
                &mut solver,
                &mut x,
                &mut cap_states,
                &mut trial,
                warm,
                self.fault_plan.is_none(),
                t_prev,
                t_target,
                if first_step {
                    Method::BackwardEuler
                } else {
                    options.method
                },
                0,
                &mut stats,
            )?;
            first_step = false;
            times.push(t_target);
            samples.push(x.clone());
        }
        debug_assert_eq!(n_node_vars + vsource_names.len(), n);
        system.fold_counters(&mut stats);
        Ok(TranResult {
            node_names: self.circuit.node_names().to_vec(),
            vsource_names,
            times,
            samples,
            recovery: stats,
        })
    }

    /// Prepares the companion models for one step and solves it from
    /// `guess`, leaving the trial solution in `trial` (reused across steps
    /// so the steady-state path stays allocation-free). Does **not**
    /// commit: `x` and capacitor states are untouched, so a failed attempt
    /// can be retried with a different method, step, or gmin.
    ///
    /// `alt`, when present, is a competing initial guess (a warm-start
    /// seed): after the step's companions are installed, both candidates'
    /// residual norms are probed and the iteration starts from the better
    /// one. Continuation from the previous state usually wins on smooth
    /// stretches; the neighbor's sample wins across switching edges, where
    /// the continuation guess is far from the post-edge solution.
    #[allow(clippy::too_many_arguments)]
    fn try_step(
        &self,
        system: &mut MnaSystem<'_>,
        solver: &mut NewtonSolver,
        guess: &[f64],
        alt: Option<&[f64]>,
        cap_states: &[Option<CapState>],
        trial: &mut Vec<f64>,
        t_prev: f64,
        t_target: f64,
        method: Method,
        stats: &mut RecoveryStats,
        reuse: bool,
    ) -> Result<(), SpiceError> {
        let dt = t_target - t_prev;
        system.time = t_target;
        system.base_dirty = true;
        system.companions.clear();
        system.companions.resize(self.circuit.device_count(), None);
        for (idx, device) in self.circuit.devices().iter().enumerate() {
            if let Device::Capacitor { capacitance, .. } = device {
                let state = cap_states[idx].ok_or_else(|| {
                    SpiceError::BadAnalysis("capacitor state not initialized".into())
                })?;
                if *capacitance > 0.0 {
                    // A companion-model failure is a configuration error
                    // (non-positive dt), not a convergence failure — it is
                    // surfaced immediately and never retried.
                    let comp = method
                        .companion(*capacitance, dt, state.v_prev, state.i_prev)
                        .map_err(SpiceError::Numerical)?;
                    system.companions[idx] = Some(comp);
                }
            }
        }
        let mut start = guess;
        if let Some(alt) = alt {
            // A failed probe (non-finite residual) disqualifies only that
            // candidate; the solve itself decides whether the step fails.
            system.warm_probe_evals += 2;
            let g = solver.residual_norm(system, guess).unwrap_or(f64::INFINITY);
            let a = solver.residual_norm(system, alt).unwrap_or(f64::INFINITY);
            if a.is_finite() && a < g {
                start = alt;
            }
        }
        trial.clear();
        trial.extend_from_slice(start);
        self.run_solve(solver, system, trial, stats, reuse)
            .map_err(|e| SpiceError::Convergence {
                time: Some(t_target),
                attempts: stats.solve_attempts,
                source: e,
            })?;
        Ok(())
    }

    /// Commits an accepted trial solution: updates capacitor states from
    /// the companions currently installed in `system` and copies the
    /// solution into `x`.
    fn commit_step(
        &self,
        system: &MnaSystem<'_>,
        x: &mut [f64],
        cap_states: &mut [Option<CapState>],
        trial: &[f64],
        method: Method,
    ) {
        for (idx, device) in self.circuit.devices().iter().enumerate() {
            if let Device::Capacitor { p, n, .. } = device {
                let vp = if p.is_ground() { 0.0 } else { trial[p.0 - 1] };
                let vn = if n.is_ground() { 0.0 } else { trial[n.0 - 1] };
                let v_new = vp - vn;
                if let Some(state) = cap_states[idx].as_mut() {
                    if let Some(comp) = system.companions[idx] {
                        state.i_prev = method.current(comp, v_new);
                    } else {
                        state.i_prev = 0.0;
                    }
                    state.v_prev = v_new;
                }
            }
        }
        x.copy_from_slice(trial);
    }

    /// gmin-stepping homotopy for one stubborn time step: solves the step
    /// repeatedly while relaxing the minimum conductance from 10 mS back
    /// down to the configured gmin, warm-starting each rung from the
    /// previous solution. All rungs use backward Euler. Restores
    /// `system.gmin` on every exit path.
    #[allow(clippy::too_many_arguments)]
    fn gmin_step(
        &self,
        system: &mut MnaSystem<'_>,
        solver: &mut NewtonSolver,
        x: &[f64],
        cap_states: &[Option<CapState>],
        trial: &mut Vec<f64>,
        t_prev: f64,
        t_target: f64,
        stats: &mut RecoveryStats,
    ) -> Result<(), SpiceError> {
        stats.gmin_retries += 1;
        dso_obs::counter!("recovery.gmin_retries").incr();
        let base = self.gmin;
        let ladder = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, base];
        // This is the rarely-taken deepest recovery rung; one scratch guess
        // per homotopy is fine.
        let mut guess = x.to_vec();
        for &g in &ladder {
            system.set_gmin(g.max(base));
            match self.try_step(
                system,
                solver,
                &guess,
                None,
                cap_states,
                trial,
                t_prev,
                t_target,
                Method::BackwardEuler,
                stats,
                false,
            ) {
                Ok(()) => guess.copy_from_slice(trial),
                Err(e) => {
                    system.set_gmin(base);
                    return Err(e);
                }
            }
        }
        system.set_gmin(base);
        Ok(())
    }

    /// Advances the state from `t_prev` to `t_target`, climbing the
    /// recovery ladder on convergence failure:
    ///
    /// 1. the requested integration method;
    /// 2. backward Euler on the same step (`method_fallback`);
    /// 3. recursive midpoint subdivision, backward Euler, down to
    ///    `max_subdivisions` levels;
    /// 4. at the deepest level, gmin stepping (`gmin_stepping`).
    ///
    /// `warm`, when present, competes with the previous committed state
    /// for the *initial guess* of the first solve attempt only (the lower
    /// residual norm wins — a warm-start seed from a neighboring run);
    /// every retry rung restarts from `x`, so a bad seed degrades to
    /// exactly the cold-start recovery behaviour. `reuse_first` likewise
    /// applies only to the first attempt: it lets that solve start from
    /// the solver's previous LU factorization; every recovery rung
    /// refactors from scratch.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &self,
        system: &mut MnaSystem<'_>,
        solver: &mut NewtonSolver,
        x: &mut [f64],
        cap_states: &mut [Option<CapState>],
        trial: &mut Vec<f64>,
        warm: Option<&[f64]>,
        reuse_first: bool,
        t_prev: f64,
        t_target: f64,
        method: Method,
        depth: usize,
        stats: &mut RecoveryStats,
    ) -> Result<(), SpiceError> {
        let first_err = match self.try_step(
            system,
            solver,
            x,
            warm,
            cap_states,
            trial,
            t_prev,
            t_target,
            method,
            stats,
            reuse_first,
        ) {
            Ok(()) => {
                self.commit_step(system, x, cap_states, trial, method);
                return Ok(());
            }
            Err(e @ SpiceError::Convergence { .. }) => e,
            // Anything other than a convergence failure (bad companion,
            // inconsistent state) is not recoverable by retrying.
            Err(e) => return Err(e),
        };

        // Rung 1: same step, backward Euler.
        if self.recovery.method_fallback && method != Method::BackwardEuler {
            stats.method_fallbacks += 1;
            dso_obs::counter!("recovery.method_fallbacks").incr();
            if self
                .try_step(
                    system,
                    solver,
                    x,
                    None,
                    cap_states,
                    trial,
                    t_prev,
                    t_target,
                    Method::BackwardEuler,
                    stats,
                    false,
                )
                .is_ok()
            {
                self.commit_step(system, x, cap_states, trial, Method::BackwardEuler);
                stats.recovered_steps += 1;
                dso_obs::counter!("recovery.recovered_steps").incr();
                return Ok(());
            }
        }

        // Rung 2: subdivide at the midpoint, both halves backward Euler.
        // Deeper failures climb their own ladder; the deepest level falls
        // through to gmin stepping below.
        if depth < self.recovery.max_subdivisions {
            stats.subdivisions += 1;
            stats.deepest_subdivision = stats.deepest_subdivision.max(depth + 1);
            dso_obs::counter!("recovery.subdivisions").incr();
            dso_obs::histogram!("recovery.subdivision_depth", &[1.0, 2.0, 3.0, 4.0, 6.0])
                .observe((depth + 1) as f64);
            let t_mid = 0.5 * (t_prev + t_target);
            self.advance(
                system,
                solver,
                x,
                cap_states,
                trial,
                None,
                false,
                t_prev,
                t_mid,
                Method::BackwardEuler,
                depth + 1,
                stats,
            )?;
            self.advance(
                system,
                solver,
                x,
                cap_states,
                trial,
                None,
                false,
                t_mid,
                t_target,
                Method::BackwardEuler,
                depth + 1,
                stats,
            )?;
            stats.recovered_steps += 1;
            dso_obs::counter!("recovery.recovered_steps").incr();
            return Ok(());
        }

        // Rung 3 (deepest subdivision only): gmin stepping.
        if self.recovery.gmin_stepping
            && self
                .gmin_step(
                    system, solver, x, cap_states, trial, t_prev, t_target, stats,
                )
                .is_ok()
        {
            self.commit_step(system, x, cap_states, trial, Method::BackwardEuler);
            stats.recovered_steps += 1;
            dso_obs::counter!("recovery.recovered_steps").incr();
            return Ok(());
        }

        // Ladder exhausted: surface the original failure, with the total
        // attempt count spent on this run.
        match first_err {
            SpiceError::Convergence { time, source, .. } => Err(SpiceError::Convergence {
                time,
                attempts: stats.solve_attempts,
                source,
            }),
            e => Err(e),
        }
    }
}

/// Bypass anchor for one MOSFET: the terminal voltages of its last model
/// evaluation and the evaluation itself.
#[derive(Debug, Clone, Copy)]
struct MosBypass {
    vgs: f64,
    vds: f64,
    vbs: f64,
    eval: mos::MosEval,
}

/// Bypass anchor for one diode: junction voltage, current, conductance.
#[derive(Debug, Clone, Copy)]
struct DiodeBypass {
    vd: f64,
    i: f64,
    g: f64,
}

/// The MNA nonlinear system for one time point (or the DC operating point
/// when no companion models are installed).
///
/// When `bypass_tol > 0` the system assembles incrementally: everything
/// linear in `x` (gmin leak, resistors, capacitor companions, source
/// patterns) is stamped once per `(time, companions, gmin)` configuration
/// into the sparse `base`/`lin_rhs`, and each residual/Jacobian evaluation
/// is a sparse matrix-vector product (or a scatter) plus the nonlinear
/// device stamps — with MOSFETs and diodes bypassed when their terminal
/// voltages have not moved. `bypass_tol == 0` routes every evaluation
/// through the legacy [`MnaSystem::stamp`] loop, bit-for-bit.
struct MnaSystem<'a> {
    circuit: &'a Circuit,
    temp: f64,
    gmin: f64,
    time: f64,
    /// Companion model per device index (capacitors only, transient only).
    companions: Vec<Option<Companion>>,
    /// Branch-current variable index per device index (voltage sources).
    branch_var: Vec<Option<usize>>,
    n_unknowns: usize,
    /// Device bypass tolerance in volts; `0` disables the incremental
    /// fast path entirely (see [`SolverTuning::bypass_tol`]).
    bypass_tol: f64,
    /// `true` when `base`/`lin_rhs` no longer match the current
    /// `(time, companions, gmin)` configuration.
    base_dirty: bool,
    /// Constant (in `x`) part of the Jacobian, over the fixed pattern.
    base: LinearBase,
    /// Constant (in `x`) part of the residual.
    lin_rhs: Vec<f64>,
    /// Per-device bypass anchors (index-aligned with the device list).
    mos_cache: Vec<Option<MosBypass>>,
    diode_cache: Vec<Option<DiodeBypass>>,
    bypass_hits: usize,
    bypass_misses: usize,
    /// Residual evaluations by kind since the last fold (see
    /// [`MnaSystem::fold_counters`]).
    residual_evals: usize,
    exact_residual_evals: usize,
    warm_probe_evals: usize,
}

/// Value slots of one linear device's base stamps, in stamp order:
/// `[pp, nn, pn, np]` for a conductance between `p` and `n`, and
/// `[(p, br), (br, p), (n, br), (br, n)]` for a voltage source with branch
/// row `br`. Entries whose stamp would touch ground are never read.
type DeviceSlots = [usize; 4];

/// Placeholder for a slot whose stamp touches ground.
const GROUND_SLOT: usize = usize::MAX;

/// The linear base of the MNA Jacobian in compressed sparse rows. The
/// pattern — the gmin diagonal, every resistor, every capacitor (with or
/// without a companion) and every voltage-source pattern — depends on the
/// topology alone, so it is computed once per system; only `vals` change
/// from step to step.
#[derive(Debug, Clone)]
struct LinearBase {
    /// Row `i` occupies `cols[ptr[i]..ptr[i + 1]]` (ascending) and the
    /// same range of `vals`.
    ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// Slot of each node row's diagonal (the gmin leak).
    diag: Vec<usize>,
    /// Per-device stamp slots (index-aligned with the device list).
    devices: Vec<DeviceSlots>,
}

impl LinearBase {
    fn new(circuit: &Circuit, branch_var: &[Option<usize>], n_unknowns: usize) -> Self {
        let n_nodes = circuit.node_count() - 1;
        let row = |node: NodeId| (!node.is_ground()).then(|| node.0 - 1);
        // Every stamp position, as (row, col) per device in stamp order.
        let positions = |idx: usize, device: &Device| -> [Option<(usize, usize)>; 4] {
            match device {
                Device::Resistor { p, n, .. } | Device::Capacitor { p, n, .. } => {
                    let (p, n) = (row(*p), row(*n));
                    let both = p.zip(n);
                    [
                        p.map(|p| (p, p)),
                        n.map(|n| (n, n)),
                        both,
                        both.map(|(p, n)| (n, p)),
                    ]
                }
                Device::VSource { p, n, .. } => {
                    let br = branch_var[idx].expect("vsource has branch");
                    let (p, n) = (row(*p), row(*n));
                    [
                        p.map(|p| (p, br)),
                        p.map(|p| (br, p)),
                        n.map(|n| (n, br)),
                        n.map(|n| (br, n)),
                    ]
                }
                _ => [None; 4],
            }
        };
        let mut pattern: Vec<(usize, usize)> = (0..n_nodes).map(|i| (i, i)).collect();
        for (idx, device) in circuit.devices().iter().enumerate() {
            pattern.extend(positions(idx, device).into_iter().flatten());
        }
        pattern.sort_unstable();
        pattern.dedup();
        let mut ptr = vec![0; n_unknowns + 1];
        for &(r, _) in &pattern {
            ptr[r + 1] += 1;
        }
        for r in 0..n_unknowns {
            ptr[r + 1] += ptr[r];
        }
        let cols: Vec<usize> = pattern.iter().map(|&(_, c)| c).collect();
        let slot = |(r, c): (usize, usize)| {
            ptr[r]
                + cols[ptr[r]..ptr[r + 1]]
                    .binary_search(&c)
                    .expect("in pattern")
        };
        let diag = (0..n_nodes).map(|i| slot((i, i))).collect();
        let devices = circuit
            .devices()
            .iter()
            .enumerate()
            .map(|(idx, device)| positions(idx, device).map(|pos| pos.map_or(GROUND_SLOT, slot)))
            .collect();
        LinearBase {
            vals: vec![0.0; cols.len()],
            ptr,
            cols,
            diag,
            devices,
        }
    }

    /// Stamps a two-terminal conductance into its slots, in the order of
    /// the dense stamp: `pp`, `nn`, then `pn` and `np`.
    fn conductance(&mut self, idx: usize, p: NodeId, n: NodeId, g: f64) {
        let [pp, nn, pn, np] = self.devices[idx];
        if !p.is_ground() {
            self.vals[pp] += g;
        }
        if !n.is_ground() {
            self.vals[nn] += g;
        }
        if !p.is_ground() && !n.is_ground() {
            self.vals[pn] -= g;
            self.vals[np] -= g;
        }
    }

    /// `out = base·x + rhs`, each row summed over its pattern in ascending
    /// column order.
    fn mul_add(&self, x: &[f64], rhs: &[f64], out: &mut [f64]) {
        for (i, (o, r)) in out.iter_mut().zip(rhs).enumerate() {
            let range = self.ptr[i]..self.ptr[i + 1];
            let mut sum = 0.0;
            for (&j, &v) in self.cols[range.clone()].iter().zip(&self.vals[range]) {
                sum += v * x[j];
            }
            *o = sum + r;
        }
    }

    /// Writes the base entries into a cleared dense matrix.
    fn scatter(&self, jac: &mut DMatrix) {
        for i in 0..self.ptr.len() - 1 {
            for p in self.ptr[i]..self.ptr[i + 1] {
                jac[(i, self.cols[p])] = self.vals[p];
            }
        }
    }
}

impl<'a> MnaSystem<'a> {
    fn new(circuit: &'a Circuit, temp: f64, gmin: f64) -> Self {
        let n_nodes = circuit.node_count() - 1;
        let mut branch_var = vec![None; circuit.device_count()];
        let mut next = n_nodes;
        for (idx, device) in circuit.devices().iter().enumerate() {
            if device.has_branch_current() {
                branch_var[idx] = Some(next);
                next += 1;
            }
        }
        let base = LinearBase::new(circuit, &branch_var, next);
        MnaSystem {
            circuit,
            temp,
            gmin,
            time: 0.0,
            companions: vec![None; circuit.device_count()],
            branch_var,
            n_unknowns: next,
            bypass_tol: 0.0,
            base_dirty: true,
            base,
            lin_rhs: vec![0.0; next],
            mos_cache: vec![None; circuit.device_count()],
            diode_cache: vec![None; circuit.device_count()],
            bypass_hits: 0,
            bypass_misses: 0,
            residual_evals: 0,
            exact_residual_evals: 0,
            warm_probe_evals: 0,
        }
    }

    /// Changes the minimum conductance, invalidating the linear base (the
    /// gmin leak lives on its diagonal). Homotopy ladders must use this
    /// instead of writing the field.
    fn set_gmin(&mut self, gmin: f64) {
        if self.gmin != gmin {
            self.gmin = gmin;
            self.base_dirty = true;
        }
    }

    /// Drains the bypass counters into a stats tally and, with the
    /// residual-evaluation counters, into the process-wide metrics,
    /// leaving them zeroed so a system shared across phases never
    /// double-counts.
    fn fold_counters(&mut self, stats: &mut RecoveryStats) {
        for (counter, count) in [
            (dso_obs::counter!("spice.bypass_hits"), self.bypass_hits),
            (dso_obs::counter!("spice.bypass_misses"), self.bypass_misses),
            (
                dso_obs::counter!("spice.residual_evals"),
                self.residual_evals,
            ),
            (
                dso_obs::counter!("spice.exact_residual_evals"),
                self.exact_residual_evals,
            ),
            (
                dso_obs::counter!("spice.warm_probe_evals"),
                self.warm_probe_evals,
            ),
        ] {
            if count > 0 {
                counter.add(count as u64);
            }
        }
        stats.bypass_hits += self.bypass_hits;
        stats.bypass_misses += self.bypass_misses;
        self.bypass_hits = 0;
        self.bypass_misses = 0;
        self.residual_evals = 0;
        self.exact_residual_evals = 0;
        self.warm_probe_evals = 0;
    }

    /// Rebuilds the linear base if the step configuration changed since it
    /// was last stamped. Everything whose contribution is affine in `x` —
    /// gmin leak, resistors, capacitor companions, source values, voltage
    /// source patterns — lands here once, with the same `+=` sequence per
    /// entry as a dense stamp; per-iteration evaluations then start from a
    /// sparse matvec/scatter of it instead of re-stamping.
    fn ensure_base(&mut self) {
        if !self.base_dirty {
            return;
        }
        self.base.vals.fill(0.0);
        self.lin_rhs.fill(0.0);
        for &slot in &self.base.diag {
            self.base.vals[slot] += self.gmin;
        }
        for (idx, device) in self.circuit.devices().iter().enumerate() {
            match device {
                Device::Resistor { p, n, resistance } => {
                    let g = 1.0 / resistance;
                    self.base.conductance(idx, *p, *n, g);
                }
                Device::Capacitor { p, n, .. } => {
                    if let Some(comp) = self.companions[idx] {
                        self.base.conductance(idx, *p, *n, comp.geq);
                        if !p.is_ground() {
                            self.lin_rhs[p.0 - 1] -= comp.ieq;
                        }
                        if !n.is_ground() {
                            self.lin_rhs[n.0 - 1] += comp.ieq;
                        }
                    }
                }
                Device::VSource { p, n, waveform } => {
                    let br = self.branch_var[idx].expect("vsource has branch");
                    let [p_br, br_p, n_br, br_n] = self.base.devices[idx];
                    if !p.is_ground() {
                        self.base.vals[p_br] += 1.0;
                        self.base.vals[br_p] += 1.0;
                    }
                    if !n.is_ground() {
                        self.base.vals[n_br] -= 1.0;
                        self.base.vals[br_n] -= 1.0;
                    }
                    self.lin_rhs[br] -= waveform.eval(self.time);
                }
                Device::ISource { p, n, waveform } => {
                    let i = waveform.eval(self.time);
                    if !p.is_ground() {
                        self.lin_rhs[p.0 - 1] += i;
                    }
                    if !n.is_ground() {
                        self.lin_rhs[n.0 - 1] -= i;
                    }
                }
                // Nonlinear devices are stamped per evaluation.
                Device::Mosfet { .. } | Device::Diode { .. } | Device::VSwitch { .. } => {}
            }
        }
        self.base_dirty = false;
    }

    /// Stamps the nonlinear devices (MOSFETs, diodes, switches) on top of
    /// the linear base, bypassing a device's model evaluation when every
    /// terminal voltage sits within `bypass_tol` of its anchor — the
    /// cached current is then corrected to first order along the cached
    /// conductances, so a hit is exact to O(Δv²). `force_eval` (the exact
    /// residual) evaluates everything and refreshes the anchors.
    fn stamp_nonlinear(
        &mut self,
        x: &[f64],
        mut res: Option<&mut [f64]>,
        mut jac: Option<&mut DMatrix>,
        force_eval: bool,
    ) {
        let tol = self.bypass_tol;
        let temp = self.temp;
        let add_res = |res: &mut Option<&mut [f64]>, node: NodeId, current: f64| {
            if let Some(res) = res.as_deref_mut() {
                if !node.is_ground() {
                    res[node.0 - 1] += current;
                }
            }
        };
        let add_jac = |jac: &mut Option<&mut DMatrix>, row: NodeId, col: NodeId, g: f64| {
            if let Some(jac) = jac.as_deref_mut() {
                if !row.is_ground() && !col.is_ground() {
                    jac[(row.0 - 1, col.0 - 1)] += g;
                }
            }
        };
        let circuit = self.circuit;
        for (idx, device) in circuit.devices().iter().enumerate() {
            match device {
                Device::Mosfet {
                    d,
                    g,
                    s,
                    b,
                    model,
                    geometry,
                } => {
                    let vgs = Self::volt(x, *g) - Self::volt(x, *s);
                    let vds = Self::volt(x, *d) - Self::volt(x, *s);
                    let vbs = Self::volt(x, *b) - Self::volt(x, *s);
                    let hit = if force_eval {
                        None
                    } else {
                        self.mos_cache[idx].filter(|c| {
                            (vgs - c.vgs).abs() <= tol
                                && (vds - c.vds).abs() <= tol
                                && (vbs - c.vbs).abs() <= tol
                        })
                    };
                    let (e, ids) = match hit {
                        Some(c) => {
                            self.bypass_hits += 1;
                            let ids = c.eval.ids
                                + c.eval.gm * (vgs - c.vgs)
                                + c.eval.gds * (vds - c.vds)
                                + c.eval.gmbs * (vbs - c.vbs);
                            (c.eval, ids)
                        }
                        None => {
                            self.bypass_misses += 1;
                            let e = mos::evaluate(model, *geometry, vgs, vds, vbs, temp);
                            self.mos_cache[idx] = Some(MosBypass {
                                vgs,
                                vds,
                                vbs,
                                eval: e,
                            });
                            (e, e.ids)
                        }
                    };
                    add_res(&mut res, *d, ids);
                    add_res(&mut res, *s, -ids);
                    let gsum = e.gm + e.gds + e.gmbs;
                    add_jac(&mut jac, *d, *d, e.gds);
                    add_jac(&mut jac, *d, *g, e.gm);
                    add_jac(&mut jac, *d, *b, e.gmbs);
                    add_jac(&mut jac, *d, *s, -gsum);
                    add_jac(&mut jac, *s, *d, -e.gds);
                    add_jac(&mut jac, *s, *g, -e.gm);
                    add_jac(&mut jac, *s, *b, -e.gmbs);
                    add_jac(&mut jac, *s, *s, gsum);
                }
                Device::Diode { p, n, model } => {
                    let vd = Self::volt(x, *p) - Self::volt(x, *n);
                    let hit = if force_eval {
                        None
                    } else {
                        self.diode_cache[idx].filter(|c| (vd - c.vd).abs() <= tol)
                    };
                    let (i, g) = match hit {
                        Some(c) => {
                            self.bypass_hits += 1;
                            (c.i + c.g * (vd - c.vd), c.g)
                        }
                        None => {
                            self.bypass_misses += 1;
                            let (i, g) = model.evaluate(vd, temp);
                            self.diode_cache[idx] = Some(DiodeBypass { vd, i, g });
                            (i, g)
                        }
                    };
                    add_res(&mut res, *p, i);
                    add_res(&mut res, *n, -i);
                    add_jac(&mut jac, *p, *p, g);
                    add_jac(&mut jac, *p, *n, -g);
                    add_jac(&mut jac, *n, *p, -g);
                    add_jac(&mut jac, *n, *n, g);
                }
                // Switches transition over tens of millivolts and sit on
                // the circuits' critical timing paths — never bypassed.
                Device::VSwitch {
                    p,
                    n,
                    cp,
                    cn,
                    ron,
                    roff,
                    threshold,
                    transition,
                } => {
                    let vc = Self::volt(x, *cp) - Self::volt(x, *cn);
                    let (g, dg_dvc) = switch_conductance(vc, *ron, *roff, *threshold, *transition);
                    let v = Self::volt(x, *p) - Self::volt(x, *n);
                    let i = g * v;
                    add_res(&mut res, *p, i);
                    add_res(&mut res, *n, -i);
                    add_jac(&mut jac, *p, *p, g);
                    add_jac(&mut jac, *p, *n, -g);
                    add_jac(&mut jac, *n, *p, -g);
                    add_jac(&mut jac, *n, *n, g);
                    let gc = dg_dvc * v;
                    add_jac(&mut jac, *p, *cp, gc);
                    add_jac(&mut jac, *p, *cn, -gc);
                    add_jac(&mut jac, *n, *cp, -gc);
                    add_jac(&mut jac, *n, *cn, gc);
                }
                _ => {}
            }
        }
    }

    /// The incremental residual: linear base matvec plus nonlinear stamps.
    fn fast_residual(&mut self, x: &[f64], out: &mut [f64], force_eval: bool) {
        self.ensure_base();
        self.base.mul_add(x, &self.lin_rhs, out);
        self.stamp_nonlinear(x, Some(out), None, force_eval);
    }

    #[inline]
    fn volt(x: &[f64], node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            x[node.0 - 1]
        }
    }

    /// Stamps every device into the residual and/or Jacobian.
    fn stamp(
        &self,
        x: &[f64],
        mut res: Option<&mut [f64]>,
        mut jac: Option<&mut DMatrix>,
    ) -> Result<(), NumError> {
        let n_nodes = self.circuit.node_count() - 1;
        // gmin leak from every node to ground.
        if let Some(res) = res.as_deref_mut() {
            for (i, r) in res.iter_mut().enumerate().take(n_nodes) {
                *r = self.gmin * x[i];
            }
            for r in res.iter_mut().skip(n_nodes) {
                *r = 0.0;
            }
        }
        if let Some(jac) = jac.as_deref_mut() {
            for i in 0..n_nodes {
                jac[(i, i)] += self.gmin;
            }
        }

        // Helper closures for KCL stamping.
        let add_res = |res: &mut Option<&mut [f64]>, node: NodeId, current: f64| {
            if let Some(res) = res.as_deref_mut() {
                if !node.is_ground() {
                    res[node.0 - 1] += current;
                }
            }
        };
        let add_jac = |jac: &mut Option<&mut DMatrix>, row: NodeId, col: NodeId, g: f64| {
            if let Some(jac) = jac.as_deref_mut() {
                if !row.is_ground() && !col.is_ground() {
                    jac[(row.0 - 1, col.0 - 1)] += g;
                }
            }
        };

        for (idx, device) in self.circuit.devices().iter().enumerate() {
            match device {
                Device::Resistor { p, n, resistance } => {
                    let g = 1.0 / resistance;
                    let i = g * (Self::volt(x, *p) - Self::volt(x, *n));
                    add_res(&mut res, *p, i);
                    add_res(&mut res, *n, -i);
                    add_jac(&mut jac, *p, *p, g);
                    add_jac(&mut jac, *p, *n, -g);
                    add_jac(&mut jac, *n, *p, -g);
                    add_jac(&mut jac, *n, *n, g);
                }
                Device::Capacitor { p, n, .. } => {
                    if let Some(comp) = self.companions[idx] {
                        let v = Self::volt(x, *p) - Self::volt(x, *n);
                        let i = comp.geq * v - comp.ieq;
                        add_res(&mut res, *p, i);
                        add_res(&mut res, *n, -i);
                        add_jac(&mut jac, *p, *p, comp.geq);
                        add_jac(&mut jac, *p, *n, -comp.geq);
                        add_jac(&mut jac, *n, *p, -comp.geq);
                        add_jac(&mut jac, *n, *n, comp.geq);
                    }
                    // DC: capacitor is open — no stamp.
                }
                Device::VSource { p, n, waveform } => {
                    let br = self.branch_var[idx].expect("vsource has branch");
                    let i_br = x[br];
                    add_res(&mut res, *p, i_br);
                    add_res(&mut res, *n, -i_br);
                    if let Some(res) = res.as_deref_mut() {
                        res[br] = Self::volt(x, *p) - Self::volt(x, *n) - waveform.eval(self.time);
                    }
                    if let Some(jac) = jac.as_deref_mut() {
                        if !p.is_ground() {
                            jac[(p.0 - 1, br)] += 1.0;
                            jac[(br, p.0 - 1)] += 1.0;
                        }
                        if !n.is_ground() {
                            jac[(n.0 - 1, br)] -= 1.0;
                            jac[(br, n.0 - 1)] -= 1.0;
                        }
                    }
                }
                Device::ISource { p, n, waveform } => {
                    let i = waveform.eval(self.time);
                    add_res(&mut res, *p, i);
                    add_res(&mut res, *n, -i);
                }
                Device::Mosfet {
                    d,
                    g,
                    s,
                    b,
                    model,
                    geometry,
                } => {
                    let vgs = Self::volt(x, *g) - Self::volt(x, *s);
                    let vds = Self::volt(x, *d) - Self::volt(x, *s);
                    let vbs = Self::volt(x, *b) - Self::volt(x, *s);
                    let e = mos::evaluate(model, *geometry, vgs, vds, vbs, self.temp);
                    add_res(&mut res, *d, e.ids);
                    add_res(&mut res, *s, -e.ids);
                    let gsum = e.gm + e.gds + e.gmbs;
                    add_jac(&mut jac, *d, *d, e.gds);
                    add_jac(&mut jac, *d, *g, e.gm);
                    add_jac(&mut jac, *d, *b, e.gmbs);
                    add_jac(&mut jac, *d, *s, -gsum);
                    add_jac(&mut jac, *s, *d, -e.gds);
                    add_jac(&mut jac, *s, *g, -e.gm);
                    add_jac(&mut jac, *s, *b, -e.gmbs);
                    add_jac(&mut jac, *s, *s, gsum);
                }
                Device::Diode { p, n, model } => {
                    let vd = Self::volt(x, *p) - Self::volt(x, *n);
                    let (i, g) = model.evaluate(vd, self.temp);
                    add_res(&mut res, *p, i);
                    add_res(&mut res, *n, -i);
                    add_jac(&mut jac, *p, *p, g);
                    add_jac(&mut jac, *p, *n, -g);
                    add_jac(&mut jac, *n, *p, -g);
                    add_jac(&mut jac, *n, *n, g);
                }
                Device::VSwitch {
                    p,
                    n,
                    cp,
                    cn,
                    ron,
                    roff,
                    threshold,
                    transition,
                } => {
                    let vc = Self::volt(x, *cp) - Self::volt(x, *cn);
                    let (g, dg_dvc) = switch_conductance(vc, *ron, *roff, *threshold, *transition);
                    let v = Self::volt(x, *p) - Self::volt(x, *n);
                    let i = g * v;
                    add_res(&mut res, *p, i);
                    add_res(&mut res, *n, -i);
                    add_jac(&mut jac, *p, *p, g);
                    add_jac(&mut jac, *p, *n, -g);
                    add_jac(&mut jac, *n, *p, -g);
                    add_jac(&mut jac, *n, *n, g);
                    // Control coupling.
                    let gc = dg_dvc * v;
                    add_jac(&mut jac, *p, *cp, gc);
                    add_jac(&mut jac, *p, *cn, -gc);
                    add_jac(&mut jac, *n, *cp, -gc);
                    add_jac(&mut jac, *n, *cn, gc);
                }
            }
        }
        Ok(())
    }
}

impl NonlinearSystem for MnaSystem<'_> {
    fn unknowns(&self) -> usize {
        self.n_unknowns
    }

    fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
        self.residual_evals += 1;
        if self.bypass_tol > 0.0 {
            self.fast_residual(x, out, false);
            Ok(())
        } else {
            self.stamp(x, Some(out), None)
        }
    }

    fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError> {
        if self.bypass_tol > 0.0 {
            self.ensure_base();
            self.base.scatter(jac);
            self.stamp_nonlinear(x, None, Some(jac), false);
            Ok(())
        } else {
            self.stamp(x, None, Some(jac))
        }
    }

    fn residual_is_approximate(&self) -> bool {
        self.bypass_tol > 0.0
    }

    fn residual_exact(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
        self.exact_residual_evals += 1;
        if self.bypass_tol > 0.0 {
            // Evaluate every device and refresh the anchors: acceptance is
            // always judged on the true residual, and the refreshed caches
            // make the verdict the next iteration's starting point.
            self.fast_residual(x, out, true);
            Ok(())
        } else {
            self.stamp(x, Some(out), None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mos::{MosGeometry, MosModel};
    use crate::waveform::{step, Pulse, Waveform};

    fn divider() -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::Dc(2.0))
            .unwrap();
        ckt.add_resistor("R1", vin, mid, 1e3).unwrap();
        ckt.add_resistor("R2", mid, Circuit::GROUND, 1e3).unwrap();
        ckt
    }

    #[test]
    fn dc_divider() {
        let ckt = divider();
        let op = Simulator::new(&ckt).dc_operating_point().unwrap();
        assert!((op.voltage("mid").unwrap() - 1.0).abs() < 1e-6);
        assert!((op.voltage("in").unwrap() - 2.0).abs() < 1e-9);
        assert!((op.voltage("0").unwrap()).abs() < 1e-12);
        // Current through the source: 2 V across 2 kΩ = 1 mA into the
        // divider, so the branch current (p → source → n) is −1 mA... the
        // sign follows the stamping convention: i flows out of `p` into
        // the external circuit means negative branch current here.
        let i = op.current("V1").unwrap();
        assert!((i.abs() - 1e-3).abs() < 1e-9, "i = {i}");
    }

    #[test]
    fn dc_diode_drop() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let k = ckt.node("k");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::Dc(5.0))
            .unwrap();
        ckt.add_resistor("R1", a, k, 1e3).unwrap();
        ckt.add_diode(
            "D1",
            k,
            Circuit::GROUND,
            crate::diode::DiodeModel::default(),
        )
        .unwrap();
        let op = Simulator::new(&ckt).dc_operating_point().unwrap();
        let vd = op.voltage("k").unwrap();
        assert!((0.5..0.8).contains(&vd), "diode drop {vd}");
    }

    #[test]
    fn rc_charge_matches_analytic() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let tau = 1e3 * 1e-9;
        let opts = TranOptions::new(5.0 * tau, tau / 100.0)
            .unwrap()
            .with_ic(vec![("out".to_string(), 0.0)]);
        let result = Simulator::new(&ckt).transient(&opts).unwrap();
        for &frac in &[0.5, 1.0, 2.0, 4.0] {
            let t = frac * tau;
            let v = result.voltage_at("out", t).unwrap();
            let exact = 1.0 - (-frac).exp();
            assert!((v - exact).abs() < 2e-3, "t={frac} tau: {v} vs {exact}");
        }
    }

    #[test]
    fn rc_discharge_with_cap_ic() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add_resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor_ic("C1", out, Circuit::GROUND, 1e-9, Some(2.4))
            .unwrap();
        let tau = 1e-6;
        let opts = TranOptions::new(3.0 * tau, tau / 200.0)
            .unwrap()
            .with_ic(Vec::new());
        let result = Simulator::new(&ckt).transient(&opts).unwrap();
        assert!((result.voltage_at("out", 0.0).unwrap() - 2.4).abs() < 1e-9);
        let v = result.final_voltage("out").unwrap();
        let exact = 2.4 * (-3.0_f64).exp();
        assert!((v - exact).abs() < 2e-3, "{v} vs {exact}");
    }

    #[test]
    fn trapezoidal_beats_backward_euler() {
        let run = |method: Method| {
            let mut ckt = Circuit::new();
            let out = ckt.node("out");
            ckt.add_resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
            ckt.add_capacitor_ic("C1", out, Circuit::GROUND, 1e-9, Some(1.0))
                .unwrap();
            let opts = TranOptions::new(2e-6, 5e-8)
                .unwrap()
                .with_method(method)
                .with_ic(Vec::new());
            Simulator::new(&ckt)
                .transient(&opts)
                .unwrap()
                .final_voltage("out")
                .unwrap()
        };
        let exact = (-2.0_f64).exp();
        let be_err = (run(Method::BackwardEuler) - exact).abs();
        let tr_err = (run(Method::Trapezoidal) - exact).abs();
        assert!(tr_err < be_err, "tr {tr_err} vs be {be_err}");
    }

    #[test]
    fn pulse_through_rc() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::Pulse(Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 1e-6,
                rise: 1e-8,
                fall: 1e-8,
                width: 4e-6,
                period: f64::INFINITY,
            }),
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-10)
            .unwrap();
        let opts = TranOptions::new(8e-6, 2e-8).unwrap();
        let result = Simulator::new(&ckt).transient(&opts).unwrap();
        // Before the pulse: 0. During the plateau: ~1. After: decaying.
        assert!(result.voltage_at("out", 0.5e-6).unwrap().abs() < 1e-3);
        assert!((result.voltage_at("out", 4.5e-6).unwrap() - 1.0).abs() < 1e-2);
        assert!(result.voltage_at("out", 7.9e-6).unwrap() < 0.1);
    }

    #[test]
    fn nmos_inverter_transfer() {
        // NMOS with resistive pull-up: out high when gate low, low when
        // gate high.
        let build = |vg: f64| {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let gate = ckt.node("g");
            let out = ckt.node("out");
            ckt.add_vsource("Vdd", vdd, Circuit::GROUND, Waveform::Dc(2.4))
                .unwrap();
            ckt.add_vsource("Vg", gate, Circuit::GROUND, Waveform::Dc(vg))
                .unwrap();
            ckt.add_resistor("Rl", vdd, out, 20e3).unwrap();
            ckt.add_mosfet(
                "M1",
                out,
                gate,
                Circuit::GROUND,
                Circuit::GROUND,
                MosModel::default(),
                MosGeometry::new(2e-6, 0.25e-6).unwrap(),
            )
            .unwrap();
            ckt
        };
        let low_in = build(0.0);
        let op = Simulator::new(&low_in).dc_operating_point().unwrap();
        assert!(op.voltage("out").unwrap() > 2.3);

        let high_in = build(2.4);
        let op = Simulator::new(&high_in).dc_operating_point().unwrap();
        assert!(op.voltage("out").unwrap() < 0.3);
    }

    #[test]
    fn vswitch_transient() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let ctl = ckt.node("ctl");
        let out = ckt.node("out");
        ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_vsource("Vc", ctl, Circuit::GROUND, step(0.0, 1.0, 5e-7, 1e-8))
            .unwrap();
        ckt.add_vswitch("S1", vin, out, ctl, Circuit::GROUND, 10.0, 1e9, 0.5)
            .unwrap();
        ckt.add_resistor("Rl", out, Circuit::GROUND, 1e4).unwrap();
        let opts = TranOptions::new(1e-6, 1e-8).unwrap();
        let result = Simulator::new(&ckt).transient(&opts).unwrap();
        assert!(result.voltage_at("out", 4e-7).unwrap() < 0.01);
        assert!(result.voltage_at("out", 9e-7).unwrap() > 0.95);
    }

    #[test]
    fn temperature_changes_mosfet_current() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        ckt.add_vsource("Vdd", vdd, Circuit::GROUND, Waveform::Dc(2.4))
            .unwrap();
        ckt.add_resistor("Rl", vdd, out, 10e3).unwrap();
        ckt.add_mosfet(
            "M1",
            out,
            vdd, // gate tied high
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::default(),
            MosGeometry::new(1e-6, 0.25e-6).unwrap(),
        )
        .unwrap();
        let v_cold = Simulator::new(&ckt)
            .with_temperature(-33.0)
            .dc_operating_point()
            .unwrap()
            .voltage("out")
            .unwrap();
        let v_hot = Simulator::new(&ckt)
            .with_temperature(87.0)
            .dc_operating_point()
            .unwrap()
            .voltage("out")
            .unwrap();
        // Hot device conducts less (mobility), so out sits higher.
        assert!(v_hot > v_cold, "hot {v_hot} vs cold {v_cold}");
    }

    #[test]
    fn adaptive_stepping_matches_analytic_with_fewer_steps() {
        // RC discharge over 10 tau: the adaptive controller stretches the
        // step along the smooth tail, using far fewer steps than the fixed
        // grid while keeping the early transient accurate.
        let build = || {
            let mut ckt = Circuit::new();
            let out = ckt.node("out");
            ckt.add_resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
            ckt.add_capacitor_ic("C1", out, Circuit::GROUND, 1e-9, Some(2.0))
                .unwrap();
            ckt
        };
        let tau = 1e-6;
        let ckt = build();
        let fixed = Simulator::new(&ckt)
            .transient(
                &TranOptions::new(10.0 * tau, tau / 200.0)
                    .unwrap()
                    .with_ic(Vec::new()),
            )
            .unwrap();
        let adaptive = Simulator::new(&ckt)
            .transient(
                &TranOptions::new(10.0 * tau, tau / 200.0)
                    .unwrap()
                    .with_ic(Vec::new())
                    .with_adaptive(AdaptiveOptions {
                        lte_tol: 2e-4,
                        dt_min: tau / 1000.0,
                        dt_max: tau,
                    }),
            )
            .unwrap();
        assert!(
            adaptive.len() * 3 < fixed.len(),
            "adaptive {} samples vs fixed {}",
            adaptive.len(),
            fixed.len()
        );
        for &frac in &[0.5, 1.0, 3.0, 8.0] {
            let t = frac * tau;
            let got = adaptive.voltage_at("out", t).unwrap();
            let exact = 2.0 * (-frac).exp();
            assert!(
                (got - exact).abs() < 5e-3,
                "at {frac} tau: {got} vs {exact}"
            );
        }
        // The final time point lands exactly on t_stop.
        assert!((adaptive.times().last().unwrap() - 10.0 * tau).abs() < 1e-18);
    }

    #[test]
    fn adaptive_refines_sharp_edges() {
        // A pulse through an RC: steps must be small around the edges and
        // large on the plateaus.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::Pulse(Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 2e-6,
                rise: 1e-8,
                fall: 1e-8,
                width: 2e-6,
                period: f64::INFINITY,
            }),
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-10)
            .unwrap();
        let result = Simulator::new(&ckt)
            .transient(
                &TranOptions::new(6e-6, 5e-8)
                    .unwrap()
                    .with_adaptive(AdaptiveOptions {
                        lte_tol: 1e-3,
                        dt_min: 1e-9,
                        dt_max: 5e-7,
                    }),
            )
            .unwrap();
        // Smallest accepted step near the rising edge is far below the
        // largest step on the quiet pre-pulse plateau.
        let times = result.times();
        let min_step = times
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(f64::INFINITY, f64::min);
        let max_step = times
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0_f64, f64::max);
        assert!(
            max_step > 20.0 * min_step,
            "expected strong step-size contrast: {min_step:e} .. {max_step:e}"
        );
        // And the waveform is still right.
        assert!((result.voltage_at("out", 3.9e-6).unwrap() - 1.0).abs() < 0.01);
        assert!(result.voltage_at("out", 1.9e-6).unwrap().abs() < 1e-3);
    }

    #[test]
    fn adaptive_options_validated() {
        let bad = AdaptiveOptions {
            lte_tol: 0.0,
            dt_min: 1e-9,
            dt_max: 1e-8,
        };
        assert!(bad.validate().is_err());
        let bad = AdaptiveOptions {
            lte_tol: 1e-3,
            dt_min: 1e-8,
            dt_max: 1e-9,
        };
        assert!(bad.validate().is_err());
        let ckt = divider();
        let opts = TranOptions::new(1e-6, 1e-8).unwrap().with_adaptive(bad);
        assert!(Simulator::new(&ckt).transient(&opts).is_err());
    }

    #[test]
    fn dc_sweep_nmos_output_characteristic() {
        // Ids versus Vds at fixed Vgs: monotone rising, flattening in
        // saturation.
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add_vsource("Vd", d, Circuit::GROUND, Waveform::Dc(0.0))
            .unwrap();
        ckt.add_vsource("Vg", g, Circuit::GROUND, Waveform::Dc(1.5))
            .unwrap();
        ckt.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::default(),
            MosGeometry::new(1e-6, 0.25e-6).unwrap(),
        )
        .unwrap();
        let vds: Vec<f64> = (0..=12).map(|i| i as f64 * 0.2).collect();
        let sweep = Simulator::new(&ckt).dc_sweep("Vd", &vds).unwrap();
        let ids: Vec<f64> = sweep.iter().map(|s| -s.current("Vd").unwrap()).collect();
        // Monotone non-decreasing drain current.
        assert!(
            ids.windows(2).all(|w| w[1] >= w[0] - 1e-12),
            "non-monotone: {ids:?}"
        );
        // Saturation: the last increment is much smaller than the first.
        let first_step = ids[1] - ids[0];
        let last_step = ids[12] - ids[11];
        assert!(
            last_step < 0.2 * first_step,
            "no saturation: first {first_step:e}, last {last_step:e}"
        );
    }

    #[test]
    fn dc_sweep_validates_inputs() {
        let ckt = divider();
        let sim = Simulator::new(&ckt);
        assert!(sim.dc_sweep("V1", &[]).is_err());
        assert!(sim.dc_sweep("R1", &[1.0]).is_err());
        assert!(sim.dc_sweep("Vx", &[1.0]).is_err());
        // A valid sweep returns one solution per value.
        let sweep = sim.dc_sweep("V1", &[0.0, 1.0, 2.0]).unwrap();
        assert_eq!(sweep.len(), 3);
        assert!((sweep[2].voltage("mid").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bad_tran_options() {
        assert!(TranOptions::new(0.0, 1e-9).is_err());
        assert!(TranOptions::new(1e-6, -1.0).is_err());
        assert!(TranOptions::new(1e-9, 1e-6).is_err());
    }

    #[test]
    fn unknown_node_in_results() {
        let ckt = divider();
        let op = Simulator::new(&ckt).dc_operating_point().unwrap();
        assert!(matches!(
            op.voltage("nope"),
            Err(SpiceError::UnknownNode(_))
        ));
        let result = Simulator::new(&ckt)
            .transient(&TranOptions::new(1e-6, 1e-8).unwrap())
            .unwrap();
        assert!(result.voltage("nope").is_err());
        assert!(result.voltage_at("mid", 2e-6).is_err()); // out of range
        assert!(result.current("Vx").is_err());
    }

    #[test]
    fn conflicting_parallel_sources_fail_cleanly() {
        // Two ideal voltage sources fighting over the same node: the MNA
        // matrix is singular. The error must be typed, never a panic.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_vsource("V2", a, Circuit::GROUND, Waveform::Dc(2.0))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let err = Simulator::new(&ckt).dc_operating_point().unwrap_err();
        assert!(
            matches!(
                err,
                SpiceError::Convergence { .. } | SpiceError::Numerical(_)
            ),
            "got {err}"
        );
        let err = Simulator::new(&ckt)
            .transient(&TranOptions::new(1e-8, 1e-9).unwrap().with_ic(Vec::new()))
            .unwrap_err();
        assert!(
            matches!(
                err,
                SpiceError::Convergence { .. } | SpiceError::Numerical(_)
            ),
            "got {err}"
        );
    }

    #[test]
    fn invalid_topology_surfaces() {
        let mut ckt = Circuit::new();
        ckt.node("only");
        let err = Simulator::new(&ckt).dc_operating_point().unwrap_err();
        assert!(matches!(err, SpiceError::BadTopology(_)));
    }

    #[test]
    fn tran_result_accessors() {
        let ckt = divider();
        let result = Simulator::new(&ckt)
            .transient(&TranOptions::new(1e-6, 1e-7).unwrap())
            .unwrap();
        assert_eq!(result.len(), 11);
        assert!(!result.is_empty());
        assert_eq!(result.times()[0], 0.0);
        let wave = result.voltage("mid").unwrap();
        assert_eq!(wave.len(), 11);
        assert!(wave.iter().all(|v| (v - 1.0).abs() < 1e-6));
        let i = result.current("V1").unwrap();
        assert_eq!(i.len(), 11);
        // Ground waveform is all zeros.
        assert!(result.voltage("0").unwrap().iter().all(|&v| v == 0.0));
    }

    /// The paper's DRAM column (`ColumnDesign::default()` with a 200 kΩ
    /// cell open on the true side), exported to deck text.
    const PAPER_COLUMN: &str = include_str!("../tests/data/paper_column.cir");

    /// A test-only copy of the linear base as `ensure_base` stamped it
    /// before the slot base: a dense matrix indexed entry by entry.
    fn dense_base(system: &MnaSystem<'_>) -> DMatrix {
        let n = system.n_unknowns;
        let mut jac = DMatrix::zeros(n, n);
        for i in 0..system.circuit.node_count() - 1 {
            jac[(i, i)] += system.gmin;
        }
        let conductance = |jac: &mut DMatrix, p: NodeId, n: NodeId, g: f64| {
            if !p.is_ground() {
                jac[(p.0 - 1, p.0 - 1)] += g;
            }
            if !n.is_ground() {
                jac[(n.0 - 1, n.0 - 1)] += g;
            }
            if !p.is_ground() && !n.is_ground() {
                jac[(p.0 - 1, n.0 - 1)] -= g;
                jac[(n.0 - 1, p.0 - 1)] -= g;
            }
        };
        for (idx, device) in system.circuit.devices().iter().enumerate() {
            match device {
                Device::Resistor { p, n, resistance } => {
                    conductance(&mut jac, *p, *n, 1.0 / resistance);
                }
                Device::Capacitor { p, n, .. } => {
                    if let Some(comp) = system.companions[idx] {
                        conductance(&mut jac, *p, *n, comp.geq);
                    }
                }
                Device::VSource { p, n, .. } => {
                    let br = system.branch_var[idx].unwrap();
                    if !p.is_ground() {
                        jac[(p.0 - 1, br)] += 1.0;
                        jac[(br, p.0 - 1)] += 1.0;
                    }
                    if !n.is_ground() {
                        jac[(n.0 - 1, br)] -= 1.0;
                        jac[(br, n.0 - 1)] -= 1.0;
                    }
                }
                _ => {}
            }
        }
        jac
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// The residual and Jacobian over the slot base against the dense base:
    /// a dense `Σ a·x` matvec over every column plus `lin_rhs` and the
    /// nonlinear stamps, and a dense base copy plus the nonlinear stamps.
    fn assert_slot_base_matches_dense(system: &mut MnaSystem<'_>, x: &[f64], what: &str) {
        let n = system.n_unknowns;
        system.ensure_base();
        let dense = dense_base(system);
        let mut expected: Vec<f64> = dense
            .as_slice()
            .chunks(n)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect();
        for (e, r) in expected.iter_mut().zip(&system.lin_rhs) {
            *e += *r;
        }
        system.stamp_nonlinear(x, Some(&mut expected), None, true);
        let mut got = vec![f64::NAN; n];
        system.fast_residual(x, &mut got, true);
        assert_eq!(bits(&got), bits(&expected), "{what}: residual bits");

        // Both Jacobians stamp the nonlinear devices from the anchors the
        // exact residuals above just refreshed at `x`.
        let mut expected_jac = dense;
        system.stamp_nonlinear(x, None, Some(&mut expected_jac), false);
        let mut jac = DMatrix::zeros(n, n);
        system.jacobian(x, &mut jac).unwrap();
        assert_eq!(
            bits(jac.as_slice()),
            bits(expected_jac.as_slice()),
            "{what}: Jacobian bits"
        );
    }

    #[test]
    fn slot_base_is_bit_identical_to_dense_base_on_paper_column() {
        let mut ckt = crate::netlist::parse(PAPER_COLUMN).unwrap().circuit;
        for (source, v) in [("Vdd", 2.4), ("Vbleq", 1.2), ("Vref", 1.2), ("Vwlt", 3.3)] {
            ckt.set_waveform(source, Waveform::Dc(v)).unwrap();
        }
        let sim = Simulator::new(&ckt);
        let op = sim.dc_operating_point().unwrap();
        let mut system = sim.make_system(&ckt);
        assert!(
            system.bypass_tol > 0.0,
            "default tuning takes the fast path"
        );
        let n = system.unknowns();
        assert_eq!(n, 42, "the paper column has 42 unknowns");
        // Perturbed states, some with exact zeros planted in them.
        let mut rng = dso_num::testing::TestRng::new(0x5107);
        let mut states = vec![op.as_slice().to_vec(), vec![0.0; n]];
        for k in 0..6 {
            let state = op
                .as_slice()
                .iter()
                .map(|v| match rng.index(4) {
                    0 if k % 2 == 0 => 0.0,
                    _ => v + rng.range(-0.5, 0.5),
                })
                .collect();
            states.push(state);
        }

        // DC: capacitors open, no companions.
        for (k, x) in states.iter().enumerate() {
            assert_slot_base_matches_dense(&mut system, x, &format!("DC state {k}"));
        }
        // Transient: a companion on every capacitor, refreshed per state.
        for (k, x) in states.iter().enumerate() {
            system.time = 1e-9 * (k + 1) as f64;
            system.base_dirty = true;
            for (idx, device) in ckt.devices().iter().enumerate() {
                if let Device::Capacitor {
                    p, n, capacitance, ..
                } = device
                {
                    let v = MnaSystem::volt(x, *p) - MnaSystem::volt(x, *n);
                    system.companions[idx] = Some(
                        Method::Trapezoidal
                            .companion(*capacitance, 1e-11, v, 1e-6 * k as f64)
                            .unwrap(),
                    );
                }
            }
            assert_slot_base_matches_dense(&mut system, x, &format!("transient state {k}"));
        }
    }
}
