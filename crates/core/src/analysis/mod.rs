//! Fault analysis (Section 3 of the paper).
//!
//! The central object is the [`Analyzer`], which owns the column design and
//! spins up defect-injected operation engines on demand. All transient
//! measurements flow through the [`crate::eval::EvalService`] built around
//! an analyzer — the analyzer itself only exposes the crate-internal
//! primitives the service executes. On top of it:
//!
//! * [`planes`] — result planes for `w0`/`w1`/`r` (Figures 2 and 6) and the
//!   sense-amplifier threshold curve `Vsa(R)`.
//! * [`border`] — border-resistance extraction.
//! * [`detection`] — detection conditions and their evaluation.
//! * [`dictionary`] — electrically calibrated behavioral cell models.
//! * [`shmoo`] — service-backed shmoo adapters that reuse campaign points.

pub mod border;
pub mod design_space;
pub mod detection;
pub mod dictionary;
pub mod planes;
pub mod shmoo;
pub mod sweep;

pub use border::{find_border, refine_border_from_planes, BorderResistance};
pub use design_space::{
    CoverageCell, DesignParam, DesignReport, DesignSpace, DesignSweepRequest, DesignSweepResult,
    TrendRow,
};
pub use detection::{derive_detection, DetectionCondition, PhysOp};
pub use dictionary::{build_dictionary, DefectiveCell, FaultDictionary};
pub use planes::{result_planes, PlaneCampaign, ReadPlane, ResultPlanes, WritePlane};
pub use sweep::{CampaignFaults, Confidence, PointStatus, SweepPoint, SweepReport};

use crate::CoreError;
use dso_defects::Defect;
use dso_dram::design::{ColumnDesign, OperatingPoint};
use dso_dram::ops::{physical_write, OpTrace, Operation, OperationEngine};
use dso_num::chaos::FaultPlan;
use dso_spice::recovery::{RecoveryPolicy, RecoveryStats};
use dso_spice::SolverTuning;

/// The solver tuning selected by the `DSO_LU_REUSE` and `DSO_BYPASS_TOL`
/// environment variables (defaults: LU reuse on, 100 µV bypass tolerance).
/// Invalid values warn once and fall back to the default, like every
/// other `DSO_*` knob.
pub fn tuning_from_env() -> SolverTuning {
    let mut tuning = SolverTuning::default();
    if let Some(reuse) = crate::env::boolean("DSO_LU_REUSE", "1") {
        tuning.lu_reuse = reuse;
    }
    if let Some(tol) = crate::env::non_negative_f64("DSO_BYPASS_TOL", "1e-4") {
        tuning.bypass_tol = tol;
    }
    tuning
}

/// Analysis front end: owns the column design, recovery policy, and solver
/// tuning, builds defect-injected engines, and implements the elementary
/// measurements the [`crate::eval::EvalService`] executes. Analysis layers
/// never call the measurement primitives directly — they submit requests
/// to the service, which memoizes and batches them.
#[derive(Debug, Clone)]
pub struct Analyzer {
    design: ColumnDesign,
    recovery: RecoveryPolicy,
    tuning: SolverTuning,
}

impl Analyzer {
    /// Creates an analyzer for a column design, with the default
    /// convergence-recovery policy (every ladder rung enabled) and the
    /// solver tuning selected by the environment ([`tuning_from_env`]).
    pub fn new(design: ColumnDesign) -> Self {
        Analyzer {
            design,
            recovery: RecoveryPolicy::default(),
            tuning: tuning_from_env(),
        }
    }

    /// Replaces the convergence-recovery policy applied to every engine
    /// this analyzer builds.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Replaces the solver tuning applied to every engine this analyzer
    /// builds. The tuning is part of the evaluation-cache context: results
    /// computed under one tuning are never served to another.
    pub fn with_tuning(mut self, tuning: SolverTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// The column design under analysis.
    pub fn design(&self) -> &ColumnDesign {
        &self.design
    }

    /// The convergence-recovery policy in use.
    pub fn recovery(&self) -> &RecoveryPolicy {
        &self.recovery
    }

    /// The solver tuning in use.
    pub fn tuning(&self) -> &SolverTuning {
        &self.tuning
    }

    /// Builds an operation engine with `defect` injected at `resistance`,
    /// targeting the defect's bit-line side, at the given operating point,
    /// with an optional fault plan armed on the engine (each run clones
    /// the plan, so solve ordinals restart per run).
    pub(crate) fn engine_with(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        faults: Option<&FaultPlan>,
    ) -> Result<OperationEngine, CoreError> {
        let mut engine = OperationEngine::new(self.design.clone(), *op_point)?
            .with_victim(defect.side())
            .with_recovery(self.recovery)
            .with_tuning(self.tuning);
        if let Some(plan) = faults {
            engine = engine.with_fault_plan(plan.clone());
        }
        defect.inject(engine.column_mut(), resistance)?;
        Ok(engine)
    }

    /// Runs `n_ops` consecutive physical writes of `high` and returns the
    /// cell voltage after each — the settlement curves of the write planes
    /// — together with the run's full [`OpTrace`] so campaign layers can
    /// chain warm-start seeds across a sweep.
    ///
    /// The trajectories mirror the detection-condition flow
    /// `{... w1 w1 w0 r0 ...}` (which starts from a discharged cell):
    ///
    /// * `w1` trajectories start from physical GND directly,
    /// * `w0` trajectories start from the *`w1`-settled* level — two `w1`
    ///   operations from GND are applied first and not reported.
    ///
    /// This makes the `(1) w0 × Vsa` curve intersection directly
    /// comparable with the pass/fail border bisection; starting the `w0`
    /// plane from the ideal `vdd` rail instead (as an idealized reading of
    /// the paper's Figure 2 would) overstates the charge the write has to
    /// remove whenever the settled 1-level sits below the rail.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures, wrapped with campaign context
    /// ([`CoreError::AtPoint`]).
    #[allow(clippy::too_many_arguments)] // campaign plumbing: faults + seed + stats
    pub(crate) fn settle_trace(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        high: bool,
        n_ops: usize,
        faults: Option<&FaultPlan>,
        seed: Option<&OpTrace>,
        stats: &mut RecoveryStats,
    ) -> Result<(Vec<f64>, OpTrace), CoreError> {
        if n_ops == 0 {
            return Err(CoreError::BadRequest("n_ops must be positive".into()));
        }
        let engine = self.engine_with(defect, resistance, op_point, faults)?;
        let target = physical_write(high, defect.side());
        let mut seq = Vec::with_capacity(n_ops + 2);
        let skip = if high {
            0
        } else {
            let setup = physical_write(true, defect.side());
            seq.push(setup);
            seq.push(setup);
            2
        };
        seq.extend(std::iter::repeat_n(target, n_ops));
        let operation = if high { "w1 settle" } else { "w0 settle" };
        let trace = engine
            .run_seeded(&seq, 0.0, seed)
            .map_err(|e| CoreError::at_point(operation, resistance, Some(0.0), e.into()))?;
        stats.merge(trace.recovery());
        Ok((trace.vc_ends()[skip..].to_vec(), trace))
    }

    /// The cell voltage at the *end of the write pulse* (word-line
    /// closing) of a single physical write of `high`, starting from the
    /// opposite rail.
    ///
    /// This isolates the write's strength from whatever the defect does to
    /// the stored charge during the rest of the cycle — the quantity the
    /// paper's stress probes reason about ("reducing `tcyc` reduces the
    /// time the memory has to charge or discharge the cell, which affects
    /// the write operation and not the read").
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub(crate) fn write_end_voltage(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        high: bool,
        faults: Option<&FaultPlan>,
        stats: &mut RecoveryStats,
    ) -> Result<f64, CoreError> {
        let engine = self.engine_with(defect, resistance, op_point, faults)?;
        let op = physical_write(high, defect.side());
        let vc_init = if high { 0.0 } else { op_point.vdd };
        let operation = if high { "w1 probe" } else { "w0 probe" };
        let trace = engine
            .run(&[op], vc_init)
            .map_err(|e| CoreError::at_point(operation, resistance, Some(vc_init), e.into()))?;
        stats.merge(trace.recovery());
        let schedule = dso_dram::timing::CycleSchedule::new(op_point.duty)?;
        let t_wl_off = schedule.wl_off * op_point.tcyc;
        let storage = dso_dram::column::nodes::cap_top(defect.side());
        let vc = trace
            .tran()
            .voltage_at(&storage, t_wl_off)
            .map_err(dso_dram::DramError::Spice)?;
        Ok(vc)
    }

    /// The sense-amplifier threshold voltage `Vsa`: the initial cell
    /// voltage above which a read senses the accessed bit line high. Found
    /// by bisection on single-read outcomes; with `warm_probes` each
    /// probe's transient is seeded from the previous probe's trace (same
    /// resistance, same time grid, only the initial cell voltage differs —
    /// the chain is local to this one bisection, so it never couples sweep
    /// points).
    ///
    /// Returns `0.0` when even a fully discharged cell reads high (the
    /// paper's `Vsa → GND` limit for large opens) and `vdd` when even a
    /// full cell reads low.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures, wrapped with campaign context
    /// ([`CoreError::AtPoint`]).
    pub(crate) fn vsa_probed(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        faults: Option<&FaultPlan>,
        warm_probes: bool,
        stats: &mut RecoveryStats,
    ) -> Result<f64, CoreError> {
        let engine = self.engine_with(defect, resistance, op_point, faults)?;
        let mut last: Option<OpTrace> = None;
        let mut reads_high = |vc: f64| -> Result<bool, CoreError> {
            let seed = if warm_probes { last.as_ref() } else { None };
            let trace = engine.run_seeded(&[Operation::R], vc, seed).map_err(|e| {
                CoreError::at_point("read threshold", resistance, Some(vc), e.into())
            })?;
            stats.merge(trace.recovery());
            let high = trace.cycles()[0]
                .read
                .map(|r| r.accessed_high(defect.side()))
                .ok_or_else(|| CoreError::BadRequest("read cycle produced no outcome".into()));
            last = Some(trace);
            high
        };
        if reads_high(0.0)? {
            return Ok(0.0);
        }
        if !reads_high(op_point.vdd)? {
            return Ok(op_point.vdd);
        }
        // Plain bisection on the monotone read outcome.
        let (mut lo, mut hi) = (0.0, op_point.vdd);
        while hi - lo > 2e-3 {
            let mid = 0.5 * (lo + hi);
            if reads_high(mid)? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use dso_dram::design::ColumnDesign;

    /// Coarse time step for debug-mode tests.
    pub fn fast_design() -> ColumnDesign {
        ColumnDesign {
            dt_fraction: 1.0 / 250.0,
            ..ColumnDesign::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::fast_design;
    use super::*;
    use crate::eval::EvalService;
    use dso_defects::BitLineSide;

    fn service() -> EvalService {
        EvalService::new(Analyzer::new(fast_design()))
    }

    #[test]
    fn settlement_moves_toward_rail() {
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        // Mild defect: writes settle essentially immediately.
        let vcs = svc.settle_sequence(&defect, 1e3, &op, false, 2).unwrap();
        assert!(vcs[0] < 0.3, "w0 with small Rop should succeed: {vcs:?}");
        let w1 = svc.settle_sequence(&defect, 1e3, &op, true, 2).unwrap();
        assert!(w1[0] > 1.5, "w1 with small Rop should charge: {w1:?}");
        // Severe defect: the w1 pre-charge is blocked, so the whole
        // detection flow freezes near GND.
        let w1_blocked = svc.settle_sequence(&defect, 5e7, &op, true, 2).unwrap();
        assert!(
            w1_blocked[1] < 0.3,
            "w1 with 50 MΩ open should be blocked: {w1_blocked:?}"
        );
        // Moderate defect: the w0 after the settled 1 leaves a higher
        // residual than the healthy case — the failure mechanism of the
        // cell open.
        let healthy_w0 = vcs[0];
        let marginal_w0 = svc.settle_sequence(&defect, 2.5e6, &op, false, 1).unwrap()[0];
        assert!(
            marginal_w0 > healthy_w0 + 0.2,
            "2.5 MΩ open should block the w0: {marginal_w0} vs {healthy_w0}"
        );
    }

    #[test]
    fn vsa_limits() {
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        // Healthy-ish cell: threshold strictly inside (0, vdd), near vdd/2.
        let vsa = svc.vsa(&defect, 1e3, &op).unwrap();
        assert!(
            (0.5..1.9).contains(&vsa),
            "nominal Vsa should be near mid-rail, got {vsa}"
        );
        // Severed cell: everything reads 1 -> threshold collapses to GND.
        let vsa_open = svc.vsa(&defect, 1e9, &op).unwrap();
        assert_eq!(vsa_open, 0.0);
        // Vmp uses the defect-free site.
        let vmp = svc.vmp(&defect, &op).unwrap();
        assert!((vmp - vsa).abs() < 0.3);
    }

    #[test]
    fn comp_side_symmetric_vsa() {
        let svc = service();
        let op = OperatingPoint::nominal();
        let vsa_t = svc
            .vsa(&Defect::cell_open(BitLineSide::True), 1e3, &op)
            .unwrap();
        let vsa_c = svc
            .vsa(&Defect::cell_open(BitLineSide::Comp), 1e3, &op)
            .unwrap();
        assert!(
            (vsa_t - vsa_c).abs() < 0.15,
            "true/comp thresholds should match: {vsa_t} vs {vsa_c}"
        );
    }

    #[test]
    fn read_sequence_reports_outcomes() {
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let (vcs, highs) = svc.read_sequence(&defect, 1e3, &op, 2.4, 2).unwrap();
        assert_eq!(vcs.len(), 2);
        assert_eq!(highs, vec![true, true]);
        let (_, lows) = svc.read_sequence(&defect, 1e3, &op, 0.0, 1).unwrap();
        assert_eq!(lows, vec![false]);
    }

    #[test]
    fn zero_ops_rejected() {
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        assert!(svc.settle_sequence(&defect, 1e3, &op, true, 0).is_err());
        assert!(svc.read_sequence(&defect, 1e3, &op, 0.0, 0).is_err());
    }
}
