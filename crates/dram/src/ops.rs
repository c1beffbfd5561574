//! The operation engine: runs `w0`/`w1`/`r` sequences through the
//! electrical simulator.
//!
//! Operations are *logic-level*: `W1` writes logic 1, which the write
//! driver encodes as `bt = vdd, bc = 0`. A victim cell on the
//! complementary bit line therefore stores the *inverted* physical level —
//! exactly the true/complementary symmetry the paper's Table 1 reports.
//! Use [`physical_write`] when the analysis needs to set a physical cell
//! level regardless of side.

use crate::column::{nodes, sources, Column};
use crate::design::{BitLineSide, ColumnDesign, OperatingPoint};
use crate::timing::{ControlWaveforms, CycleSchedule};
use crate::DramError;
use dso_num::chaos::FaultPlan;
use dso_spice::engine::{Simulator, SolverTuning, TranOptions, TranResult};
use dso_spice::recovery::{RecoveryPolicy, RecoveryStats};
use dso_spice::waveform::Waveform;

/// A memory operation on the victim cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Write logic 0.
    W0,
    /// Write logic 1.
    W1,
    /// Read.
    R,
    /// Idle cycle: the row is not activated, the cell floats. Used for
    /// retention (pause) analysis of leak-type defects.
    Nop,
}

impl Operation {
    /// The logic value written, or `None` for reads and idle cycles.
    pub fn write_value(&self) -> Option<bool> {
        match self {
            Operation::W0 => Some(false),
            Operation::W1 => Some(true),
            Operation::R | Operation::Nop => None,
        }
    }

    /// `true` if the cycle activates the row (everything except `Nop`).
    pub fn accesses_row(&self) -> bool {
        !matches!(self, Operation::Nop)
    }

    /// The paper's notation: `w0`, `w1`, `r` (plus `nop` for idle
    /// cycles).
    pub fn label(&self) -> &'static str {
        match self {
            Operation::W0 => "w0",
            Operation::W1 => "w1",
            Operation::R => "r",
            Operation::Nop => "nop",
        }
    }

    /// Folds the operation's discriminant into a content fingerprint.
    pub fn fingerprint_into(&self, fp: &mut dso_num::fingerprint::Fingerprint) {
        fp.write_u8(match self {
            Operation::W0 => 0,
            Operation::W1 => 1,
            Operation::R => 2,
            Operation::Nop => 3,
        });
    }
}

/// Folds an operation sequence (length, then each op) into a content
/// fingerprint. The explicit length prefix keeps `[W1]` + `[W0]` from
/// colliding with `[W1, W0]` across request boundaries.
pub fn fingerprint_ops(ops: &[Operation], fp: &mut dso_num::fingerprint::Fingerprint) {
    fp.write_usize(ops.len());
    for op in ops {
        op.fingerprint_into(fp);
    }
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The logic write operation that stores the given *physical* level into a
/// victim cell on `side`.
///
/// # Example
///
/// ```
/// use dso_dram::design::BitLineSide;
/// use dso_dram::ops::{physical_write, Operation};
///
/// // Storing a physical high on the complementary bit line requires a
/// // logic 0 write (the data rails are inverted on that side).
/// assert_eq!(physical_write(true, BitLineSide::True), Operation::W1);
/// assert_eq!(physical_write(true, BitLineSide::Comp), Operation::W0);
/// ```
pub fn physical_write(high: bool, side: BitLineSide) -> Operation {
    let logic = match side {
        BitLineSide::True => high,
        BitLineSide::Comp => !high,
    };
    if logic {
        Operation::W1
    } else {
        Operation::W0
    }
}

/// Outcome of one read operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOutcome {
    /// Logic value delivered at the data output.
    pub logic: bool,
    /// Bit-line differential `v(bt) − v(bc)` at the observation instant.
    pub differential: f64,
}

impl ReadOutcome {
    /// `true` if the *accessed* bit line was sensed high — the physical
    /// cell level the sense amplifier decided on, independent of the
    /// logic-inversion convention of the complementary side.
    pub fn accessed_high(&self, side: BitLineSide) -> bool {
        match side {
            BitLineSide::True => self.logic,
            BitLineSide::Comp => !self.logic,
        }
    }
}

/// Result of one operation cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleResult {
    /// The operation performed.
    pub op: Operation,
    /// Physical cell (capacitor) voltage at the end of the cycle.
    pub vc_end: f64,
    /// Read outcome, for read cycles.
    pub read: Option<ReadOutcome>,
}

/// Full trace of an operation sequence.
#[derive(Debug, Clone)]
pub struct OpTrace {
    cycles: Vec<CycleResult>,
    tran: TranResult,
    storage_node: String,
    tcyc: f64,
}

impl OpTrace {
    /// Per-cycle results, in order.
    pub fn cycles(&self) -> &[CycleResult] {
        &self.cycles
    }

    /// Logic values of the read operations, in order (`None` entries are
    /// filtered out — writes produce no read value).
    pub fn read_values(&self) -> Vec<Option<bool>> {
        self.cycles
            .iter()
            .filter(|c| c.op == Operation::R)
            .map(|c| c.read.map(|r| r.logic))
            .collect()
    }

    /// Physical cell voltage at the end of each cycle.
    pub fn vc_ends(&self) -> Vec<f64> {
        self.cycles.iter().map(|c| c.vc_end).collect()
    }

    /// The full storage-node waveform `(t, Vc)` for plotting.
    ///
    /// # Errors
    ///
    /// Propagates signal lookup failures (should not happen for a trace
    /// produced by [`OperationEngine::run`]).
    pub fn storage_waveform(&self) -> Result<(Vec<f64>, Vec<f64>), DramError> {
        let vc = self.tran.voltage(&self.storage_node)?;
        Ok((self.tran.times().to_vec(), vc))
    }

    /// The underlying transient result (all node waveforms).
    pub fn tran(&self) -> &TranResult {
        &self.tran
    }

    /// Convergence-recovery actions the underlying transient needed.
    pub fn recovery(&self) -> &RecoveryStats {
        self.tran.recovery()
    }

    /// The cycle time used for the trace.
    pub fn tcyc(&self) -> f64 {
        self.tcyc
    }
}

/// Runs operation sequences on a (possibly defective) column.
#[derive(Debug, Clone)]
pub struct OperationEngine {
    column: Column,
    op_point: OperatingPoint,
    victim: BitLineSide,
    recovery: RecoveryPolicy,
    fault_plan: Option<FaultPlan>,
    tuning: SolverTuning,
}

impl OperationEngine {
    /// Builds a fresh column for `design` and binds it to an operating
    /// point. The victim defaults to the true bit line.
    ///
    /// # Errors
    ///
    /// Propagates design validation and netlist construction failures.
    pub fn new(design: ColumnDesign, op_point: OperatingPoint) -> Result<Self, DramError> {
        op_point.validate()?;
        Ok(OperationEngine {
            column: Column::build(&design)?,
            op_point,
            victim: BitLineSide::True,
            recovery: RecoveryPolicy::default(),
            fault_plan: None,
            tuning: SolverTuning::default(),
        })
    }

    /// Wraps an existing (e.g. defect-injected) column.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BadOperatingPoint`] if `op_point` is invalid.
    pub fn from_column(column: Column, op_point: OperatingPoint) -> Result<Self, DramError> {
        op_point.validate()?;
        Ok(OperationEngine {
            column,
            op_point,
            victim: BitLineSide::True,
            recovery: RecoveryPolicy::default(),
            fault_plan: None,
            tuning: SolverTuning::default(),
        })
    }

    /// Selects which bit line's victim cell the operations target.
    pub fn with_victim(mut self, side: BitLineSide) -> Self {
        self.victim = side;
        self
    }

    /// Sets the convergence-recovery policy handed to the simulator.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Arms a deterministic fault-injection plan. Each [`Self::run`] clones
    /// the plan, so solve ordinals restart from the plan's current counter
    /// on every run (normally zero).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the hot-path solver tuning handed to the simulator (see
    /// [`dso_spice::SolverTuning`]).
    pub fn with_tuning(mut self, tuning: SolverTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// The targeted victim side.
    pub fn victim(&self) -> BitLineSide {
        self.victim
    }

    /// The operating point (stress combination) in force.
    pub fn operating_point(&self) -> &OperatingPoint {
        &self.op_point
    }

    /// Replaces the operating point.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BadOperatingPoint`] if it fails validation.
    pub fn set_operating_point(&mut self, op_point: OperatingPoint) -> Result<(), DramError> {
        op_point.validate()?;
        self.op_point = op_point;
        Ok(())
    }

    /// The column under test.
    pub fn column(&self) -> &Column {
        &self.column
    }

    /// Mutable column access (defect injection).
    pub fn column_mut(&mut self) -> &mut Column {
        &mut self.column
    }

    /// Runs an operation sequence with the victim's physical capacitor
    /// voltage initialized to `vc_init` (volts).
    ///
    /// # Errors
    ///
    /// * [`DramError::BadSequence`] for an empty sequence.
    /// * Electrical convergence failures as [`DramError::Spice`].
    pub fn run(&self, ops_seq: &[Operation], vc_init: f64) -> Result<OpTrace, DramError> {
        self.run_seeded(ops_seq, vc_init, None)
    }

    /// Runs an operation sequence like [`OperationEngine::run`], seeding
    /// each time step's Newton iteration from `seed` — the trace of the
    /// same sequence run under neighboring conditions (e.g. the adjacent
    /// defect resistance of a sweep). See
    /// [`dso_spice::Simulator::transient_seeded`] for the warm-start
    /// contract; a seed from a different sequence or time grid is ignored.
    ///
    /// # Errors
    ///
    /// Same contract as [`OperationEngine::run`].
    pub fn run_seeded(
        &self,
        ops_seq: &[Operation],
        vc_init: f64,
        seed: Option<&OpTrace>,
    ) -> Result<OpTrace, DramError> {
        let span = dso_obs::span("dram.op_sequence");
        span.note("ops", ops_seq.len() as f64);
        dso_obs::counter!("dram.op_runs").incr();
        dso_obs::counter!("dram.ops").add(ops_seq.len() as u64);
        let design: &ColumnDesign = self.column.design();
        let op = &self.op_point;
        let waves = ControlWaveforms::build(ops_seq, self.victim, design, op)?;
        let schedule = CycleSchedule::new(op.duty)?;
        let vh = 0.5 * op.vdd;
        let vref_level = vh - design.ref_skew;

        // Install the run's waveforms on a scratch copy of the circuit.
        let mut ckt = self.column.circuit().clone();
        ckt.set_waveform(sources::VDD, Waveform::Dc(op.vdd))?;
        ckt.set_waveform(sources::VBLEQ, Waveform::Dc(vh))?;
        ckt.set_waveform(sources::VREF, Waveform::Dc(vref_level))?;
        ckt.set_waveform(sources::SENN, waves.senn)?;
        ckt.set_waveform(sources::SENP, waves.senp)?;
        ckt.set_waveform(sources::DATAT, waves.data_true)?;
        ckt.set_waveform(sources::DATAC, waves.data_comp)?;
        ckt.set_waveform(sources::PEQ, waves.peq)?;
        ckt.set_waveform(sources::WLT, waves.wl_true)?;
        ckt.set_waveform(sources::WLC, waves.wl_comp)?;
        ckt.set_waveform(sources::WLRT, waves.wlr_true)?;
        ckt.set_waveform(sources::WLRC, waves.wlr_comp)?;
        ckt.set_waveform(sources::CSL, waves.csl)?;

        // Initial conditions: bit lines precharged, victim at vc_init, the
        // twin victim and plain cells storing full 1, references restored.
        let twin = self.victim.other();
        let vpp = op.vdd + design.wl_boost;
        let mut ics: Vec<(String, f64)> = vec![
            (nodes::BT.into(), vh),
            (nodes::BC.into(), vh),
            (nodes::SENN.into(), vh),
            (nodes::SENP.into(), vh),
            (nodes::VDD.into(), op.vdd),
            (nodes::VBLEQ.into(), vh),
            (nodes::VREF.into(), vref_level),
            (nodes::PEQ.into(), vpp),
            (nodes::access_drain(self.victim), vh),
            (nodes::access_drain(twin), vh),
            (nodes::access_source(self.victim), vc_init),
            (nodes::storage(self.victim), vc_init),
            (nodes::cap_top(self.victim), vc_init),
            (nodes::access_source(twin), op.vdd),
            (nodes::storage(twin), op.vdd),
            (nodes::cap_top(twin), op.vdd),
            (nodes::ref_storage(BitLineSide::True), vref_level),
            (nodes::ref_storage(BitLineSide::Comp), vref_level),
        ];
        for side in [BitLineSide::True, BitLineSide::Comp] {
            for i in 0..design.plain_cells_per_bitline {
                ics.push((nodes::plain_storage(side, i), op.vdd));
            }
        }
        // The output buffer input sits at vh initially; bias its output
        // near the corresponding level to help the first solve.
        ics.push((nodes::DOUT.into(), vh));
        ics.push((nodes::DOUTC.into(), vh));

        let dt = design.dt_fraction * op.tcyc;
        let tran_opts = TranOptions::new(waves.t_stop, dt)
            .map_err(DramError::Spice)?
            .with_ic(ics);
        let mut sim = Simulator::new(&ckt)
            .with_temperature(op.temp_c)
            .with_recovery(self.recovery)
            .with_tuning(self.tuning);
        if let Some(plan) = &self.fault_plan {
            sim = sim.with_fault_plan(plan.clone());
        }
        let tran = sim.transient_seeded(&tran_opts, seed.map(|s| s.tran()))?;

        // Extract per-cycle results. The physical cell voltage is taken at
        // the capacitor plate (`ct`), matching the paper's "voltage across
        // the cell capacitor".
        let storage_node = nodes::cap_top(self.victim);
        let mut cycles = Vec::with_capacity(ops_seq.len());
        for (k, &operation) in ops_seq.iter().enumerate() {
            let t_end = ((k + 1) as f64 * op.tcyc).min(waves.t_stop);
            let vc_end = tran.voltage_at(&storage_node, t_end)?;
            let read = if operation == Operation::R {
                let t_obs = (k as f64 + schedule.observe_at()) * op.tcyc;
                let diff =
                    tran.voltage_at(nodes::BT, t_obs)? - tran.voltage_at(nodes::BC, t_obs)?;
                Some(ReadOutcome {
                    logic: diff > 0.0,
                    differential: diff,
                })
            } else {
                None
            };
            cycles.push(CycleResult {
                op: operation,
                vc_end,
                read,
            });
        }
        Ok(OpTrace {
            cycles,
            tran,
            storage_node,
            tcyc: op.tcyc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DefectSite;

    /// A design with a coarser time step to keep debug-mode tests fast.
    fn test_design() -> ColumnDesign {
        ColumnDesign {
            dt_fraction: 1.0 / 300.0,
            ..ColumnDesign::default()
        }
    }

    fn engine(side: BitLineSide) -> OperationEngine {
        OperationEngine::new(test_design(), OperatingPoint::nominal())
            .unwrap()
            .with_victim(side)
    }

    #[test]
    fn operation_labels() {
        assert_eq!(Operation::W0.to_string(), "w0");
        assert_eq!(Operation::W1.write_value(), Some(true));
        assert_eq!(Operation::R.write_value(), None);
    }

    #[test]
    fn physical_write_mapping() {
        assert_eq!(physical_write(false, BitLineSide::True), Operation::W0);
        assert_eq!(physical_write(false, BitLineSide::Comp), Operation::W1);
    }

    #[test]
    fn write_one_then_read_true_side() {
        let trace = engine(BitLineSide::True)
            .run(&[Operation::W1, Operation::R], 0.0)
            .unwrap();
        let vc = trace.vc_ends();
        assert!(vc[0] > 1.8, "w1 should charge the cell high, got {vc:?}");
        assert_eq!(trace.read_values(), vec![Some(true)]);
        // The read restores the level.
        assert!(vc[1] > 1.8, "read-restore failed: {vc:?}");
    }

    #[test]
    fn write_zero_then_read_true_side() {
        let trace = engine(BitLineSide::True)
            .run(&[Operation::W0, Operation::R], 2.4)
            .unwrap();
        let vc = trace.vc_ends();
        assert!(vc[0] < 0.6, "w0 should discharge the cell, got {vc:?}");
        assert_eq!(trace.read_values(), vec![Some(false)]);
    }

    #[test]
    fn comp_side_inverts_physical_level() {
        let trace = engine(BitLineSide::Comp)
            .run(&[Operation::W1, Operation::R], 2.4)
            .unwrap();
        let vc = trace.vc_ends();
        // Logic 1 on the complementary side is a physical low level.
        assert!(vc[0] < 0.6, "comp w1 should store physical 0, got {vc:?}");
        assert_eq!(trace.read_values(), vec![Some(true)]);
        let read = trace.cycles()[1].read.unwrap();
        assert!(!read.accessed_high(BitLineSide::Comp));
    }

    #[test]
    fn read_of_floating_open_cell_resolves_to_one() {
        // With a fully open cell the accessed bit line receives no signal
        // and the skewed reference makes the read resolve to logic 1
        // (paper footnote, Section 3).
        let mut eng = engine(BitLineSide::True);
        eng.column_mut()
            .set_defect_resistance(DefectSite::O3, BitLineSide::True, 1e9)
            .unwrap();
        let trace = eng.run(&[Operation::R], 0.0).unwrap();
        assert_eq!(trace.read_values(), vec![Some(true)]);
    }

    #[test]
    fn open_defect_blocks_w0() {
        let mut eng = engine(BitLineSide::True);
        eng.column_mut()
            .set_defect_resistance(DefectSite::O3, BitLineSide::True, 2e6)
            .unwrap();
        let trace = eng.run(&[Operation::W0], 2.4).unwrap();
        let vc = trace.vc_ends()[0];
        assert!(vc > 1.5, "2 MΩ open should block the 0 write, vc = {vc}");
    }

    #[test]
    fn trace_accessors() {
        let trace = engine(BitLineSide::True).run(&[Operation::R], 2.4).unwrap();
        assert_eq!(trace.cycles().len(), 1);
        assert_eq!(trace.tcyc(), 60e-9);
        let (t, vc) = trace.storage_waveform().unwrap();
        assert_eq!(t.len(), vc.len());
        assert!(t.len() > 100);
        assert!(!trace.tran().is_empty());
    }

    #[test]
    fn bad_operating_point_rejected() {
        let mut op = OperatingPoint::nominal();
        op.vdd = 9.0;
        assert!(OperationEngine::new(test_design(), op).is_err());
        let mut eng = engine(BitLineSide::True);
        assert!(eng.set_operating_point(op).is_err());
    }

    #[test]
    fn empty_sequence_rejected() {
        let err = engine(BitLineSide::True).run(&[], 0.0).unwrap_err();
        assert!(matches!(err, DramError::BadSequence(_)));
    }
}
