//! Electrical and behavioral models of a folded-bit-line DRAM column.
//!
//! The paper simulates "a simplified design-validation model of a real DRAM
//! \[with\] one folded cell array column (2x2 memory cells, 2 reference cells,
//! precharge devices and a sense amplifier), one write driver and one data
//! output buffer". This crate rebuilds that model on top of the `dso-spice`
//! simulator:
//!
//! * [`design::ColumnDesign`] — every electrical parameter of the column
//!   (supply, capacitances, transistor geometries, timing fractions).
//! * [`design::DesignConfig`] → [`design::DesignPlan`] — the declarative
//!   config → plan → generate pipeline that produces whole families of
//!   columns for design-space sweeps; the paper's column is
//!   [`design::DesignConfig::paper_default`].
//! * [`design::OperatingPoint`] — the *stress* knobs: `Vdd`, `tcyc`, duty
//!   cycle and temperature.
//! * [`column`][mod@column] — builds the column netlist, including pre-placed defect
//!   sites on the victim cells so defect resistances can be swept in place.
//! * [`timing`] — converts an operation sequence into the control-signal
//!   waveforms of one or more clock cycles.
//! * [`ops`] — the operation engine: runs `w0`/`w1`/`r` sequences through
//!   the transient simulator and reports per-cycle cell voltages and read
//!   values.
//! * [`behavior`] — a fast functional (non-electrical) memory model with a
//!   pluggable per-cell behavior, used by the march-test engine.
//!
//! # Example
//!
//! Write a 1 into the victim cell of a defect-free column and read it back:
//!
//! ```no_run
//! use dso_dram::design::{ColumnDesign, OperatingPoint};
//! use dso_dram::ops::{Operation, OperationEngine};
//!
//! # fn main() -> Result<(), dso_dram::DramError> {
//! let design = ColumnDesign::default();
//! let engine = OperationEngine::new(design, OperatingPoint::nominal())?;
//! let trace = engine.run(&[Operation::W1, Operation::R], 0.0)?;
//! assert_eq!(trace.read_values(), vec![Some(true)]);
//! # Ok(())
//! # }
//! ```

pub mod behavior;
pub mod column;
pub mod design;
pub mod error;
pub mod ops;
pub mod timing;

pub use design::{ColumnDesign, DesignConfig, DesignPlan, OperatingPoint, ReferenceScheme};
pub use error::DramError;
pub use ops::{Operation, OperationEngine};
