//! A SPICE-class electrical circuit simulator.
//!
//! The paper this workspace reproduces ran its defect simulations on
//! *Titan*, a proprietary Siemens/Infineon SPICE simulator. This crate
//! rebuilds the required subset from scratch:
//!
//! * [`circuit::Circuit`] — a netlist of nodes and devices, built either
//!   programmatically or by parsing a SPICE deck ([`netlist`]); circuits
//!   serialize back to deck text via [`export::to_deck`].
//! * Device models ([`device`], [`mos`], [`diode`]): resistors, capacitors,
//!   independent voltage/current sources with [`waveform`]s, a level-1
//!   MOSFET with temperature-dependent mobility/threshold and subthreshold
//!   leakage, a junction diode, and a voltage-controlled switch.
//! * [`engine::Simulator`] — modified nodal analysis (MNA) with damped
//!   Newton–Raphson, DC operating point (with gmin stepping) and fixed-step
//!   transient analysis (backward Euler or trapezoidal), producing
//!   [`engine::TranResult`] waveforms.
//! * [`recovery`] — the bounded convergence-recovery ladder (method
//!   fallback, timestep subdivision, gmin stepping) that keeps long
//!   simulation campaigns alive through individual solver failures, with
//!   per-run [`recovery::RecoveryStats`] reporting.
//!
//! # Example
//!
//! An RC low-pass step response:
//!
//! ```
//! use dso_spice::circuit::Circuit;
//! use dso_spice::engine::{Simulator, TranOptions};
//! use dso_spice::waveform::Waveform;
//!
//! # fn main() -> Result<(), dso_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.add_vsource("Vin", vin, Circuit::GROUND, Waveform::Dc(1.0))?;
//! ckt.add_resistor("R1", vin, vout, 1e3)?;
//! ckt.add_capacitor("C1", vout, Circuit::GROUND, 1e-6)?;
//!
//! let sim = Simulator::new(&ckt);
//! let result = sim.transient(&TranOptions::new(5e-3, 1e-5)?)?;
//! let v_end = result.voltage_at("out", 5e-3)?;
//! assert!((v_end - 1.0).abs() < 0.01); // fully charged after 5 tau
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod circuit;
pub mod device;
pub mod diode;
pub mod engine;
pub mod error;
pub mod export;
pub mod mos;
pub mod netlist;
pub mod recovery;
pub mod units;
pub mod waveform;

pub use circuit::{Circuit, NodeId};
pub use engine::{Simulator, SolverTuning, TranOptions, TranResult};
pub use error::SpiceError;
pub use recovery::{RecoveryPolicy, RecoveryStats};

/// Absolute zero offset: converts Celsius to Kelvin.
pub const CELSIUS_TO_KELVIN: f64 = 273.15;

/// Boltzmann constant over electron charge, in V/K.
pub const K_OVER_Q: f64 = 8.617_333_262e-5;

/// Thermal voltage `kT/q` at a temperature in Celsius.
///
/// # Example
///
/// ```
/// let vt = dso_spice::thermal_voltage(27.0);
/// assert!((vt - 0.02585).abs() < 1e-4);
/// ```
pub fn thermal_voltage(temp_celsius: f64) -> f64 {
    K_OVER_Q * (temp_celsius + CELSIUS_TO_KELVIN)
}

#[cfg(test)]
mod tests {
    #[test]
    fn thermal_voltage_at_room_temp() {
        assert!((super::thermal_voltage(26.85) - 0.025852).abs() < 1e-5);
    }
}
