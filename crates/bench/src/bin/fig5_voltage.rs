//! Figure 5 — optimizing the supply-voltage stress:
//! `Vdd ∈ {2.1, 2.4, 2.7} V` with `Rop = 200 kΩ`, `tcyc = 60 ns`,
//! `T = +27 °C`.
//!
//! Raising `Vdd` weakens `w0` (the cell starts from a higher 1) but
//! *widens* the range of voltages read as 0 — conflicting indications, so
//! the paper resolves the direction by measuring the border resistance at
//! each candidate voltage (Section 4.3).

use dso_bench::figure_design;
use dso_bench::figures::{read_panel, w0_panel};
use dso_bench::plot::{zip_points, AsciiChart};
use dso_core::analysis::{find_border, Analyzer, DetectionCondition};
use dso_core::eval::EvalService;
use dso_core::stress::StressKind;
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::OperatingPoint;
use dso_spice::units::format_eng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let service = EvalService::new(Analyzer::new(figure_design()));
    let defect = Defect::cell_open(BitLineSide::True);
    let nominal = OperatingPoint::nominal();
    // Probe at the measured nominal border resistance — the paper probes at
    // its border (200 kOhm for its memory model); ours differs in absolute
    // value because the column parameters are documented substitutions.
    let detection_probe = DetectionCondition::default_for(&defect, 2);
    let rop = find_border(&service, &defect, &detection_probe, &nominal, 0.05)?.resistance;
    eprintln!("probing at the measured nominal border Rop = {rop:.3e} Ohm (paper: 200 kOhm)");
    let vdds = [2.1, 2.4, 2.7];

    println!("Figure 5: simulation with Vdd = 2.1 V, 2.4 V and 2.7 V");
    println!("=======================================================");
    println!("Rop = nominal border (paper: 200 kΩ), tcyc = 60 ns, T = +27 °C");
    println!();

    // --- Top panel: w0 -------------------------------------------------
    let mut chart = AsciiChart::new("Vc after a w0 operation", "t (s)", "Vc (V)");
    let mut endpoints = Vec::new();
    for &vdd in &vdds {
        let op = StressKind::SupplyVoltage.apply_to(&nominal, vdd)?;
        let label = format!("Vdd = {vdd:.1} V");
        let panel = w0_panel(&service, &defect, rop, &op, &label)?;
        endpoints.push((label.clone(), panel.vc_end));
        chart.add_series(&label, zip_points(&panel.times, &panel.vc));
    }
    println!("{}", chart.render());
    for (label, vc) in &endpoints {
        println!("  end-of-cycle Vc ({label}): {vc:.3} V");
    }
    println!("  => increasing Vdd reduces the ability of w0 to write a 0");
    println!("     (more stressful for the w0 operation)");
    println!();

    // --- Bottom panel: read just below the nominal Vsa ------------------
    let vsa_nom = service.vsa(&defect, rop, &nominal)?;
    let vc_init = (vsa_nom - 0.05).max(0.0);
    println!("nominal Vsa at the border: {vsa_nom:.3} V; reads start at {vc_init:.3} V");
    let mut chart = AsciiChart::new("Vc after a read operation", "t (s)", "Vc (V)");
    for &vdd in &vdds {
        let op = StressKind::SupplyVoltage.apply_to(&nominal, vdd)?;
        let label = format!("Vdd = {vdd:.1} V");
        let panel = read_panel(&service, &defect, rop, &op, vc_init, &label)?;
        let vsa = service.vsa(&defect, rop, &op)?;
        println!(
            "  Vdd = {vdd:.1} V: Vsa = {vsa:.3} V, sensed {}",
            if panel.sensed_high.unwrap_or(false) {
                "1"
            } else {
                "0"
            }
        );
        chart.add_series(&label, zip_points(&panel.times, &panel.vc));
    }
    println!("{}", chart.render());
    println!("  => increasing Vdd enlarges the range of Vc read as 0 (less");
    println!("     stressful for the r operation) — conflicting indications!");
    println!();

    // --- Resolve by border comparison -----------------------------------
    let detection = DetectionCondition::default_for(&defect, 2);
    let mut best: Option<(f64, f64)> = None;
    for &vdd in &vdds {
        let op = StressKind::SupplyVoltage.apply_to(&nominal, vdd)?;
        let border = find_border(&service, &defect, &detection, &op, 0.03)?;
        println!(
            "  BR at Vdd = {vdd:.1} V: {}",
            format_eng(border.resistance, "Ω")
        );
        if best.map(|(_, b)| border.resistance < b).unwrap_or(true) {
            best = Some((vdd, border.resistance));
        }
    }
    let (vdd_best, br_best) = best.expect("three candidates probed");
    println!();
    println!(
        "conclusion (paper Sec. 4.3): Vdd = {vdd_best:.1} V gives the lowest BR ({}) and",
        format_eng(br_best, "Ω")
    );
    println!("is the most effective supply voltage (the paper picks 2.1 V).");
    Ok(())
}
