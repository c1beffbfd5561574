//! Figure 2 — result planes for `w0`, `w1` and `r` at the nominal stress
//! combination (`Vdd = 2.4 V`, `tcyc = 60 ns`, `T = +27 °C`).
//!
//! Regenerates the three planes for the cell open of Figure 1, prints the
//! settlement curves, the sense-threshold curve `Vsa(R)`, the mid-point
//! voltage `Vmp`, and the border resistance from both extraction methods.

use dso_bench::figure_design;
use dso_bench::plot::{zip_points, AsciiChart};
use dso_core::analysis::{find_border, result_planes, Analyzer, DetectionCondition};
use dso_core::eval::EvalService;
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::OperatingPoint;
use dso_num::interp::logspace;
use dso_spice::units::format_eng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let analyzer = Analyzer::new(figure_design());
    let service = EvalService::new(analyzer.clone());
    let defect = Defect::cell_open(BitLineSide::True);
    let nominal = OperatingPoint::nominal();

    println!("Figure 2: result planes at the nominal stress combination");
    println!("==========================================================");
    println!(
        "defect {defect}, Vdd = {} V, tcyc = {} ns, T = {} C",
        nominal.vdd,
        nominal.tcyc * 1e9,
        nominal.temp_c
    );
    println!();

    let r_values = logspace(1e3, 1e7, 13)?;
    eprintln!(
        "generating planes over {} resistance points…",
        r_values.len()
    );
    let planes = result_planes(&analyzer, &defect, &nominal, &r_values, 2)?;

    // (a) w0 plane.
    let mut chart = AsciiChart::new(
        "(a) plane of w0 — Vc after successive w0 ops",
        "R (Ohm)",
        "Vc (V)",
    )
    .with_log_x();
    chart.add_series(
        "(1) w0",
        zip_points(&r_values, planes.w0.after_ops(1)?.ys()),
    );
    chart.add_series(
        "(2) w0",
        zip_points(&r_values, planes.w0.after_ops(2)?.ys()),
    );
    chart.add_series("Vsa(R)", zip_points(&r_values, planes.r.vsa.ys()));
    println!("{}", chart.render());

    // (b) w1 plane.
    let mut chart = AsciiChart::new(
        "(b) plane of w1 — Vc after successive w1 ops",
        "R (Ohm)",
        "Vc (V)",
    )
    .with_log_x();
    chart.add_series(
        "(1) w1",
        zip_points(&r_values, planes.w1.after_ops(1)?.ys()),
    );
    chart.add_series(
        "(2) w1",
        zip_points(&r_values, planes.w1.after_ops(2)?.ys()),
    );
    chart.add_series("Vsa(R)", zip_points(&r_values, planes.r.vsa.ys()));
    println!("{}", chart.render());

    // (c) r plane.
    let mut chart = AsciiChart::new(
        "(c) plane of r — Vc after reads started 0.2 V around Vsa",
        "R (Ohm)",
        "Vc (V)",
    )
    .with_log_x();
    chart.add_series("Vsa(R)", zip_points(&r_values, planes.r.vsa.ys()));
    chart.add_series(
        "(1) r from below",
        zip_points(&r_values, planes.r.from_below[0].ys()),
    );
    chart.add_series(
        "(1) r from above",
        zip_points(&r_values, planes.r.from_above[0].ys()),
    );
    println!("{}", chart.render());

    println!(
        "Vmp (mid-point voltage of the healthy cell): {:.3} V",
        planes.vmp
    );
    match planes.border_from_intersection()? {
        Some(br) => println!(
            "border resistance from the w0 x Vsa curve intersection: {}",
            format_eng(br, "Ω")
        ),
        None => println!("no w0 x Vsa intersection inside the sweep"),
    }

    let detection = DetectionCondition::default_for(&defect, 2);
    let border = find_border(&service, &defect, &detection, &nominal, 0.03)?;
    println!(
        "border resistance from pass/fail bisection of {}: {} ({} evaluations)",
        detection.display_for(defect.side()),
        format_eng(border.resistance, "Ω"),
        border.evaluations,
    );
    println!();
    println!("paper (Fig. 2 / Sec. 4): BR ≈ 200 kΩ at the nominal SC; Vsa moves");
    println!("toward GND as R grows, so large opens read 1 instead of 0.");
    println!();
    println!("CSV (all plane series, for external plotting):");
    print!("{}", planes.to_csv());
    Ok(())
}
