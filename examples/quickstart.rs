//! Quickstart: inject the paper's cell open, find its border resistance,
//! and optimize the stress combination against it.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dram_stress_opt::analysis::DetectionCondition;
use dram_stress_opt::defects::{BitLineSide, Defect};
use dram_stress_opt::dram::design::ColumnDesign;
use dram_stress_opt::stress::{OperatingPoint, OptimizerConfig, StressKind, StressOptimizer};
use dram_stress_opt::Session;
use dso_spice::units::format_eng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The memory model: one folded bit-line DRAM column. A session
    //    bundles the memoizing evaluation service with the execution
    //    policy (threads, chunking — all DSO_* tunable).
    let design = ColumnDesign::default();
    let session = Session::with_design(design.clone());
    let nominal = OperatingPoint::nominal();

    // 2. The defect: a resistive open between storage node and capacitor,
    //    on the true bit line (Figure 1 of the paper).
    let defect = Defect::cell_open(BitLineSide::True);
    println!("defect under analysis: {defect} ({})", defect.class());

    // 3. Border resistance at the nominal stress combination, using the
    //    detection condition {... w1 w1 w0 r0 ...}.
    let detection = DetectionCondition::default_for(&defect, 2);
    println!(
        "detection condition:   {}",
        detection.display_for(defect.side())
    );
    let border = session.border(&defect, &detection, &nominal, 0.05)?;
    println!(
        "nominal border:        {} ({} simulations)",
        border, border.evaluations
    );

    // 4. Optimize the stresses (cycle time and temperature here; add
    //    StressKind::SupplyVoltage for the full Table-1 treatment).
    let optimizer = StressOptimizer::new(design).with_config(OptimizerConfig {
        border_tol: 0.08,
        max_settling_writes: 4,
        stresses: vec![StressKind::CycleTime, StressKind::Temperature],
        ..OptimizerConfig::default()
    });
    let report = optimizer.optimize(&defect, &nominal)?;
    println!();
    println!("{report}");
    println!();
    println!(
        "the stressed combination moves the border from {} to {} — every",
        format_eng(report.nominal.border(), "Ω"),
        format_eng(report.stressed.border(), "Ω"),
    );
    println!("resistance in between is a defect the stressed test now catches.");
    Ok(())
}
