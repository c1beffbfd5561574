//! Table 1 — stress optimization results for all 7 defects × {true,
//! comp}.
//!
//! Runs the full Section-4 methodology over every defect and prints the
//! table with the paper's columns: nominal border resistance, the chosen
//! direction for each stress, the stressed border resistance, and the
//! stressed detection condition.
//!
//! Expected shape versus the paper: `tcyc` ↓ for all defects, `T` ↑ for
//! all defects (ohmic defect models), defect-dependent `Vdd`; stressed
//! borders strictly more stressful than nominal; true/comp rows agree on
//! borders and directions with 1s and 0s interchanged in the detection
//! conditions.

use dso_bench::figure_design;
use dso_core::stress::table::{format_table, optimize_all};
use dso_core::stress::{OperatingPoint, StressKind, StressOptimizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let optimizer = StressOptimizer::new(figure_design());
    let nominal = OperatingPoint::nominal();

    println!("Table 1: ST optimization results for the defects of Figure 7");
    println!("=============================================================");
    println!(
        "nominal SC: Vdd = {} V, tcyc = {} ns, T = {} °C",
        nominal.vdd,
        (nominal.tcyc * 1e9).round(),
        nominal.temp_c
    );
    println!();

    let reports = optimize_all(&optimizer, &nominal, |report| {
        eprintln!(
            "  {}: nominal {} -> stressed {} ({:.2}x)",
            report.defect,
            report.nominal.border_resistance(),
            report.stressed.border_resistance(),
            report.improvement(),
        );
    })?;

    println!("{}", format_table(&reports, &StressKind::TABLE1));

    // Summary checks against the paper's qualitative claims.
    let tcyc_down_opens = reports.iter().filter(|r| r.defect.fails_above()).all(|r| {
        r.decisions
            .iter()
            .find(|d| d.kind == StressKind::CycleTime)
            .map(|d| d.arrow() == "↓")
            .unwrap_or(false)
    });
    let tcyc_up_count = reports
        .iter()
        .filter(|r| {
            r.decisions
                .iter()
                .find(|d| d.kind == StressKind::CycleTime)
                .map(|d| d.arrow() == "↑")
                .unwrap_or(false)
        })
        .count();
    let improvements: Vec<f64> = reports.iter().map(|r| r.improvement()).collect();
    let all_improve = improvements.iter().all(|&f| f >= 0.999);
    println!();
    println!(
        "paper claim: reducing tcyc is more stressful for opens (write-time limited) — {}",
        if tcyc_down_opens {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    );
    if tcyc_up_count > 0 {
        println!("  note: {tcyc_up_count} leak-type defects prefer tcyc ↑ in our model — their");
        println!("  failure is retention-limited, so a longer cycle leaks more charge");
        println!("  before the read (the paper models the same defects but asserts ↓");
        println!("  from write-time reasoning only; see EXPERIMENTS.md)");
    }
    println!(
        "paper claim: the stressed SC widens every failing range — {} (min factor {:.2}x, max {:.2}x)",
        if all_improve { "reproduced" } else { "NOT reproduced" },
        improvements.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
        improvements.iter().fold(0.0_f64, |a, &b| a.max(b)),
    );
    Ok(())
}
