//! `table1`: the paper's end-to-end pipeline, `StressOptimizer::optimize`
//! over the seven Table-1 defect sites, each on a fresh optimizer whose
//! candidate probes run in parallel at chunk size 1.
//!
//! The seed picks each site's bit-line side, the order of the sites, and
//! a small offset to the nominal stress combination. One round optimizes
//! every site once; the run repeats the round until its time is used.

use crate::rng::Rng;
use crate::workload::{self, Ctx, Round, Timed, Traced};
use dso_core::analysis::Analyzer;
use dso_core::eval::EvalService;
use dso_core::exec::CampaignConfig;
use dso_core::stress::optimizer::{OptimizerConfig, StressOptimizer, StressReport};
use dso_core::Session;
use dso_defects::{BitLineSide, Defect};
use dso_dram::column::{Column, DefectSite};
use dso_dram::design::OperatingPoint;
use std::time::Instant;

/// An optimization slower than this misses the latency limit.
const ROW_LIMIT_MS: f64 = 15_000.0;
/// Set-ups timed in each process that times them (see `SETUP_PROCESSES`).
const SETUPS: usize = 51;
/// Every row's stressed border must widen the failing range at least
/// this much over the nominal one.
const MIN_IMPROVEMENT: f64 = 0.999;

/// The inputs `seed` generates.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The nominal stress combination every row starts from.
    pub nominal: OperatingPoint,
    /// The defects, in optimization order.
    pub defects: Vec<Defect>,
}

/// The plan `seed` generates.
pub fn plan(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, "table1");
    let mut defects: Vec<Defect> = DefectSite::ALL
        .iter()
        .map(|&site| Defect::new(site, [BitLineSide::True, BitLineSide::Comp][rng.below(2)]))
        .collect();
    rng.shuffle(&mut defects);
    let base = OperatingPoint::nominal();
    let nominal = OperatingPoint {
        vdd: base.vdd + rng.range(-0.01, 0.01),
        tcyc: base.tcyc + rng.range(-0.5e-9, 0.5e-9),
        temp_c: base.temp_c + rng.range(-1.0, 1.0),
        ..base
    };
    Plan { nominal, defects }
}

fn setup(seed: u64) -> Result<(Plan, Analyzer), String> {
    let plan = plan(seed);
    let design = workload::design();
    Column::build(&design).map_err(|e| format!("column generation: {e}"))?;
    Ok((plan, Analyzer::new(design)))
}

fn optimizer(analyzer: &Analyzer, threads: usize) -> StressOptimizer {
    let session = Session::from_parts(
        EvalService::new(analyzer.clone()),
        CampaignConfig::with_threads(threads),
    );
    StressOptimizer::with_session(session).with_config(OptimizerConfig {
        exec: CampaignConfig::with_threads(threads).with_chunk(1),
        ..OptimizerConfig::default()
    })
}

/// The expectation line of one Table-1 row.
fn summary(r: &StressReport) -> String {
    let cond = |rep: &dso_core::stress::optimizer::BorderReport| {
        rep.detection()
            .display_for(r.defect.side())
            .replace(' ', "_")
    };
    let arrows: String = r.decisions.iter().map(|d| d.arrow()).collect();
    format!(
        "{} {} nominal={:?} stressed={:?} arrows={arrows} nominal_cond={} stressed_cond={}",
        r.defect.site().label(),
        r.defect.side().label(),
        r.nominal.border(),
        r.stressed.border(),
        cond(&r.nominal),
        cond(&r.stressed),
    )
}

fn round(analyzer: &Analyzer, plan: &Plan, threads: usize) -> Round {
    let _span = dso_obs::span("bench.round");
    let t0 = Instant::now();
    let mut r = Round::default();
    for defect in &plan.defects {
        let opt = optimizer(analyzer, threads);
        let t = Instant::now();
        let out = {
            let _span = dso_obs::span("bench.optimize");
            opt.optimize(defect, &plan.nominal)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let cache = opt.service().cache_stats();
        r.points += cache.hits + cache.disk_hits + cache.misses;
        r.attempted += 1;
        match out {
            Ok(report) => {
                if report.improvement() < MIN_IMPROVEMENT {
                    r.errors.push(format!(
                        "{defect}: improvement {:.4} < {MIN_IMPROVEMENT}",
                        report.improvement()
                    ));
                }
                r.latencies_ms.push(Some(ms));
                r.results.push(summary(&report));
            }
            Err(e) => {
                r.failed += 1;
                r.latencies_ms.push(None);
                r.results.push(format!("error: {e}"));
            }
        }
    }
    r.summaries = r.results.clone();
    r.wall_s = t0.elapsed().as_secs_f64();
    r
}

/// Only the set-ups of a timed run.
pub fn setups(ctx: &Ctx) -> Timed {
    let mut t = Timed::default();
    workload::time_setups(SETUPS, &mut t, || setup(ctx.seed));
    t
}

/// The timed run.
pub fn timed(ctx: &Ctx) -> Timed {
    let mut t = Timed {
        limit_ms: ROW_LIMIT_MS,
        ..Timed::default()
    };
    let Some((plan, analyzer)) = workload::time_setups(SETUPS, &mut t, || setup(ctx.seed)) else {
        return t;
    };
    workload::repeat_rounds(ctx, &mut t, "table1.txt", 1e-3, || {
        round(&analyzer, &plan, ctx.nproc)
    });
    t.notes.push(format!(
        "table1: {} rows per round at vdd={:.4} V tcyc={:.3} ns T={:.2} C, {} rounds, {} threads",
        plan.defects.len(),
        plan.nominal.vdd,
        plan.nominal.tcyc * 1e9,
        plan.nominal.temp_c,
        t.unit_wall_s.len(),
        ctx.nproc
    ));
    t
}

/// The traced run: one round untraced, then the same round traced.
pub fn traced(ctx: &Ctx) -> Traced {
    let mut out = Traced {
        threads: ctx.nproc,
        ..Traced::default()
    };
    let (plan, analyzer) = match setup(ctx.seed) {
        Ok(x) => x,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let untraced = round(&analyzer, &plan, ctx.nproc);
    out.untraced_wall_s = untraced.wall_s;
    out.errors.extend(untraced.errors);
    match workload::traced(ctx, "table1", || round(&analyzer, &plan, ctx.nproc)) {
        Ok((r, wall, fold, snapshot)) => {
            out.traced_wall_s = wall;
            out.attempted = r.attempted;
            out.failed = r.failed;
            out.errors.extend(r.errors);
            if r.results != untraced.results {
                out.errors
                    .push("traced Table-1 rows differ from untraced rows".into());
            }
            out.fold = fold;
            out.snapshot = Some(snapshot);
        }
        Err(e) => out.errors.push(e),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        assert_eq!(plan(5), plan(5));
        assert_ne!(plan(5), plan(6));
    }

    #[test]
    fn plan_covers_every_site_near_nominal() {
        let p = plan(9);
        let mut sites: Vec<&str> = p.defects.iter().map(|d| d.site().label()).collect();
        sites.sort_unstable();
        assert_eq!(sites, ["B1", "B2", "O1", "O2", "O3", "Sg", "Sv"]);
        let n = OperatingPoint::nominal();
        assert!((p.nominal.vdd - n.vdd).abs() <= 0.01);
        assert!((p.nominal.tcyc - n.tcyc).abs() <= 0.5e-9);
        assert!((p.nominal.temp_c - n.temp_c).abs() <= 1.0);
    }
}
