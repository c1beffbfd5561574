//! `plane_sweep`: cold `Session::planes` campaigns, each on a fresh
//! session, at one executor thread per core.
//!
//! A round pairs every defect site with every stress corner. The seed
//! picks the bit-line side of each pair, jitters each campaign's
//! log-spaced resistance grid inward by up to a tenth of a decade at each
//! end of the defect's `sweep_range()`, and orders the campaigns. The run
//! repeats the round on fresh sessions until its time is used, so every
//! repetition does identical work.

use crate::rng::Rng;
use crate::workload::{self, Ctx, Round, Timed, Traced};
use dso_core::analysis::planes::PlaneCampaign;
use dso_core::analysis::{Analyzer, Confidence};
use dso_core::eval::EvalService;
use dso_core::exec::CampaignConfig;
use dso_core::service::protocol::campaign_result;
use dso_core::Session;
use dso_defects::{BitLineSide, Defect};
use dso_dram::column::{Column, DefectSite};
use dso_dram::design::OperatingPoint;
use dso_num::interp::logspace;
use std::time::Instant;

/// Resistance points per campaign.
const R_POINTS: usize = 10;
/// Operations per plane trajectory.
const N_OPS: usize = 2;
/// A campaign slower than this misses the latency limit.
const CAMPAIGN_LIMIT_MS: f64 = 5_000.0;
/// Set-ups timed in each process that times them (see `SETUP_PROCESSES`).
const SETUPS: usize = 51;

/// The stress corners every site is paired with: nominal, and three
/// corners inside the specification ranges the stress optimizer explores.
const CORNERS: [OperatingPoint; 4] = [
    OperatingPoint {
        vdd: 2.4,
        tcyc: 60e-9,
        duty: 0.5,
        temp_c: 27.0,
    },
    OperatingPoint {
        vdd: 2.1,
        tcyc: 55e-9,
        duty: 0.5,
        temp_c: 87.0,
    },
    OperatingPoint {
        vdd: 2.7,
        tcyc: 70e-9,
        duty: 0.5,
        temp_c: -33.0,
    },
    OperatingPoint {
        vdd: 2.25,
        tcyc: 65e-9,
        duty: 0.5,
        temp_c: 57.0,
    },
];

/// One campaign of a round.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Defect under analysis.
    pub defect: Defect,
    /// Stress corner.
    pub op: OperatingPoint,
    /// Swept resistances.
    pub r_values: Vec<f64>,
}

/// The round of campaigns `seed` generates.
pub fn jobs(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed, "plane_sweep");
    let mut jobs = Vec::new();
    for site in DefectSite::ALL {
        for op in CORNERS {
            let side = [BitLineSide::True, BitLineSide::Comp][rng.below(2)];
            let defect = Defect::new(site, side);
            let (lo, hi) = defect.sweep_range();
            let lo = lo * 10f64.powf(rng.range(0.0, 0.1));
            let hi = hi / 10f64.powf(rng.range(0.0, 0.1));
            jobs.push(Job {
                defect,
                op,
                r_values: logspace(lo, hi, R_POINTS).expect("a valid log grid"),
            });
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// Everything a run needs before its first campaign: the inputs, the
/// generated column (validating the design), and the analyzer sessions
/// are built from.
fn setup(seed: u64) -> Result<(Vec<Job>, Analyzer), String> {
    let jobs = jobs(seed);
    let design = workload::design();
    Column::build(&design).map_err(|e| format!("column generation: {e}"))?;
    Ok((jobs, Analyzer::new(design)))
}

/// The expectation line of one campaign: identity, border, the `Vsa(R)`
/// curve and the first `w0` settlement curve.
fn summary(job: &Job, c: &PlaneCampaign) -> String {
    let nums = |ys: &[f64]| {
        ys.iter()
            .map(|y| format!("{y:?}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let border = match c.border_from_intersection() {
        Ok(Some(b)) => format!("{b:?}"),
        Ok(None) => "none".into(),
        Err(e) => format!("error:{}", e.to_string().replace(' ', "_")),
    };
    let w0 = c
        .planes
        .w0
        .after_ops(1)
        .map_or_else(|_| "missing".into(), |k| nums(k.ys()));
    format!(
        "{} {} vdd={:?} tcyc={:?} temp={:?} border={border} vsa={} w0_1={w0}",
        job.defect.site().label(),
        job.defect.side().label(),
        job.op.vdd,
        job.op.tcyc,
        job.op.temp_c,
        nums(c.planes.r.vsa.ys()),
    )
}

fn round(analyzer: &Analyzer, jobs: &[Job], config: &CampaignConfig) -> Round {
    let _span = dso_obs::span("bench.round");
    let t0 = Instant::now();
    let mut r = Round::default();
    for job in jobs {
        let session = Session::from_parts(EvalService::new(analyzer.clone()), config.clone());
        let t = Instant::now();
        let out = {
            let _span = dso_obs::span("bench.campaign");
            session.planes(&job.defect, &job.op, &job.r_values, N_OPS)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match out {
            Ok(c) => {
                let lost = c.perf.failures as u64;
                r.points += c.perf.points as u64;
                r.failed += lost;
                let clean = lost == 0 && c.confidence == Confidence::Full;
                r.latencies_ms.push(clean.then_some(ms));
                r.results.push(campaign_result(&c).to_string());
                r.summaries.push(summary(job, &c));
            }
            Err(e) => {
                r.points += job.r_values.len() as u64;
                r.failed += job.r_values.len() as u64;
                r.latencies_ms.push(None);
                r.results.push(format!("error: {e}"));
                r.summaries.push(format!("error: {e}"));
            }
        }
    }
    r.attempted = r.points;
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
        limit_ms: CAMPAIGN_LIMIT_MS,
        ..Timed::default()
    };
    let Some((jobs, analyzer)) = workload::time_setups(SETUPS, &mut t, || setup(ctx.seed)) else {
        return t;
    };
    let config = CampaignConfig::with_threads(ctx.nproc);
    workload::repeat_rounds(ctx, &mut t, "plane_sweep.txt", 1e-6, || {
        round(&analyzer, &jobs, &config)
    });
    t.notes.push(format!(
        "plane_sweep: {} campaigns x {} points per round, {} rounds, {} threads",
        jobs.len(),
        R_POINTS,
        t.unit_wall_s.len(),
        ctx.nproc
    ));
    t
}

/// The traced run: one round untraced, the same round traced, and the
/// same round at one thread as the serial baseline of the executor.
pub fn traced(ctx: &Ctx) -> Traced {
    let mut out = Traced {
        threads: ctx.nproc,
        ..Traced::default()
    };
    let (jobs, analyzer) = match setup(ctx.seed) {
        Ok(x) => x,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let parallel = CampaignConfig::with_threads(ctx.nproc);
    let untraced = round(&analyzer, &jobs, &parallel);
    out.untraced_wall_s = untraced.wall_s;
    match workload::traced(ctx, "plane_sweep", || round(&analyzer, &jobs, &parallel)) {
        Ok((r, wall, fold, snapshot)) => {
            out.traced_wall_s = wall;
            out.attempted = r.points;
            out.failed = r.failed;
            if r.results != untraced.results {
                out.errors
                    .push("traced planes differ from untraced planes".into());
            }
            out.fold = fold;
            out.snapshot = Some(snapshot);
        }
        Err(e) => out.errors.push(e),
    }
    let serial = round(&analyzer, &jobs, &CampaignConfig::with_threads(1));
    if serial.results != untraced.results {
        out.errors.push(format!(
            "planes at 1 thread differ from planes at {}",
            ctx.nproc
        ));
    }
    out.serial_wall_s = Some(serial.wall_s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_campaigns_other_seed_other_campaigns() {
        assert_eq!(jobs(3), jobs(3));
        assert_ne!(jobs(3), jobs(4));
    }

    #[test]
    fn every_site_meets_every_corner_inside_its_sweep_range() {
        let round = jobs(11);
        assert_eq!(round.len(), CORNERS.len() * DefectSite::ALL.len());
        for site in DefectSite::ALL {
            for op in CORNERS {
                let n = round
                    .iter()
                    .filter(|j| j.defect.site() == site && j.op == op)
                    .count();
                assert_eq!(n, 1);
            }
        }
        for job in &round {
            let (lo, hi) = job.defect.sweep_range();
            assert_eq!(job.r_values.len(), R_POINTS);
            assert!(job.r_values[0] >= lo && job.r_values[R_POINTS - 1] <= hi);
        }
    }
}
