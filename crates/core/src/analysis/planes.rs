//! Result planes (Figures 2 and 6).
//!
//! A result plane shows, for every defect resistance in a sweep, how the
//! cell voltage evolves under successive applications of one operation:
//!
//! * the `w0` plane starts the cell at `vdd` and applies `w0`s,
//! * the `w1` plane starts at GND and applies `w1`s,
//! * the `r` plane first establishes the sense threshold `Vsa(R)` and then
//!   applies reads starting slightly below and slightly above it.
//!
//! The planes are the raw material for border-resistance extraction: the
//! border of the paper's cell open is the `R` where the second-`w0`
//! settlement curve crosses `Vsa(R)`.

use super::sweep::{CampaignFaults, Confidence, PointStatus, SweepReport};
use super::Analyzer;
use crate::eval::{EvalService, SimRequest, TaskOutcome};
use crate::exec::{self, CampaignConfig, CampaignPerfStats};
use crate::CoreError;
use dso_defects::Defect;
use dso_dram::design::OperatingPoint;
use dso_dram::ops::OpTrace;
use dso_num::chaos::FaultPlan;
use dso_num::interp::Curve;
use dso_spice::recovery::RecoveryStats;

/// Offset (volts) around `Vsa` at which the read-plane trajectories start,
/// following the paper's 0.2 V.
pub const READ_START_OFFSET: f64 = 0.2;

/// Settlement curves of one write operation across the resistance sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WritePlane {
    /// `true` for the `w1` plane (physical high), `false` for `w0`.
    pub write_high: bool,
    /// Swept defect resistances (strictly increasing).
    pub r_values: Vec<f64>,
    /// `curves[k]` is the cell voltage after `k+1` consecutive writes, as a
    /// function of `R`.
    pub curves: Vec<Curve>,
}

impl WritePlane {
    /// The settlement curve after `n` operations (1-based, like the
    /// paper's `(2) w0` label).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadRequest`] if `n` is 0 or exceeds the number
    /// of simulated operations.
    pub fn after_ops(&self, n: usize) -> Result<&Curve, CoreError> {
        if n == 0 || n > self.curves.len() {
            return Err(CoreError::BadRequest(format!(
                "write plane holds {} curves, requested #{n}",
                self.curves.len()
            )));
        }
        Ok(&self.curves[n - 1])
    }
}

/// The read plane: threshold curve plus read trajectories started around
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadPlane {
    /// Swept defect resistances.
    pub r_values: Vec<f64>,
    /// Sense-amplifier threshold `Vsa(R)`.
    pub vsa: Curve,
    /// Cell voltage after each successive read, started `0.2 V` *below*
    /// `Vsa` (indexed like [`WritePlane::curves`]).
    pub from_below: Vec<Curve>,
    /// Same, started `0.2 V` *above* `Vsa`.
    pub from_above: Vec<Curve>,
}

/// The three result planes of Figure 2/6.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultPlanes {
    /// `w0` plane.
    pub w0: WritePlane,
    /// `w1` plane.
    pub w1: WritePlane,
    /// `r` plane.
    pub r: ReadPlane,
    /// Mid-point voltage of the defect-free cell.
    pub vmp: f64,
    /// The operating point (stress combination) the planes were generated
    /// at.
    pub op_point: OperatingPoint,
}

impl ResultPlanes {
    /// The border resistance read off the planes: the first intersection
    /// of the `w0` settlement curve with `Vsa(R)` — the dot of the paper's
    /// Figure 2(a).
    ///
    /// The first-operation curve is used because the detection condition
    /// applies exactly one `w0` after the settling `w1`s, and the
    /// settlement trajectories already start from the settled opposite
    /// level (the `w0` settle sequence runs two unreported `w1` setup
    /// writes first); this makes the intersection estimate directly
    /// comparable with the pass/fail bisection of
    /// [`super::border::find_border`].
    ///
    /// Returns `None` when the curves do not cross inside the sweep.
    ///
    /// # Errors
    ///
    /// Propagates curve-intersection failures (disjoint domains cannot
    /// happen for planes built by [`result_planes`]).
    pub fn border_from_intersection(&self) -> Result<Option<f64>, CoreError> {
        let curve = self.w0.after_ops(1)?;
        Ok(curve.first_intersection(&self.r.vsa)?)
    }

    /// Renders every curve of the three planes as CSV for external
    /// plotting: one row per swept resistance, one column per series.
    pub fn to_csv(&self) -> String {
        let mut header = vec!["R_ohm".to_string()];
        for (i, _) in self.w0.curves.iter().enumerate() {
            header.push(format!("w0_{}", i + 1));
        }
        for (i, _) in self.w1.curves.iter().enumerate() {
            header.push(format!("w1_{}", i + 1));
        }
        header.push("vsa".to_string());
        for (i, _) in self.r.from_below.iter().enumerate() {
            header.push(format!("r_below_{}", i + 1));
        }
        for (i, _) in self.r.from_above.iter().enumerate() {
            header.push(format!("r_above_{}", i + 1));
        }
        let mut out = header.join(",");
        out.push('\n');
        for (row, &r) in self.w0.r_values.iter().enumerate() {
            let mut cells = vec![format!("{r:e}")];
            let series = self
                .w0
                .curves
                .iter()
                .chain(self.w1.curves.iter())
                .chain(std::iter::once(&self.r.vsa))
                .chain(self.r.from_below.iter())
                .chain(self.r.from_above.iter());
            for curve in series {
                cells.push(format!("{:.6}", curve.ys()[row]));
            }
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

/// The measurements behind one sweep point of the three planes.
#[derive(Debug, Clone)]
struct PointData {
    w0: Vec<f64>,
    w1: Vec<f64>,
    vsa: f64,
    below: Vec<f64>,
    above: Vec<f64>,
}

impl PointData {
    /// Signed margin of the first-`w0` settlement level over `Vsa(R)` —
    /// the quantity whose zero crossing is the border resistance of
    /// [`ResultPlanes::border_from_intersection`].
    fn border_margin(&self) -> f64 {
        self.w0[0] - self.vsa
    }

    /// Linear interpolation between two bracketing points, `t` in `[0, 1]`.
    fn lerp(a: &PointData, b: &PointData, t: f64) -> PointData {
        let mix = |x: f64, y: f64| x + (y - x) * t;
        let mix_vec =
            |xs: &[f64], ys: &[f64]| xs.iter().zip(ys).map(|(&x, &y)| mix(x, y)).collect();
        PointData {
            w0: mix_vec(&a.w0, &b.w0),
            w1: mix_vec(&a.w1, &b.w1),
            vsa: mix(a.vsa, b.vsa),
            below: mix_vec(&a.below, &b.below),
            above: mix_vec(&a.above, &b.above),
        }
    }
}

/// Converged operation traces of one sweep point, carried forward as
/// warm-start seeds for the next point of the same work chunk. Seeds never
/// cross chunk boundaries, so the seed chain is part of the deterministic
/// chunk computation (see [`crate::exec`]).
#[derive(Debug, Default)]
struct WarmSeeds {
    w0: Option<OpTrace>,
    w1: Option<OpTrace>,
    below: Option<OpTrace>,
    above: Option<OpTrace>,
}

/// Number of transients per point that accept a warm seed (the `Vsa`
/// bisection is excluded: its probe voltages vary per point).
const SEEDABLE_TRANSIENTS: usize = 4;

impl WarmSeeds {
    fn available(&self) -> usize {
        [
            self.w0.is_some(),
            self.w1.is_some(),
            self.below.is_some(),
            self.above.is_some(),
        ]
        .iter()
        .filter(|&&s| s)
        .count()
    }
}

/// Everything a worker records about one sweep point.
struct PointOutcome {
    data: Result<PointData, CoreError>,
    stats: RecoveryStats,
    warm_hits: usize,
    warm_misses: usize,
    cache_hits: usize,
    disk_hits: usize,
    cache_misses: usize,
}

/// Per-point tally of service-cache traffic.
#[derive(Default)]
struct CacheTally {
    hits: usize,
    disk: usize,
    misses: usize,
}

impl CacheTally {
    /// Folds one evaluation's outcome into the tally and the point's
    /// recovery stats, surfacing the value and warm-start trace.
    fn take(
        &mut self,
        outcome: TaskOutcome,
        stats: &mut RecoveryStats,
    ) -> Result<(crate::eval::SimValue, Option<OpTrace>), CoreError> {
        stats.merge(&outcome.stats);
        if outcome.cached {
            self.hits += 1;
            if outcome.from_disk {
                self.disk += 1;
            }
        } else {
            self.misses += 1;
        }
        outcome.value.map(|v| (v, outcome.trace))
    }
}

/// Runs the full measurement bundle of one sweep point through the
/// evaluation service, accumulating recovery counters into `stats` and
/// cache traffic into `cache`. Each seedable transient is warm-started
/// from the corresponding trace in `seeds` when present; the point's own
/// converged traces are returned for the next point in the chunk. Cache
/// hits return no trace, so the seed chain restarts at the next computed
/// point.
#[allow(clippy::too_many_arguments)]
fn measure_point(
    service: &EvalService,
    defect: &Defect,
    r: f64,
    op_point: &OperatingPoint,
    n_ops: usize,
    faults: Option<&FaultPlan>,
    seeds: &WarmSeeds,
    warm_probes: bool,
    stats: &mut RecoveryStats,
    cache: &mut CacheTally,
) -> Result<(PointData, WarmSeeds), CoreError> {
    let (w0_value, w0_trace) = cache.take(
        service.eval_seeded(
            &SimRequest::settle(defect, r, op_point, false, n_ops),
            faults,
            seeds.w0.as_ref(),
            false,
        ),
        stats,
    )?;
    let w0 = w0_value.into_series()?;
    let (w1_value, w1_trace) = cache.take(
        service.eval_seeded(
            &SimRequest::settle(defect, r, op_point, true, n_ops),
            faults,
            seeds.w1.as_ref(),
            false,
        ),
        stats,
    )?;
    let w1 = w1_value.into_series()?;
    let (vsa_value, _) = cache.take(
        service.eval_seeded(
            &SimRequest::vsa(defect, r, op_point),
            faults,
            None,
            warm_probes,
        ),
        stats,
    )?;
    let vsa = vsa_value.scalar()?;
    let below_start = (vsa - READ_START_OFFSET).max(0.0);
    let above_start = (vsa + READ_START_OFFSET).min(op_point.vdd);
    let (below_value, below_trace) = cache.take(
        service.eval_seeded(
            &SimRequest::reads(defect, r, op_point, below_start, n_ops),
            faults,
            seeds.below.as_ref(),
            false,
        ),
        stats,
    )?;
    let (below, _) = below_value.into_outcomes()?;
    let (above_value, above_trace) = cache.take(
        service.eval_seeded(
            &SimRequest::reads(defect, r, op_point, above_start, n_ops),
            faults,
            seeds.above.as_ref(),
            false,
        ),
        stats,
    )?;
    let (above, _) = above_value.into_outcomes()?;
    Ok((
        PointData {
            w0,
            w1,
            vsa,
            below,
            above,
        },
        WarmSeeds {
            w0: w0_trace,
            w1: w1_trace,
            below: below_trace,
            above: above_trace,
        },
    ))
}

/// Fans the sweep grid out across the configured worker pool. Each chunk
/// maintains its own warm-seed chain (reset after a failed point so
/// recovery always restarts cold); fault plans are resolved by sweep index
/// before the point runs, keeping chaos injection deterministic under any
/// scheduling.
/// `Err(progress)` when the campaign was aborted by `hooks` at a chunk
/// boundary; the chunks that ran completed normally (their results are
/// discarded here but live on in the evaluation cache and persistent
/// store).
#[allow(clippy::too_many_arguments)] // internal fan-out plumbing
fn run_grid(
    service: &EvalService,
    defect: &Defect,
    op_point: &OperatingPoint,
    r_values: &[f64],
    n_ops: usize,
    faults: &CampaignFaults,
    config: &CampaignConfig,
    hooks: &exec::ExecHooks,
) -> Result<Vec<PointOutcome>, exec::ChunkProgress> {
    exec::map_chunked_cancellable(r_values.len(), config, hooks, |range| {
        let mut seeds = WarmSeeds::default();
        range
            .map(|i| {
                let span = dso_obs::span("sweep.point");
                span.note("r_ohm", r_values[i]);
                let t0 = std::time::Instant::now();
                let mut stats = RecoveryStats::default();
                let mut cache = CacheTally::default();
                let warm_hits = seeds.available();
                let outcome = measure_point(
                    service,
                    defect,
                    r_values[i],
                    op_point,
                    n_ops,
                    faults.plan_for(i),
                    &seeds,
                    config.warm_start,
                    &mut stats,
                    &mut cache,
                );
                let (data, next_seeds) = match outcome {
                    Ok((point, next)) if config.warm_start => (Ok(point), next),
                    Ok((point, _)) => (Ok(point), WarmSeeds::default()),
                    Err(e) => (Err(e), WarmSeeds::default()),
                };
                seeds = next_seeds;
                // Warm-start hit/miss latency: points whose seedable
                // transients all ran warm vs. cold chunk heads.
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let edges = &[10.0, 100.0, 1e3, 1e4, 1e5];
                if warm_hits > 0 {
                    dso_obs::histogram!("campaign.point_warm_ms", edges, nondet).observe(ms);
                } else {
                    dso_obs::histogram!("campaign.point_cold_ms", edges, nondet).observe(ms);
                }
                PointOutcome {
                    data,
                    stats,
                    warm_hits,
                    warm_misses: SEEDABLE_TRANSIENTS - warm_hits,
                    cache_hits: cache.hits,
                    disk_hits: cache.disk,
                    cache_misses: cache.misses,
                }
            })
            .collect()
    })
}

/// Folds one point's outcome counters into a campaign-level tally.
fn tally(perf: &mut CampaignPerfStats, outcome: &PointOutcome) {
    perf.points += 1;
    perf.warm_hits += outcome.warm_hits;
    perf.warm_misses += outcome.warm_misses;
    perf.newton_iters += outcome.stats.newton_iters;
    perf.solve_attempts += outcome.stats.solve_attempts;
    perf.cache_hits += outcome.cache_hits;
    perf.disk_hits += outcome.disk_hits;
    perf.cache_misses += outcome.cache_misses;
    perf.failures += usize::from(outcome.data.is_err());
    perf.lu_refactors += outcome.stats.lu_refactors;
    perf.lu_reuses += outcome.stats.lu_reuses;
    perf.bypass_hits += outcome.stats.bypass_hits;
    perf.bypass_misses += outcome.stats.bypass_misses;
}

fn validate_sweep(r_values: &[f64], n_ops: usize) -> Result<(), CoreError> {
    if r_values.len() < 2 {
        return Err(CoreError::BadRequest(
            "result planes need at least two resistance points".into(),
        ));
    }
    if n_ops == 0 {
        return Err(CoreError::BadRequest("n_ops must be positive".into()));
    }
    if r_values.windows(2).any(|w| w[0] >= w[1]) {
        return Err(CoreError::BadRequest(
            "resistance sweep must be strictly increasing".into(),
        ));
    }
    Ok(())
}

/// Builds the three planes from complete per-point data.
fn assemble_planes(
    service: &EvalService,
    defect: &Defect,
    op_point: &OperatingPoint,
    r_values: &[f64],
    n_ops: usize,
    data: &[PointData],
) -> Result<ResultPlanes, CoreError> {
    // Build each track directly from the per-point data: one pass per
    // curve, no intermediate pre-sized scratch vectors.
    let curves_of = |series: fn(&PointData) -> &Vec<f64>| -> Result<Vec<Curve>, CoreError> {
        (0..n_ops)
            .map(|k| {
                let ys: Vec<f64> = data.iter().map(|p| series(p)[k]).collect();
                Curve::new(r_values.to_vec(), ys).map_err(CoreError::from)
            })
            .collect()
    };

    Ok(ResultPlanes {
        w0: WritePlane {
            write_high: false,
            r_values: r_values.to_vec(),
            curves: curves_of(|p| &p.w0)?,
        },
        w1: WritePlane {
            write_high: true,
            r_values: r_values.to_vec(),
            curves: curves_of(|p| &p.w1)?,
        },
        r: ReadPlane {
            r_values: r_values.to_vec(),
            vsa: Curve::new(r_values.to_vec(), data.iter().map(|p| p.vsa).collect())?,
            from_below: curves_of(|p| &p.below)?,
            from_above: curves_of(|p| &p.above)?,
        },
        vmp: service.vmp(defect, op_point)?,
        op_point: *op_point,
    })
}

/// Generates the three result planes for `defect` at `op_point`, sweeping
/// the given resistances and applying `n_ops` successive operations per
/// trajectory.
///
/// This is the strict variant: the first point failure aborts the whole
/// plane. Long campaigns should prefer [`crate::Session::planes_faulted`],
/// which degrades gracefully.
///
/// # Errors
///
/// * [`CoreError::BadRequest`] for fewer than 2 sweep points or `n_ops == 0`.
/// * Simulation failures, annotated with campaign context
///   ([`CoreError::AtPoint`]).
pub fn result_planes(
    analyzer: &Analyzer,
    defect: &Defect,
    op_point: &OperatingPoint,
    r_values: &[f64],
    n_ops: usize,
) -> Result<ResultPlanes, CoreError> {
    let service = EvalService::from_env(analyzer.clone());
    result_planes_impl(
        &service,
        defect,
        op_point,
        r_values,
        n_ops,
        &CampaignConfig::from_env(),
    )
    .map(|(planes, _)| planes)
}

/// The strict result-plane campaign on a caller-supplied service: grid
/// points already present in the service's cache are replayed instead of
/// re-simulated, and every computed point is stored for later workloads
/// (border refinement, shmoo grids, repeat campaigns).
///
/// Results are bit-identical for every `config.threads` value (given the
/// same chunk size and warm-start setting); see [`crate::exec`] for
/// the determinism contract. On failure the whole grid is still evaluated,
/// and the error of the lowest-index failed point is returned.
pub(crate) fn result_planes_impl(
    service: &EvalService,
    defect: &Defect,
    op_point: &OperatingPoint,
    r_values: &[f64],
    n_ops: usize,
    config: &CampaignConfig,
) -> Result<(ResultPlanes, CampaignPerfStats), CoreError> {
    validate_sweep(r_values, n_ops)?;
    let obs_env = dso_obs::init_from_env();
    let span = dso_obs::span("campaign.result_planes");
    span.note("points", r_values.len() as f64);
    let clean = CampaignFaults::new();
    let Ok(outcomes) = run_grid(
        service,
        defect,
        op_point,
        r_values,
        n_ops,
        &clean,
        config,
        &exec::ExecHooks::default(),
    ) else {
        unreachable!("empty hooks never abort")
    };
    let mut perf = CampaignPerfStats::default();
    for outcome in &outcomes {
        tally(&mut perf, outcome);
    }
    // Fold the tally into the registry before any failed point can abort
    // the assembly below — the work was spent either way.
    perf.record_to_metrics();
    export_metrics(&obs_env);
    let mut data = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        data.push(outcome.data?);
    }
    let planes = assemble_planes(service, defect, op_point, r_values, n_ops, &data)?;
    Ok((planes, perf))
}

/// Writes the metrics snapshot to the path requested via `DSO_METRICS`
/// (best effort — observability must never fail a campaign).
fn export_metrics(env: &dso_obs::EnvConfig) {
    if let Some(path) = &env.metrics_path {
        if let Err(err) = std::fs::write(path, dso_obs::metrics::snapshot().to_json()) {
            eprintln!(
                "dso-core: cannot write DSO_METRICS={}: {err}",
                path.display()
            );
        }
    }
}

/// Result planes produced by a fault-tolerant sweep campaign: the planes
/// themselves (gaps interpolated), the per-point [`SweepReport`], and the
/// [`Confidence`] consumers should attach to anything extracted from them.
#[derive(Debug, Clone)]
pub struct PlaneCampaign {
    /// The assembled planes. Values at failed points are linear
    /// interpolations (in the sweep axis) between the bracketing
    /// non-failed neighbors.
    pub planes: ResultPlanes,
    /// Per-point accounting: every attempted point is recorded as
    /// converged, recovered, or failed.
    pub report: SweepReport,
    /// Full when nothing failed, degraded with the gap count otherwise.
    pub confidence: Confidence,
    /// Execution-performance tally: warm-start hits and Newton work.
    pub perf: CampaignPerfStats,
    /// The defect description, for error reporting.
    defect: String,
    /// Bracketing resistances of each interpolated gap.
    gaps: Vec<(f64, f64)>,
}

impl PlaneCampaign {
    /// The bracketing resistances `(lo, hi)` of each interpolated gap.
    pub fn gaps(&self) -> &[(f64, f64)] {
        &self.gaps
    }

    /// The border resistance read off the (possibly partial) planes, as
    /// [`ResultPlanes::border_from_intersection`].
    ///
    /// # Errors
    ///
    /// [`CoreError::BorderInGap`] if the intersection lands inside an
    /// interpolated gap — interpolated data must never decide a border.
    pub fn border_from_intersection(&self) -> Result<Option<f64>, CoreError> {
        let border = self.planes.border_from_intersection()?;
        if let Some(b) = border {
            if let Some(&gap) = self.gaps.iter().find(|(lo, hi)| b > *lo && b < *hi) {
                return Err(CoreError::BorderInGap {
                    defect: self.defect.clone(),
                    gap,
                });
            }
        }
        Ok(border)
    }
}

/// Fault-tolerant variant of [`result_planes`] (exposed as
/// [`crate::Session::planes_faulted`]): point failures do not abort the
/// sweep. Each attempted point is recorded in the returned
/// [`SweepReport`] as `Converged`, `Recovered(attempts)`, or
/// `Failed(reason)`; failed points become gaps whose curve values are
/// interpolated from the bracketing non-failed neighbors.
///
/// Interpolation is only legal when it cannot invent electrical behavior:
///
/// * every gap must be bracketed by non-failed points (a failed first or
///   last sweep point is unrecoverable), and
/// * the border margin must not change sign across the gap — a sign
///   change means the border crossing itself is lost, and interpolating
///   across it would fabricate the paper's key result.
///
/// `faults` arms the deterministic fault-injection harness at selected
/// sweep indices (pass [`CampaignFaults::new`] for a clean campaign).
///
/// # Errors
///
/// * [`CoreError::BadRequest`] for invalid sweeps (as [`result_planes`]).
/// * [`CoreError::SweepFailed`] when fewer than two points survive or an
///   edge point failed.
/// * [`CoreError::BorderInGap`] when a gap straddles the border crossing.
///
/// The fault-tolerant plane campaign on a caller-supplied service: grid
/// points already present in the service's cache are replayed — values
/// *and* recovery accounting — so a cached re-run reproduces the cold
/// campaign bit-for-bit (planes, report, confidence, gaps). Fault-armed
/// points bypass the cache in both directions, so failures are never
/// stored and fault runs never consume clean cached values.
///
/// The returned planes, [`SweepReport`], gaps, and border are
/// bit-identical for every `config.threads` value — including under
/// injected faults — because chunk decomposition, warm-seed chains,
/// and fault-plan resolution are all keyed on sweep index,
/// never on scheduling (see [`crate::exec`]).
#[allow(clippy::too_many_arguments)] // campaign plumbing: faults + config
pub(crate) fn plane_campaign_impl(
    service: &EvalService,
    defect: &Defect,
    op_point: &OperatingPoint,
    r_values: &[f64],
    n_ops: usize,
    faults: &CampaignFaults,
    config: &CampaignConfig,
) -> Result<PlaneCampaign, CoreError> {
    plane_campaign_hooked(
        service,
        defect,
        op_point,
        r_values,
        n_ops,
        faults,
        config,
        &exec::ExecHooks::default(),
    )
}

/// [`plane_campaign_impl`] with cooperative chunk-boundary
/// [`exec::ExecHooks`] — the service daemon's entry point. The hooks may
/// preempt between chunks (running interactive jobs on the paused worker)
/// and abort the remaining chunks, in which case the campaign returns
/// [`CoreError::Cancelled`]; the chunks that ran stay in the evaluation
/// cache and persistent store, so a re-submitted campaign replays them.
/// With empty hooks this is exactly [`plane_campaign_impl`].
#[allow(clippy::too_many_arguments)] // campaign plumbing: faults + config + hooks
pub(crate) fn plane_campaign_hooked(
    service: &EvalService,
    defect: &Defect,
    op_point: &OperatingPoint,
    r_values: &[f64],
    n_ops: usize,
    faults: &CampaignFaults,
    config: &CampaignConfig,
    hooks: &exec::ExecHooks,
) -> Result<PlaneCampaign, CoreError> {
    validate_sweep(r_values, n_ops)?;
    let obs_env = dso_obs::init_from_env();
    let span = dso_obs::span("campaign.planes");
    span.note("points", r_values.len() as f64);
    let outcomes = run_grid(
        service, defect, op_point, r_values, n_ops, faults, config, hooks,
    )
    .map_err(|progress| CoreError::Cancelled {
        completed: progress.completed,
        total: progress.total,
    })?;
    let defect_name = defect.to_string();
    let mut perf = CampaignPerfStats::default();
    let mut report = SweepReport::new();
    let mut data: Vec<Option<PointData>> = Vec::with_capacity(r_values.len());
    for (outcome, &r) in outcomes.into_iter().zip(r_values) {
        tally(&mut perf, &outcome);
        match outcome.data {
            Ok(point) => {
                let status = if outcome.stats.is_clean() {
                    PointStatus::Converged
                } else {
                    PointStatus::Recovered {
                        attempts: outcome.stats.actions(),
                    }
                };
                report.record(r, status);
                data.push(Some(point));
            }
            // Configuration errors are not point failures: abort.
            Err(e @ CoreError::BadRequest(_)) => return Err(e),
            Err(e) => {
                report.record(
                    r,
                    PointStatus::Failed {
                        reason: e.to_string(),
                    },
                );
                data.push(None);
            }
        }
    }

    perf.record_to_metrics();
    export_metrics(&obs_env);

    let failed = data.iter().filter(|d| d.is_none()).count();
    let n = data.len();
    if n - failed < 2 || data[0].is_none() || data[n - 1].is_none() {
        // Borrow the first failure reason from the report; the one clone
        // happens only on this error path.
        let first_reason = report
            .points()
            .iter()
            .find_map(|p| match &p.status {
                PointStatus::Failed { reason } => Some(reason.as_str()),
                _ => None,
            })
            .unwrap_or_default();
        return Err(CoreError::SweepFailed {
            defect: defect_name,
            failed,
            total: n,
            first_reason: first_reason.to_string(),
        });
    }

    // Contiguous gap runs, each bracketed by non-failed indices (the edge
    // points are known good).
    let mut gap_brackets: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < n {
        if data[i].is_none() {
            let start = i;
            while data[i].is_none() {
                i += 1;
            }
            gap_brackets.push((start - 1, i));
        } else {
            i += 1;
        }
    }

    // Never interpolate across a border crossing: the w0 × Vsa margin must
    // keep its sign across every gap.
    for &(l, r_idx) in &gap_brackets {
        let (ml, mr) = match (&data[l], &data[r_idx]) {
            (Some(a), Some(b)) => (a.border_margin(), b.border_margin()),
            _ => unreachable!("gap brackets are non-failed by construction"),
        };
        if ml * mr < 0.0 {
            return Err(CoreError::BorderInGap {
                defect: defect_name,
                gap: (r_values[l], r_values[r_idx]),
            });
        }
    }

    // Fill the gaps by linear interpolation on a log-resistance axis.
    for &(l, r_idx) in &gap_brackets {
        let (lo, hi) = (r_values[l].ln(), r_values[r_idx].ln());
        for k in l + 1..r_idx {
            let t = (r_values[k].ln() - lo) / (hi - lo);
            let filled = match (&data[l], &data[r_idx]) {
                (Some(a), Some(b)) => PointData::lerp(a, b, t),
                _ => unreachable!("gap brackets are non-failed by construction"),
            };
            data[k] = Some(filled);
        }
    }

    let complete: Vec<PointData> = data
        .into_iter()
        .map(|d| d.expect("every gap was interpolated"))
        .collect();
    let planes = assemble_planes(service, defect, op_point, r_values, n_ops, &complete)?;
    // Confidence counts gap *intervals*: adjacent failed points merge into
    // one interpolated span, which is what border extraction cares about.
    let confidence = if gap_brackets.is_empty() {
        Confidence::Full
    } else {
        Confidence::Degraded {
            gaps: gap_brackets.len(),
        }
    };
    Ok(PlaneCampaign {
        planes,
        confidence,
        perf,
        gaps: gap_brackets
            .iter()
            .map(|&(l, r_idx)| (r_values[l], r_values[r_idx]))
            .collect(),
        defect: defect_name,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::super::test_support::fast_design;
    use super::*;
    use dso_defects::BitLineSide;

    fn small_planes() -> ResultPlanes {
        let analyzer = Analyzer::new(fast_design());
        let defect = Defect::cell_open(BitLineSide::True);
        result_planes(
            &analyzer,
            &defect,
            &OperatingPoint::nominal(),
            &[1e4, 1e5, 1e6, 1e7],
            2,
        )
        .unwrap()
    }

    #[test]
    fn planes_have_expected_shape() {
        let planes = small_planes();
        assert_eq!(planes.w0.curves.len(), 2);
        assert_eq!(planes.w1.curves.len(), 2);
        assert_eq!(planes.r.from_below.len(), 2);
        assert!(!planes.w0.write_high);
        assert!(planes.w1.write_high);
        // w0 residual voltage rises with R (harder to discharge).
        let first = planes.w0.after_ops(1).unwrap();
        let ys = first.ys();
        assert!(
            ys.last().unwrap() > ys.first().unwrap(),
            "w0 curve should rise with R: {ys:?}"
        );
        // w1 settlement falls with R (harder to charge).
        let w1 = planes.w1.after_ops(1).unwrap();
        assert!(w1.ys().last().unwrap() < w1.ys().first().unwrap());
        // Vsa falls toward GND as R grows.
        let vsa = &planes.r.vsa;
        assert!(vsa.ys().last().unwrap() < vsa.ys().first().unwrap());
        // Vmp near mid-rail.
        assert!((0.5..1.9).contains(&planes.vmp), "vmp = {}", planes.vmp);
    }

    #[test]
    fn border_from_intersection_exists_for_cell_open() {
        let planes = small_planes();
        let border = planes.border_from_intersection().unwrap();
        let b = border.expect("the (2)w0 and Vsa curves cross for a cell open");
        assert!(
            (1e4..1e7).contains(&b),
            "border should sit inside the sweep, got {b:.3e}"
        );
    }

    #[test]
    fn csv_export_has_all_series() {
        let planes = small_planes();
        let csv = planes.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // Header + one row per resistance.
        assert_eq!(lines.len(), 1 + planes.w0.r_values.len());
        let header = lines[0];
        for col in [
            "R_ohm",
            "w0_1",
            "w0_2",
            "w1_1",
            "vsa",
            "r_below_1",
            "r_above_2",
        ] {
            assert!(header.contains(col), "missing column {col}: {header}");
        }
        // Every row has the same number of cells as the header.
        let cols = header.split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), cols, "{line}");
        }
    }

    #[test]
    fn after_ops_bounds_checked() {
        let planes = small_planes();
        assert!(planes.w0.after_ops(0).is_err());
        assert!(planes.w0.after_ops(3).is_err());
        assert!(planes.w0.after_ops(2).is_ok());
    }

    #[test]
    fn request_validation() {
        let analyzer = Analyzer::new(fast_design());
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        assert!(result_planes(&analyzer, &defect, &op, &[1e4], 2).is_err());
        assert!(result_planes(&analyzer, &defect, &op, &[1e5, 1e4], 2).is_err());
        assert!(result_planes(&analyzer, &defect, &op, &[1e4, 1e5], 0).is_err());
    }
}
