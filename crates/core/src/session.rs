//! The unified analysis session.
//!
//! A [`Session`] bundles the three things every analysis entry point used
//! to take separately — an [`EvalService`] (memo cache + optional
//! persistent store), a [`CampaignConfig`] (threads, chunking,
//! warm-start), and the column design behind both — into one object
//! built once, usually from the environment:
//!
//! ```no_run
//! use dso_core::Session;
//! use dso_defects::{BitLineSide, Defect};
//! use dso_dram::design::OperatingPoint;
//!
//! # fn main() -> Result<(), dso_core::CoreError> {
//! let session = Session::from_env();
//! let defect = Defect::cell_open(BitLineSide::True);
//! let campaign = session.planes(
//!     &defect,
//!     &OperatingPoint::nominal(),
//!     &[1e4, 1e5, 1e6, 1e7],
//!     2,
//! )?;
//! println!("border: {:?}", campaign.border_from_intersection()?);
//! # Ok(())
//! # }
//! ```
//!
//! Every method shares the session's memo cache: a border extraction after
//! a plane campaign replays the overlapping grid points, a shmoo row over
//! an already-campaigned operating point is free, and with `DSO_STORE`
//! set all of it persists across processes.

use crate::analysis::border::{find_border, refine_border_from_planes, BorderResistance};
use crate::analysis::design_space::{
    design_sweep_impl, DesignSpace, DesignSweepRequest, DesignSweepResult,
};
use crate::analysis::detection::{derive_detection, DetectionCondition};
use crate::analysis::dictionary::{build_dictionary, FaultDictionary};
use crate::analysis::planes::{
    plane_campaign_impl, result_planes_impl, PlaneCampaign, ResultPlanes,
};
use crate::analysis::shmoo::{detection_shmoo, margin_shmoo};
use crate::analysis::sweep::CampaignFaults;
use crate::analysis::{Analyzer, DefectiveCell};
use crate::eval::EvalService;
use crate::exec::{CampaignConfig, CampaignPerfStats};
use crate::store::ResultStore;
use crate::CoreError;
use dso_defects::Defect;
use dso_dram::design::{ColumnDesign, OperatingPoint};
use dso_march::coverage::{evaluate_coverage, CoverageReport, FaultCase};
use dso_march::test::MarchTest;
use dso_shmoo::ShmooPlot;
use dso_spice::recovery::RecoveryPolicy;
use dso_spice::SolverTuning;
use std::path::PathBuf;

/// Builder for a [`Session`]: column design, recovery policy, execution
/// policy, and persistence, each defaulting sensibly (and to the
/// environment where a `DSO_*` variable exists).
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    design: ColumnDesign,
    recovery: RecoveryPolicy,
    tuning: Option<SolverTuning>,
    config: Option<CampaignConfig>,
    store: Option<PathBuf>,
}

impl SessionBuilder {
    /// Sets the column design under analysis.
    pub fn design(mut self, design: ColumnDesign) -> Self {
        self.design = design;
        self
    }

    /// Sets the convergence-recovery policy applied to every engine.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Sets the solver tuning (modified-Newton LU reuse, device-eval
    /// bypass tolerance) explicitly. Without this, the session reads
    /// `DSO_LU_REUSE` / `DSO_BYPASS_TOL` via
    /// [`crate::analysis::tuning_from_env`]. Tuning is part of the
    /// analyzer context fingerprint, so sessions with different tuning
    /// never share a persistent store.
    pub fn tuning(mut self, tuning: SolverTuning) -> Self {
        self.tuning = Some(tuning);
        self
    }

    /// Sets the execution policy explicitly. Without this, the session
    /// reads `DSO_THREADS` / `DSO_CHUNK` via
    /// [`CampaignConfig::from_env`].
    pub fn config(mut self, config: CampaignConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Attaches (creating if absent) a persistent result store at `path`
    /// as the disk cache tier. Without this, the session honors the
    /// `DSO_STORE` environment variable; unlike the environment path —
    /// which degrades to in-memory with a warning — an explicitly
    /// requested store that cannot be opened is an error.
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(path.into());
        self
    }

    /// Builds the session.
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] when an explicitly requested store cannot be
    /// opened or belongs to a different analyzer context.
    pub fn build(self) -> Result<Session, CoreError> {
        let mut analyzer = Analyzer::new(self.design).with_recovery(self.recovery);
        if let Some(tuning) = self.tuning {
            analyzer = analyzer.with_tuning(tuning);
        }
        let config = self.config.unwrap_or_else(CampaignConfig::from_env);
        let service = match self.store {
            Some(path) => {
                let store = ResultStore::open(&path, EvalService::context_for(&analyzer))?;
                EvalService::with_store(analyzer, store)?
            }
            None => EvalService::from_env(analyzer),
        };
        Ok(Session { service, config })
    }
}

/// The unified entry point to every analysis: result planes, border
/// resistances, shmoo grids, detection conditions, and march-test fault
/// coverage, all sharing one memo cache and one execution policy.
///
/// See the [module docs](self) for the one-stop example.
#[derive(Debug)]
pub struct Session {
    service: EvalService,
    config: CampaignConfig,
}

impl Session {
    /// Starts a builder with default design, recovery, and environment
    /// execution/persistence settings.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// A session for the default column design, configured entirely from
    /// the environment: `DSO_THREADS`, `DSO_CHUNK` (execution)
    /// and `DSO_STORE` (persistence, degrading to in-memory with a warning
    /// if unusable).
    pub fn from_env() -> Self {
        Session::with_design(ColumnDesign::default())
    }

    /// [`Session::from_env`] for an explicit column design.
    pub fn with_design(design: ColumnDesign) -> Self {
        Session {
            service: EvalService::from_env(Analyzer::new(design)),
            config: CampaignConfig::from_env(),
        }
    }

    /// Wraps an existing service and execution policy (for callers that
    /// already own an [`EvalService`], e.g. to share its cache with
    /// non-session code during migration).
    pub fn from_parts(service: EvalService, config: CampaignConfig) -> Self {
        Session { service, config }
    }

    /// Replaces the execution policy, keeping the service (and its cache).
    pub fn with_config(mut self, config: CampaignConfig) -> Self {
        self.config = config;
        self
    }

    /// The evaluation service (memo cache + optional store).
    pub fn service(&self) -> &EvalService {
        &self.service
    }

    /// The execution policy campaigns run under.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Decomposes the session into its service and execution policy.
    pub fn into_parts(self) -> (EvalService, CampaignConfig) {
        (self.service, self.config)
    }

    // ---- analyses ----------------------------------------------------

    /// Fault-tolerant result-plane campaign over a resistance sweep (the
    /// paper's Figures 2 and 6): point failures become interpolated gaps
    /// with an explicit confidence downgrade, and every attempted point is
    /// recorded in the returned report.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadRequest`] for invalid sweeps.
    /// * [`CoreError::SweepFailed`] when fewer than two points survive or
    ///   an edge point failed.
    /// * [`CoreError::BorderInGap`] when a gap straddles the border
    ///   crossing.
    pub fn planes(
        &self,
        defect: &Defect,
        op_point: &OperatingPoint,
        r_values: &[f64],
        n_ops: usize,
    ) -> Result<PlaneCampaign, CoreError> {
        self.planes_faulted(defect, op_point, r_values, n_ops, &CampaignFaults::new())
    }

    /// [`Session::planes`] with the deterministic fault-injection harness
    /// armed at selected sweep indices.
    ///
    /// # Errors
    ///
    /// As [`Session::planes`].
    pub fn planes_faulted(
        &self,
        defect: &Defect,
        op_point: &OperatingPoint,
        r_values: &[f64],
        n_ops: usize,
        faults: &CampaignFaults,
    ) -> Result<PlaneCampaign, CoreError> {
        plane_campaign_impl(
            &self.service,
            defect,
            op_point,
            r_values,
            n_ops,
            faults,
            &self.config,
        )
    }

    /// One-pass cross-design sweep: fans
    /// `(designs × defects × R × operating points)` through the plane
    /// pipeline, sharing one evaluation service between designs whose
    /// configs expand to the same electrical plan (counted in
    /// [`CampaignPerfStats::cross_design_dedup`]). Each per-design
    /// analyzer inherits this session's recovery policy and solver
    /// tuning; the session's own design and store are not used — the
    /// design axis comes entirely from `space`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadRequest`] for an invalid request.
    /// * The first failing campaign's error otherwise.
    pub fn design_sweep(
        &self,
        space: &DesignSpace,
        request: &DesignSweepRequest,
    ) -> Result<DesignSweepResult, CoreError> {
        design_sweep_impl(space, request, self.service.analyzer(), &self.config)
    }

    /// Strict result planes: the first point failure aborts the sweep.
    /// Returns the planes with the campaign's performance tally.
    ///
    /// # Errors
    ///
    /// As [`crate::analysis::result_planes`].
    pub fn planes_strict(
        &self,
        defect: &Defect,
        op_point: &OperatingPoint,
        r_values: &[f64],
        n_ops: usize,
    ) -> Result<(ResultPlanes, CampaignPerfStats), CoreError> {
        result_planes_impl(
            &self.service,
            defect,
            op_point,
            r_values,
            n_ops,
            &self.config,
        )
    }

    /// The border resistance of `defect` under `detection`, by pass/fail
    /// log-bisection within the defect's sweep range to relative tolerance
    /// `rel_tol`.
    ///
    /// # Errors
    ///
    /// As [`find_border`].
    pub fn border(
        &self,
        defect: &Defect,
        detection: &DetectionCondition,
        op_point: &OperatingPoint,
        rel_tol: f64,
    ) -> Result<BorderResistance, CoreError> {
        find_border(&self.service, defect, detection, op_point, rel_tol)
    }

    /// Refines the plane-intersection border estimate by log-bisecting the
    /// `(1) w0` × `Vsa` margin on (and between) the campaign grid; after
    /// [`Session::planes`] over the same sweep, the grid walk is pure
    /// cache hits.
    ///
    /// # Errors
    ///
    /// As [`refine_border_from_planes`].
    pub fn refine_border(
        &self,
        defect: &Defect,
        op_point: &OperatingPoint,
        r_values: &[f64],
        n_ops: usize,
        rel_tol: f64,
    ) -> Result<Option<BorderResistance>, CoreError> {
        refine_border_from_planes(&self.service, defect, op_point, r_values, n_ops, rel_tol)
    }

    /// Shmoos the `(1) w0` × `Vsa` write margin over a resistance × stress
    /// grid; `op_of` maps each stress value to the operating point to
    /// simulate at.
    ///
    /// # Errors
    ///
    /// As [`margin_shmoo`].
    pub fn shmoo<F>(
        &self,
        defect: &Defect,
        n_ops: usize,
        r_values: &[f64],
        stress_label: &str,
        stress_values: &[f64],
        op_of: F,
    ) -> Result<ShmooPlot, CoreError>
    where
        F: Fn(f64) -> Result<OperatingPoint, CoreError>,
    {
        margin_shmoo(
            &self.service,
            defect,
            n_ops,
            r_values,
            stress_label,
            stress_values,
            op_of,
        )
    }

    /// Shmoos a detection condition's pass/fail outcome over a two-stress
    /// grid at a fixed defect resistance (the paper's Section-2 Shmoo
    /// plot).
    ///
    /// # Errors
    ///
    /// As [`detection_shmoo`].
    #[allow(clippy::too_many_arguments)] // two labelled axes plus the oracle
    pub fn shmoo_detection<F>(
        &self,
        defect: &Defect,
        detection: &DetectionCondition,
        resistance: f64,
        x_label: &str,
        x_values: &[f64],
        y_label: &str,
        y_values: &[f64],
        op_of: F,
    ) -> Result<ShmooPlot, CoreError>
    where
        F: Fn(f64, f64) -> Result<OperatingPoint, CoreError>,
    {
        detection_shmoo(
            &self.service,
            defect,
            detection,
            resistance,
            x_label,
            x_values,
            y_label,
            y_values,
            op_of,
        )
    }

    /// Derives the detection condition for `defect` at resistance
    /// `r_target`: the number of settling writes is grown (up to
    /// `max_settling`) until the set-up write has converged.
    ///
    /// # Errors
    ///
    /// As [`derive_detection`].
    pub fn detect(
        &self,
        defect: &Defect,
        r_target: f64,
        op_point: &OperatingPoint,
        max_settling: usize,
    ) -> Result<DetectionCondition, CoreError> {
        derive_detection(&self.service, defect, r_target, op_point, max_settling)
    }

    /// An electrically calibrated behavioral fault dictionary for `defect`
    /// at one resistance, sampling each update map at `samples` cell
    /// voltages.
    ///
    /// # Errors
    ///
    /// As [`build_dictionary`].
    pub fn dictionary(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        samples: usize,
    ) -> Result<FaultDictionary, CoreError> {
        build_dictionary(&self.service, defect, resistance, op_point, samples)
    }

    /// Fault coverage of a march test over an ensemble of `defect`
    /// instances at the given resistances: each instance is calibrated
    /// into a behavioral dictionary at `op_point` (through this session's
    /// cache) and installed as the victim of a functional memory of
    /// `memory_size` cells, with the test applied against each.
    ///
    /// # Errors
    ///
    /// * Simulation failures from the calibration.
    /// * [`CoreError::BadRequest`] for an invalid test/memory combination.
    // Mirrors the march-coverage pipeline's natural parameter list; a
    // config struct for one call site would obscure more than it groups.
    #[allow(clippy::too_many_arguments)]
    pub fn coverage(
        &self,
        defect: &Defect,
        resistances: &[f64],
        op_point: &OperatingPoint,
        test: &MarchTest,
        samples: usize,
        memory_size: usize,
        victim_address: usize,
    ) -> Result<CoverageReport, CoreError> {
        let mut cases = Vec::with_capacity(resistances.len());
        for &r in resistances {
            let dict = self.dictionary(defect, r, op_point, samples)?;
            cases.push(FaultCase {
                label: format!("{r:.2e} Ω"),
                make: Box::new(move || Box::new(DefectiveCell::new(dict.clone(), 0.0))),
            });
        }
        evaluate_coverage(test, &cases, memory_size, victim_address)
            .map_err(|e| CoreError::BadRequest(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::test_support::fast_design;
    use dso_defects::BitLineSide;

    fn fast_session() -> Session {
        Session::builder()
            .design(fast_design())
            .config(CampaignConfig::serial())
            .build()
            .expect("in-memory session")
    }

    #[test]
    fn session_planes_match_direct_campaign() {
        let session = fast_session();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let r_values = [1e4, 1e5, 1e6, 5e7];
        let campaign = session.planes(&defect, &op, &r_values, 2).unwrap();
        let service = crate::eval::EvalService::from_env(Analyzer::new(fast_design()));
        let free = plane_campaign_impl(
            &service,
            &defect,
            &op,
            &r_values,
            2,
            &CampaignFaults::new(),
            &CampaignConfig::serial(),
        )
        .unwrap();
        assert_eq!(campaign.planes, free.planes);
        assert_eq!(campaign.report, free.report);
    }

    #[test]
    fn border_reuses_campaign_cache() {
        let session = fast_session();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let r_values = [1e4, 1e6, 1e8];
        session.planes(&defect, &op, &r_values, 2).unwrap();
        let hits_before = session.service().cache_stats().hits;
        let refined = session
            .refine_border(&defect, &op, &r_values, 2, 0.05)
            .unwrap();
        assert!(refined.is_some());
        assert!(
            session.service().cache_stats().hits > hits_before,
            "grid walk should replay campaign points"
        );
    }

    #[test]
    fn detect_and_coverage_flow() {
        let session = fast_session();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let condition = session.detect(&defect, 1e6, &op, 4).unwrap();
        assert!(!condition.ops().is_empty());
        let report = session
            .coverage(&defect, &[1e3, 5e7], &op, &MarchTest::mats_plus(), 3, 8, 3)
            .unwrap();
        assert_eq!(report.detected.len() + report.missed.len(), 2);
    }

    #[test]
    fn builder_unusable_store_is_error() {
        // Unlike the DSO_STORE env path (which degrades with a warning),
        // an explicitly requested store that cannot be opened must fail
        // the build.
        let path = std::env::temp_dir()
            .join(format!("dso-session-missing-{}", std::process::id()))
            .join("nested")
            .join("store.bin");
        let err = Session::builder()
            .design(fast_design())
            .store(&path)
            .build();
        assert!(
            err.is_err(),
            "store in a missing directory must be rejected"
        );
    }
}
