//! Determinism contract of the parallel campaign executor.
//!
//! The planes, sweep report, gaps, and extracted border of a campaign must
//! be **bit-identical** for every thread count — with and without injected
//! faults — because chunk decomposition, warm-seed chains, and fault-plan
//! resolution are keyed on sweep index, never on scheduling. This suite
//! pins that contract, plus the warm-start payoff (fewer Newton
//! iterations), a loom-free interleaving smoke test that executes the
//! chunks of a real simulation grid in a seeded-shuffled order, and a
//! check that the modified-Newton fast path (LU reuse, device bypass)
//! actually fires on a cold sweep.

use dso_core::analysis::{Analyzer, CampaignFaults, PlaneCampaign};
use dso_core::exec::{self, CampaignConfig};
use dso_core::{EvalService, Session};
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::{ColumnDesign, OperatingPoint};
use dso_num::chaos::{FaultKind, FaultPlan};
use dso_num::interp::logspace;
use dso_num::testing::TestRng;
use dso_spice::SolverTuning;

/// Coarse time step so debug-mode campaigns stay affordable.
fn fast_design() -> ColumnDesign {
    ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    }
}

fn sweep() -> Vec<f64> {
    logspace(1e4, 1e7, 6).expect("valid sweep")
}

fn campaign_at(threads: usize, faults: &CampaignFaults) -> PlaneCampaign {
    let defect = Defect::cell_open(BitLineSide::True);
    let config = CampaignConfig::with_threads(threads).with_chunk(2);
    // A fresh session (fresh service) per run: every thread count
    // recomputes from scratch instead of replaying a shared cache.
    let session = Session::with_design(fast_design()).with_config(config);
    session
        .planes_faulted(&defect, &OperatingPoint::nominal(), &sweep(), 1, faults)
        .expect("campaign runs")
}

/// Bitwise equality of two campaigns: every plane curve, every report
/// entry, every gap, and the extracted border.
fn assert_bit_identical(a: &PlaneCampaign, b: &PlaneCampaign, label: &str) {
    // `ResultPlanes: PartialEq` compares every f64 of every curve; equal
    // finite f64s are equal bit patterns (no NaNs survive a campaign, and
    // the sweeps never produce -0.0 vs 0.0 splits on curve data).
    assert_eq!(a.planes, b.planes, "{label}: planes diverged");
    assert_eq!(a.report, b.report, "{label}: sweep report diverged");
    assert_eq!(a.confidence, b.confidence, "{label}: confidence diverged");
    assert_eq!(a.gaps(), b.gaps(), "{label}: gaps diverged");
    let border = |c: &PlaneCampaign| {
        c.border_from_intersection()
            .expect("no gap straddles the border")
            .map(f64::to_bits)
    };
    assert_eq!(border(a), border(b), "{label}: border bits diverged");
}

#[test]
fn parallel_campaign_bit_identical_to_serial() {
    let clean = CampaignFaults::new();
    let serial = campaign_at(1, &clean);
    assert_eq!(serial.report.failed(), 0);
    for threads in [2, 4, 8] {
        let parallel = campaign_at(threads, &clean);
        assert_bit_identical(&serial, &parallel, &format!("threads = {threads}"));
    }
}

#[test]
fn parallel_campaign_bit_identical_under_faults() {
    // Kill one interior sweep point outright; the chaos ordinals are keyed
    // on sweep index, so every thread count must see the identical gap.
    let faults = CampaignFaults::new().with_fault(1, FaultPlan::always(FaultKind::NanResidual));
    let serial = campaign_at(1, &faults);
    assert_eq!(serial.report.failed(), 1);
    assert_eq!(serial.gaps().len(), 1);
    for threads in [2, 4, 8] {
        let parallel = campaign_at(threads, &faults);
        assert_eq!(parallel.report.failed(), 1, "threads = {threads}");
        assert_bit_identical(&serial, &parallel, &format!("threads = {threads} faulted"));
    }
}

#[test]
fn result_planes_parallel_matches_serial_and_warm_start_pays() {
    let analyzer = Analyzer::new(fast_design());
    let defect = Defect::cell_open(BitLineSide::True);
    let op = OperatingPoint::nominal();
    let r_values = sweep();

    let run = |config: &CampaignConfig| {
        let session = Session::from_parts(EvalService::new(analyzer.clone()), config.clone());
        session
            .planes_strict(&defect, &op, &r_values, 1)
            .expect("planes build")
    };

    // One chunk spanning the whole sweep maximizes the warm chain.
    let whole = CampaignConfig::serial().with_chunk(r_values.len());
    let (warm_planes, warm_perf) = run(&whole);
    let (cold_planes, cold_perf) = run(&whole.clone().with_warm_start(false));

    // Warm starts actually happened and saved Newton work.
    assert_eq!(warm_perf.points, r_values.len());
    assert_eq!(warm_perf.warm_hits, 4 * (r_values.len() - 1));
    assert_eq!(cold_perf.warm_hits, 0);
    assert!(
        warm_perf.newton_iters < cold_perf.newton_iters,
        "warm {} !< cold {} Newton iterations",
        warm_perf.newton_iters,
        cold_perf.newton_iters
    );
    let saved = 1.0 - warm_perf.newton_iters as f64 / cold_perf.newton_iters as f64;
    assert!(
        saved >= 0.10,
        "warm start saved only {:.1}% of Newton iterations",
        saved * 100.0
    );
    // Warm and cold solve the same physics to the same tolerance.
    let warm_border = warm_planes.border_from_intersection().unwrap().unwrap();
    let cold_border = cold_planes.border_from_intersection().unwrap().unwrap();
    assert!(
        (warm_border - cold_border).abs() < 0.05 * cold_border,
        "warm {warm_border:.4e} vs cold {cold_border:.4e}"
    );

    // Thread count never changes the bits (same chunking, warm on).
    let serial = run(&CampaignConfig::with_threads(1).with_chunk(2));
    for threads in [2, 4, 8] {
        let parallel = run(&CampaignConfig::with_threads(threads).with_chunk(2));
        assert_eq!(serial.0, parallel.0, "threads = {threads}");
        assert_eq!(serial.1, parallel.1, "threads = {threads}: perf stats");
    }
}

#[test]
fn metrics_shard_merge_is_order_invariant() {
    // The observability registry merges per-thread metric shards with
    // commutative operations only, so any drain order — 1, 2, 4, or 8
    // workers finishing in any interleaving — must produce identical
    // totals. Exercised on standalone shards (no global state) so it can
    // run alongside the campaign tests in this binary.
    use dso_obs::metrics::Shard;

    let edges: &[f64] = &[2.0, 8.0, 32.0];
    let worker_shard = |w: u64| {
        let mut s = Shard::new();
        // Slot 0: counter, slot 1: gauge (max), slot 2: histogram.
        s.add_counter(0, 10 + w);
        s.set_gauge(1, w as f64 * 1.5);
        for i in 0..w {
            s.observe(2, edges, i as f64);
        }
        s
    };
    let shards: Vec<Shard> = (1..=8).map(worker_shard).collect();

    let merge_in = |order: &[usize]| {
        let mut acc = Shard::new();
        for &i in order {
            acc.merge(&shards[i]);
        }
        acc
    };
    let in_order: Vec<usize> = (0..shards.len()).collect();
    let reference = merge_in(&in_order);

    // Seeded-shuffled drain orders, modelling 8 workers finishing in any
    // interleaving.
    let mut rng = TestRng::new(0x0B5_CAFE);
    for round in 0..5 {
        let mut order = in_order.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        assert_eq!(merge_in(&order), reference, "round {round}: {order:?}");
    }

    // Hierarchical (tree) merge, modelling nested scopes at thread counts
    // 2 and 4: pairwise-merge halves, then merge the halves.
    let tree = |groups: &[&[usize]]| {
        let mut acc = Shard::new();
        for g in groups {
            acc.merge(&merge_in(g));
        }
        acc
    };
    assert_eq!(tree(&[&[0, 1, 2, 3], &[4, 5, 6, 7]]), reference);
    assert_eq!(tree(&[&[7, 5], &[3, 1], &[6, 4], &[2, 0]]), reference);
    assert_eq!(
        tree(&[&[0], &[1], &[2], &[3], &[4], &[5], &[6], &[7]]),
        reference
    );
}

#[test]
fn shuffled_chunk_interleaving_is_bit_identical() {
    // Loom-free interleaving smoke test: execute the chunks of a real
    // simulation grid in a seeded-shuffled completion order and require
    // the reassembled output to match the in-order run bit for bit. Chunk
    // completion order is the only scheduling freedom the executor has, so
    // permuting it covers the interleavings a scheduler could produce.
    let analyzer = Analyzer::new(fast_design());
    let defect = Defect::cell_open(BitLineSide::True);
    let op = OperatingPoint::nominal();
    let r_values = sweep();
    let config = CampaignConfig::serial().with_chunk(2);

    // A fresh service per run keeps every order recomputing from scratch
    // (a shared memo cache would make the comparison trivially true).
    let run_in = |order: &[usize]| {
        let service = EvalService::new(analyzer.clone());
        exec::map_chunked_in_order(r_values.len(), &config, order, |range| {
            range
                .map(|i| {
                    let vcs = service
                        .settle_sequence(&defect, r_values[i], &op, false, 1)
                        .expect("settle converges");
                    vcs[0].to_bits()
                })
                .collect::<Vec<_>>()
        })
    };

    let n_chunks = exec::chunk_ranges(
        r_values.len(),
        exec::effective_chunk(r_values.len(), config.chunk),
    )
    .len();
    let in_order: Vec<usize> = (0..n_chunks).collect();
    let reference = run_in(&in_order);

    let mut rng = TestRng::new(0xD5_0C0DE);
    for round in 0..3 {
        // Fisher-Yates with the repo's deterministic test RNG.
        let mut order = in_order.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        assert_eq!(
            run_in(&order),
            reference,
            "round {round}: order {order:?} diverged"
        );
    }
}

/// The 30-point cold reference sweep: one thread, warm start off, and the
/// default [`SolverTuning`] pinned explicitly so `DSO_LU_REUSE` /
/// `DSO_BYPASS_TOL` cannot switch the fast path off. A coarse time step
/// keeps it affordable in debug mode.
fn reference_30() -> (Vec<f64>, PlaneCampaign) {
    let design = ColumnDesign {
        dt_fraction: 1.0 / 100.0,
        ..ColumnDesign::default()
    };
    let analyzer = Analyzer::new(design).with_tuning(SolverTuning::default());
    let config = CampaignConfig::serial().with_warm_start(false);
    let session = Session::from_parts(EvalService::new(analyzer), config);
    let r_values = logspace(1e4, 1e7, 30).expect("valid sweep");
    let reference = session
        .planes(
            &Defect::cell_open(BitLineSide::True),
            &OperatingPoint::nominal(),
            &r_values,
            1,
        )
        .expect("campaign runs");
    assert_eq!(reference.report.failed(), 0, "reference sweep is clean");
    (r_values, reference)
}

#[test]
fn reference_sweep_exercises_lu_reuse_and_bypass() {
    // The fast path must actually fire on the reference sweep, or every
    // identity test above is vacuous: under default tuning the
    // modified-Newton policy should reuse more factorizations than it
    // builds, and the device bypass should land hits.
    let (_, reference) = reference_30();
    assert!(
        reference.perf.lu_reuse_rate() > 0.5,
        "LU reuse rate {:.2} never cleared 0.5 on the reference sweep",
        reference.perf.lu_reuse_rate()
    );
    assert!(
        reference.perf.bypass_hits > 0,
        "device bypass never hit on the reference sweep"
    );
}
