//! End-to-end contract of the metrics registry on a real campaign: the
//! deterministic snapshot must be **bit-identical** (as serialized JSON)
//! for thread counts 1, 2, 4, and 8, and the `DSO_METRICS` export path
//! must round-trip through the JSON parser.
//!
//! The registry and its enable flag are process-global, so this file
//! holds exactly one `#[test]` — its own test binary is its isolation.

use dso_core::exec::CampaignConfig;
use dso_core::Session;
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::{ColumnDesign, OperatingPoint};
use dso_num::interp::logspace;
use dso_obs::metrics::MetricsSnapshot;

/// Coarse time step so debug-mode campaigns stay affordable.
fn fast_design() -> ColumnDesign {
    ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    }
}

fn run_campaign(threads: usize) {
    let defect = Defect::cell_open(BitLineSide::True);
    let r_values = logspace(1e4, 1e7, 6).expect("valid sweep");
    let config = CampaignConfig::with_threads(threads).with_chunk(2);
    let session = Session::with_design(fast_design()).with_config(config);
    session
        .planes(&defect, &OperatingPoint::nominal(), &r_values, 1)
        .expect("campaign runs");
}

#[test]
fn deterministic_snapshot_is_bit_identical_across_thread_counts() {
    dso_obs::set_metrics_enabled(true);
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        dso_obs::metrics::reset();
        run_campaign(threads);
        let snap = dso_obs::metrics::snapshot();

        // The campaign actually flowed through every instrumented layer.
        assert_eq!(snap.counter("campaign.points"), 6, "threads = {threads}");
        assert!(snap.counter("newton.solves") > 0, "threads = {threads}");
        assert!(
            snap.counter("newton.lu_refactors") > 0,
            "threads = {threads}"
        );
        assert!(snap.counter("spice.transients") > 0, "threads = {threads}");
        // Residual evaluations by kind: the campaign's warm-started points
        // probe seeds, and every accepted solve revalidates exactly.
        for name in [
            "spice.residual_evals",
            "spice.exact_residual_evals",
            "spice.warm_probe_evals",
        ] {
            assert!(snap.counter(name) > 0, "{name}, threads = {threads}");
        }
        assert!(snap.counter("dram.op_runs") > 0, "threads = {threads}");
        assert!(snap.counter("exec.chunks") > 0, "threads = {threads}");

        // Wall-clock metrics exist but are excluded from the deterministic
        // view; the rest must serialize to identical bytes for every
        // thread count.
        let det_json = snap.deterministic_only().to_json();
        assert!(!det_json.contains("exec.chunk_ms"), "nondet metric leaked");
        match &reference {
            None => reference = Some(det_json),
            Some(r) => assert_eq!(r, &det_json, "threads = {threads}"),
        }
    }

    // DSO_METRICS export: the campaign layer writes the snapshot to the
    // requested path; the file must parse back losslessly.
    let path = std::env::temp_dir().join(format!("dso_metrics_{}.json", std::process::id()));
    std::env::set_var("DSO_METRICS", &path);
    dso_obs::metrics::reset();
    run_campaign(2);
    std::env::remove_var("DSO_METRICS");
    let text = std::fs::read_to_string(&path).expect("DSO_METRICS file written");
    let parsed = MetricsSnapshot::from_json(&text).expect("exported snapshot parses");
    assert_eq!(parsed.counter("campaign.points"), 6);
    assert_eq!(
        parsed.to_json(),
        text,
        "export must re-serialize identically"
    );
    let _ = std::fs::remove_file(&path);

    // Disabling stops recording without losing registrations.
    dso_obs::set_metrics_enabled(false);
    dso_obs::metrics::reset();
    run_campaign(1);
    let off = dso_obs::metrics::snapshot();
    assert_eq!(
        off.counter("campaign.points"),
        0,
        "disabled registry recorded"
    );
}
