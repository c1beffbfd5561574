//! The deterministic residual-evaluation counters of the transient engine
//! (`spice.residual_evals`, `spice.exact_residual_evals`,
//! `spice.warm_probe_evals`): pinned for a small fixed transient on the
//! paper's column, and equal whether the same runs execute on one thread
//! or on two.
//!
//! The metrics registry and its enable flag are process-global, so this
//! file holds exactly one `#[test]` — its own test binary is its isolation.

use dso_obs::metrics::MetricsSnapshot;
use dso_spice::circuit::Circuit;
use dso_spice::engine::{Simulator, TranOptions};
use dso_spice::netlist;
use dso_spice::waveform::{Pulse, Waveform};

/// The paper's column (`ColumnDesign::default()`, 200 kΩ cell open on the
/// true side) as deck text.
const PAPER_COLUMN: &str = include_str!("data/paper_column.cir");

const STEPS: usize = 100;

/// The column with its rails up and the true word line pulsing open, so the
/// run crosses a switching edge.
fn column() -> Circuit {
    let mut ckt = netlist::parse(PAPER_COLUMN).expect("deck parses").circuit;
    for (source, v) in [("Vdd", 2.4), ("Vbleq", 1.2), ("Vref", 1.2)] {
        ckt.set_waveform(source, Waveform::Dc(v)).unwrap();
    }
    let word_line = Waveform::Pulse(Pulse {
        v1: 0.0,
        v2: 3.3,
        delay: 0.5e-9,
        rise: 0.2e-9,
        fall: 0.2e-9,
        width: 1e-9,
        period: f64::INFINITY,
    });
    ckt.set_waveform("Vwlt", word_line).unwrap();
    ckt
}

/// A cold transient, then the same transient warm-started from it (two
/// residual probes per step).
fn run_pair(ckt: &Circuit) {
    let opts = TranOptions::new(2e-9, 2e-9 / STEPS as f64)
        .unwrap()
        .with_ic(vec![("st_true".to_string(), 2.4)]);
    let sim = Simulator::new(ckt);
    let cold = sim.transient(&opts).expect("cold run");
    sim.transient_seeded(&opts, Some(&cold))
        .expect("seeded run");
}

fn counts(snap: &MetricsSnapshot) -> [u64; 3] {
    [
        snap.counter("spice.residual_evals"),
        snap.counter("spice.exact_residual_evals"),
        snap.counter("spice.warm_probe_evals"),
    ]
}

#[test]
fn residual_counters_are_pinned_and_thread_independent() {
    let ckt = column();
    dso_obs::set_metrics_enabled(true);

    dso_obs::metrics::reset();
    run_pair(&ckt);
    let one = counts(&dso_obs::metrics::snapshot());
    // Every step of the seeded run probes both candidates exactly once.
    assert_eq!(one[2], 2 * STEPS as u64);
    assert_eq!(one, [602, 200, 200], "pinned counts changed");

    // One thread: the pair twice in a row.
    dso_obs::metrics::reset();
    run_pair(&ckt);
    run_pair(&ckt);
    let serial = counts(&dso_obs::metrics::snapshot());
    assert_eq!(serial, one.map(|c| 2 * c));

    // Two threads: one pair each.
    dso_obs::metrics::reset();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                run_pair(&ckt);
                dso_obs::metrics::flush();
            });
        }
    });
    let parallel = counts(&dso_obs::metrics::snapshot());
    assert_eq!(parallel, serial, "counts depend on the thread count");
    dso_obs::set_metrics_enabled(false);
}
