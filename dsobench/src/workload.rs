//! What every workload shares: the run context, the figures a timed and
//! a traced run hand back, and the traced-pass harness.

use crate::fold::{self, Fold};
use dso_dram::design::ColumnDesign;
use dso_obs::MetricsSnapshot;
use std::path::PathBuf;
use std::time::Instant;

/// The seed whose outputs are pinned by the files under `expected/`.
pub const PINNED_SEED: u64 = 1;

/// Inputs of one benchmark run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed; the program sees only what it generates.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Logical CPUs: the thread count of the parallel workloads.
    pub nproc: usize,
    /// Scratch directory for traces, stores and sockets.
    pub out_dir: PathBuf,
    /// Directory of the committed expectations.
    pub expected_dir: PathBuf,
    /// Rewrite the expectations instead of checking them.
    pub write_expected: bool,
}

impl Ctx {
    /// `true` when this run's outputs are checked against `expected/`.
    pub fn pinned(&self) -> bool {
        self.seed == PINNED_SEED
    }
}

/// The column every workload simulates: the production pipeline on the
/// coarser time base the repository's own benches use, so one run holds
/// enough work to be steady.
pub fn design() -> ColumnDesign {
    ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    }
}

/// Figures of a timed (untraced) run.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Each set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each repetition of the workload's unit, seconds.
    pub unit_wall_s: Vec<f64>,
    /// Points completed over `points_wall_s`.
    pub points: f64,
    /// The wall time the points were completed in, seconds.
    pub points_wall_s: f64,
    /// One entry per request; `None` when it failed or was refused.
    pub latencies_ms: Vec<Option<f64>>,
    /// Requests per round when the run repeats identical rounds
    /// (`latencies_ms` is then round after round); `None` for an open
    /// loop.
    pub round_len: Option<usize>,
    /// Latency limit of the workload's requests, milliseconds.
    pub limit_ms: f64,
    /// Attempted sweep points, optimizations or frames.
    pub attempted: u64,
    /// Of those, the ones that failed, were refused or passed their
    /// deadline.
    pub failed: u64,
    /// Lines printed with the result.
    pub notes: Vec<String>,
    /// Failed correctness or validity checks.
    pub errors: Vec<String>,
}

/// What one round of a batch workload produced.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of the round, seconds.
    pub wall_s: f64,
    /// Points completed: sweep points or evaluation requests.
    pub points: u64,
    /// Attempted sweep points or optimizations.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// One entry per request, in round order; `None` when it failed.
    pub latencies_ms: Vec<Option<f64>>,
    /// Bit-exact results, one per request; every repetition of the round
    /// must reproduce them.
    pub results: Vec<String>,
    /// One expectation-file line per request.
    pub summaries: Vec<String>,
    /// Failed checks.
    pub errors: Vec<String>,
}

/// Times `n` set-ups into `t` and keeps the last one's product.
pub fn time_setups<T>(
    n: usize,
    t: &mut Timed,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Option<T> {
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let built = setup();
        t.setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    match last? {
        Ok(x) => Some(x),
        Err(e) => {
            t.errors.push(e);
            None
        }
    }
}

/// Repeats identical rounds into `t` until less than half a round of
/// `ctx.seconds` is left, so a run measures `seconds` on average whatever
/// the round length. On the pinned seed the first round is checked
/// against the expectation file `expected` at relative tolerance `rel`;
/// every later round must reproduce the first one's results exactly.
pub fn repeat_rounds(
    ctx: &Ctx,
    t: &mut Timed,
    expected: &str,
    rel: f64,
    mut round: impl FnMut() -> Round,
) {
    let start = Instant::now();
    let mut first: Option<Vec<String>> = None;
    loop {
        let r = round();
        t.round_len = Some(r.latencies_ms.len());
        t.unit_wall_s.push(r.wall_s);
        t.points += r.points as f64;
        t.points_wall_s += r.wall_s;
        t.attempted += r.attempted;
        t.failed += r.failed;
        t.latencies_ms.extend(r.latencies_ms);
        t.errors.extend(r.errors);
        match &first {
            None => {
                if ctx.pinned() {
                    check_expected(ctx, expected, &r.summaries, rel, &mut t.errors);
                }
                first = Some(r.results);
            }
            Some(f) if *f != r.results => t.errors.push(format!(
                "a repeated round's results differ from the first round's ({expected})"
            )),
            Some(_) => {}
        }
        let next = start.elapsed().as_secs_f64() + 0.5 * crate::stats::median(&t.unit_wall_s);
        if next > ctx.seconds {
            break;
        }
    }
}

/// Daemon-side figures of a traced `serve_mixed` run.
#[derive(Debug, Clone, Default)]
pub struct ServiceLayer {
    /// Admission-to-done `wall_ms` of each interactive `done`.
    pub daemon_ms: Vec<f64>,
    /// Client-observed latency (from send) minus `wall_ms`, per frame.
    pub client_overhead_ms: Vec<f64>,
    /// Interactive jobs a bulk campaign ran inline between its chunks.
    pub preemptions: u64,
    /// Highest queue depth at admission.
    pub queue_peak: u64,
    /// Frames refused with `queue_full`.
    pub rejected: u64,
}

/// Figures of a traced run: the same work untraced and traced.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Wall time of the untraced pass, seconds.
    pub untraced_wall_s: f64,
    /// Wall time of the traced pass over the same inputs, seconds.
    pub traced_wall_s: f64,
    /// Wall time of the same inputs at one thread, when measured.
    pub serial_wall_s: Option<f64>,
    /// Worker threads of the executor pool in the traced pass.
    pub threads: usize,
    /// Metrics exported by the program during the traced pass.
    pub snapshot: Option<MetricsSnapshot>,
    /// The traced pass's spans.
    pub fold: Fold,
    /// Daemon-side figures (`serve_mixed` only).
    pub service: Option<ServiceLayer>,
    /// Attempted items of the traced pass.
    pub attempted: u64,
    /// Failed items of the traced pass.
    pub failed: u64,
    /// Lines printed with the result.
    pub notes: Vec<String>,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

/// Runs `work` with the program's tracing and metrics on: spans stream to
/// a JSONL file under `ctx.out_dir`, which is folded afterwards (and the
/// folded stacks written beside it). Returns `work`'s value, its wall
/// time, the fold and the metrics snapshot.
///
/// # Errors
///
/// The trace file cannot be created or read back.
pub fn traced<T>(
    ctx: &Ctx,
    label: &str,
    work: impl FnOnce() -> T,
) -> Result<(T, f64, Fold, MetricsSnapshot), String> {
    let path = ctx
        .out_dir
        .join(format!("trace-{label}-{}.jsonl", ctx.seed));
    dso_obs::metrics::reset();
    dso_obs::set_metrics_enabled(true);
    dso_obs::trace_to_file(&path, dso_obs::Level::Coarse)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let t0 = Instant::now();
    let out = {
        let _span = dso_obs::span("bench.pass");
        work()
    };
    let wall = t0.elapsed().as_secs_f64();
    dso_obs::trace_shutdown();
    dso_obs::set_metrics_enabled(false);
    let snapshot = dso_obs::metrics::snapshot();
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let folded = fold::fold(fold::parse(&text)?);
    let folded_path = path.with_extension("folded");
    std::fs::write(&folded_path, folded.folded_text())
        .map_err(|e| format!("write {}: {e}", folded_path.display()))?;
    Ok((out, wall, folded, snapshot))
}

/// Relative difference check used by the expectation files.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs())
}

/// Compares one line of an expectation file with the line a run
/// produced. Lines are whitespace-separated tokens; a `key=v1,v2,...`
/// token whose values all parse as numbers matches within relative
/// tolerance `rel`, every other token must match exactly.
pub fn line_matches(expected: &str, actual: &str, rel: f64) -> Result<(), String> {
    let numbers = |v: &str| -> Option<Vec<f64>> { v.split(',').map(|x| x.parse().ok()).collect() };
    let (e, a): (Vec<&str>, Vec<&str>) = (
        expected.split_whitespace().collect(),
        actual.split_whitespace().collect(),
    );
    if e.len() != a.len() {
        return Err(format!("expected `{expected}`, got `{actual}`"));
    }
    for (te, ta) in e.iter().zip(&a) {
        let same = match (te.split_once('='), ta.split_once('=')) {
            (Some((ke, ve)), Some((ka, va))) if ke == ka => match (numbers(ve), numbers(va)) {
                (Some(xe), Some(xa)) => {
                    xe.len() == xa.len() && xe.iter().zip(&xa).all(|(&x, &y)| close(x, y, rel))
                }
                _ => ve == va,
            },
            _ => te == ta,
        };
        if !same {
            return Err(format!("expected `{te}`, got `{ta}` in `{actual}`"));
        }
    }
    Ok(())
}

/// Checks a run's lines against the committed expectation file `name`,
/// or rewrites the file when `ctx.write_expected` is set.
pub fn check_expected(ctx: &Ctx, name: &str, lines: &[String], rel: f64, errors: &mut Vec<String>) {
    let path = ctx.expected_dir.join(name);
    if ctx.write_expected {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        if let Err(e) = std::fs::write(&path, text) {
            errors.push(format!("write {}: {e}", path.display()));
        }
        return;
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return errors.push(format!("read {}: {e}", path.display())),
    };
    let expected: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if expected.len() != lines.len() {
        errors.push(format!(
            "{name}: {} expected lines, run produced {}",
            expected.len(),
            lines.len()
        ));
    }
    for (e, a) in expected.iter().zip(lines) {
        if let Err(msg) = line_matches(e, a, rel) {
            errors.push(format!("{name}: {msg}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_lines_compare_numbers_within_tolerance() {
        let e = "O3 true border=2459539.5 vsa=1.0,2.0 cond={w1_w0_r0}";
        assert!(line_matches(
            e,
            "O3 true border=2459539.6 vsa=1.0,2.0 cond={w1_w0_r0}",
            1e-6
        )
        .is_ok());
        assert!(line_matches(
            e,
            "O3 true border=2459639.5 vsa=1.0,2.0 cond={w1_w0_r0}",
            1e-6
        )
        .is_err());
        assert!(line_matches(
            e,
            "O3 comp border=2459539.5 vsa=1.0,2.0 cond={w1_w0_r0}",
            1e-6
        )
        .is_err());
        assert!(line_matches(e, "O3 true border=2459539.5 vsa=1.0 cond={w1_w0_r0}", 1e-6).is_err());
        assert!(
            line_matches(e, "O3 true border=2459539.5 vsa=1.0,2.0 cond={w1_r0}", 1e-6).is_err()
        );
        assert!(line_matches("border=none", "border=none", 1e-6).is_ok());
        assert!(line_matches("border=none", "border=1", 1e-6).is_err());
    }
}
