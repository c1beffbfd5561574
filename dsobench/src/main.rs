//! End-to-end and per-layer benchmark of the DRAM stress-optimization
//! stack. See `README.md` beside this crate for the workloads, the
//! metrics and what each layer metric should move.
//!
//! ```text
//! dsobench --workload <plane_sweep|table1|serve_mixed|all> --seed <n>
//!          --seconds <s> --trace <0|1> [--write-expected | --setup-only]
//! dsobench compare --base <record.json>... --new <record.json>...
//! ```
//!
//! Run from the root of a checkout. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). A full record with the host identity is written under
//! `.bench_out/results/`. The exit code is 0 only when every correctness
//! and validity check passed.

mod compare;
mod fold;
mod host;
mod layers;
mod plane_sweep;
mod rng;
mod serve_mixed;
mod stats;
mod table1;
mod workload;

use dso_obs::Json;
use host::Host;
use std::collections::BTreeMap;
use std::path::PathBuf;
use workload::{Ctx, Timed, PINNED_SEED};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["plane_sweep", "table1", "serve_mixed"];

/// Every end-to-end metric with its unit, in report order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("points_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("within_limit_frac", "frac"),
    ("completed_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Processes whose set-ups a timed run pools: its own and fresh ones.
/// The same set-up takes up to 1.7 times as long in one process as in
/// the next (memory layout) and hardly varies within one, so a run's
/// median over one process would carry that spread.
const SETUP_PROCESSES: usize = 5;

/// Scratch output, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: dsobench --workload <plane_sweep|table1|serve_mixed|all> \
--seed <n> --seconds <s> --trace <0|1> [--write-expected | --setup-only]\n       \
dsobench compare --base <record.json>... --new <record.json>...";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_expected: bool,
    /// Only time the set-ups and print their durations: the fresh
    /// processes of [`SETUP_PROCESSES`].
    setup_only: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut write_expected = false;
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--write-expected" => write_expected = true,
            "--setup-only" => setup_only = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                map.insert(flag, value);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let get = |k: &str| {
        map.get(k)
            .copied()
            .ok_or_else(|| format!("{k} is required"))
    };
    let workload = get("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    if write_expected && (seed != PINNED_SEED || trace) {
        return Err(format!(
            "--write-expected needs --seed {PINNED_SEED} --trace 0"
        ));
    }
    if setup_only && (workload == "all" || trace || write_expected) {
        return Err("--setup-only needs one workload and --trace 0".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        write_expected,
        setup_only,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::run(&argv[1..]));
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("dsobench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // The program reads its configuration from DSO_* variables; a stray
    // one would silently change what is measured.
    if let Some((key, _)) = std::env::vars().find(|(k, _)| k.starts_with("DSO_")) {
        eprintln!("dsobench: {key} is set; unset every DSO_* variable before benchmarking");
        std::process::exit(2);
    }
    let code = if args.setup_only {
        run_setups(&args)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    std::process::exit(code);
}

/// One metric for the result line.
fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(BTreeMap::from([
        ("value".to_string(), Json::Num(value)),
        ("unit".to_string(), Json::Str(unit.to_string())),
    ]))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of a timed run, plus a line describing the
/// tail figure.
fn end_to_end(t: &Timed, peak_rss_mb: f64) -> (BTreeMap<&'static str, f64>, String) {
    let done: Vec<f64> = t.latencies_ms.iter().flatten().copied().collect();
    // Repeated identical rounds: each request's typical latency is the
    // median of its repetitions.
    let (samples, basis) = match t.round_len.filter(|&k| k > 0) {
        Some(k) => (
            (0..k)
                .filter_map(|j| {
                    let xs: Vec<f64> = t
                        .latencies_ms
                        .iter()
                        .skip(j)
                        .step_by(k)
                        .flatten()
                        .copied()
                        .collect();
                    (!xs.is_empty()).then(|| stats::median(&xs))
                })
                .collect(),
            format!(
                "{k} requests, each the median of its {} repetitions",
                t.latencies_ms.len() / k
            ),
        ),
        None => {
            let basis = format!("{} completed requests", done.len());
            (done, basis)
        }
    };
    let p50_ms = stats::median(&samples);
    // With too few requests the rule lands below the median, which is no
    // tail: report the slowest request then, and say so.
    let (tail_ms, tail_note) = match stats::tail(&samples).filter(|t| t.value >= p50_ms) {
        Some(tail) => (
            tail.value,
            format!(
                "tail_ms is p{:.1} of {basis} ({} beyond it)",
                tail.percentile, tail.beyond
            ),
        ),
        None => (
            stats::sorted(&samples).last().copied().unwrap_or(0.0),
            format!(
                "tail_ms is the slowest of {basis}: too few to keep {} beyond a percentile above the median",
                stats::TAIL_BEYOND
            ),
        ),
    };
    let within = t
        .latencies_ms
        .iter()
        .filter(|l| l.is_some_and(|ms| ms <= t.limit_ms))
        .count();
    let values = BTreeMap::from([
        ("setup_s", stats::median(&t.setup_s)),
        ("wall_s", stats::median(&t.unit_wall_s)),
        ("points_per_s", ratio(t.points, t.points_wall_s)),
        ("p50_ms", p50_ms),
        ("tail_ms", tail_ms),
        (
            "within_limit_frac",
            ratio(within as f64, t.latencies_ms.len() as f64),
        ),
        (
            "completed_frac",
            1.0 - ratio(t.failed as f64, t.attempted as f64),
        ),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    (values, tail_note)
}

fn ctx(a: &Args, nproc: usize) -> Ctx {
    Ctx {
        seed: a.seed,
        seconds: a.seconds,
        nproc,
        out_dir: PathBuf::from(OUT_DIR),
        expected_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected"),
        write_expected: a.write_expected,
    }
}

/// The set-ups of a timed run: every duration in seconds on one line.
fn run_setups(a: &Args) -> i32 {
    let ctx = ctx(a, 1);
    let t = match a.workload.as_str() {
        "plane_sweep" => plane_sweep::setups(&ctx),
        "table1" => table1::setups(&ctx),
        _ => serve_mixed::setups(&ctx),
    };
    for e in &t.errors {
        eprintln!("dsobench: set-up failed: {e}");
    }
    let line: Vec<String> = t.setup_s.iter().map(|s| format!("{s:e}")).collect();
    println!("{}", line.join(" "));
    i32::from(!t.errors.is_empty())
}

/// Set-up durations timed in `SETUP_PROCESSES - 1` fresh processes, run
/// one after another.
fn setups_elsewhere(a: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut all = Vec::new();
    for _ in 1..SETUP_PROCESSES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &a.workload, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", "0"])
            .arg("--setup-only")
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        if !out.status.success() {
            return Err(format!("set-up process exited with {}", out.status));
        }
        for word in String::from_utf8_lossy(&out.stdout).split_whitespace() {
            all.push(
                word.parse()
                    .map_err(|e| format!("set-up process printed `{word}`: {e}"))?,
            );
        }
    }
    Ok(all)
}

/// Runs one workload in this process and prints its result.
fn run_one(a: &Args) -> i32 {
    let host = Host::detect();
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir.join("results")) {
        eprintln!("dsobench: create {OUT_DIR}: {e}");
        return 2;
    }
    let ctx = ctx(a, host.nproc);
    println!(
        "host: {} | {} | commit {} | sources {} | workload {} seed {} trace {}",
        host.class(),
        host.rustc,
        host.commit.as_deref().unwrap_or("unknown"),
        host.source_digest,
        a.workload,
        a.seed,
        u8::from(a.trace)
    );
    let (attempted, failed, notes, errors, metrics) = if a.trace {
        let t = match a.workload.as_str() {
            "plane_sweep" => plane_sweep::traced(&ctx),
            "table1" => table1::traced(&ctx),
            _ => serve_mixed::traced(&ctx),
        };
        let values = layers::per_layer(&t);
        let mut notes = t.notes.clone();
        let mut hot: Vec<(&String, &fold::NameTotals)> = t.fold.by_name.iter().collect();
        hot.sort_by_key(|(_, totals)| std::cmp::Reverse(totals.self_us));
        for (name, totals) in hot.iter().take(12) {
            notes.push(format!(
                "self time {name}: {:.1} ms in {} spans",
                totals.self_us as f64 / 1e3,
                totals.count
            ));
        }
        let metrics: Vec<(&str, f64, &str)> = layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values[name], unit))
            .collect();
        (t.attempted, t.failed, notes, t.errors, metrics)
    } else {
        // Before the timed window, so it runs alone.
        let elsewhere = setups_elsewhere(a);
        let mut t = match a.workload.as_str() {
            "plane_sweep" => plane_sweep::timed(&ctx),
            "table1" => table1::timed(&ctx),
            _ => serve_mixed::timed(&ctx),
        };
        match elsewhere {
            Ok(samples) => t.setup_s.extend(samples),
            Err(e) => t.errors.push(e),
        }
        let (values, tail_note) = end_to_end(&t, host::peak_rss_mb());
        let mut notes = t.notes.clone();
        notes.push(tail_note);
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .map(|&(name, unit)| (name, values[name], unit))
            .collect();
        (t.attempted, t.failed, notes, t.errors, metrics)
    };
    for note in &notes {
        println!("{note}");
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    for e in &errors {
        eprintln!("dsobench: CHECK FAILED: {e}");
    }
    let correct = errors.is_empty() && attempted > 0;
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), metric(value, unit)))
            .collect(),
    );
    let result = Json::Obj(BTreeMap::from([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted.max(1) as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("metrics".to_string(), metrics_json),
    ]));
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let strings = |xs: &[String]| Json::Arr(xs.iter().map(|s| Json::Str(s.clone())).collect());
    let record = Json::Obj(BTreeMap::from([
        ("workload".to_string(), Json::Str(a.workload.clone())),
        ("seed".to_string(), Json::Num(a.seed as f64)),
        ("trace".to_string(), Json::Bool(a.trace)),
        ("seconds".to_string(), Json::Num(a.seconds)),
        ("unix_ms".to_string(), Json::Num(unix_ms as f64)),
        ("host".to_string(), compare::host_json(&host)),
        ("result".to_string(), result.clone()),
        ("notes".to_string(), strings(&notes)),
        ("errors".to_string(), strings(&errors)),
    ]));
    let path = ctx.out_dir.join("results").join(format!(
        "{}-seed{}-trace{}-{unix_ms}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{record}\n")) {
        eprintln!("dsobench: write {}: {e}", path.display());
    }
    println!("{result}");
    if correct {
        0
    } else {
        1
    }
}

/// Runs every workload, each in a process of its own (so each reports
/// its own peak memory), and prints one combined result.
fn run_all(a: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dsobench: cannot locate own executable: {e}");
            return 2;
        }
    };
    let mut combined: BTreeMap<String, Json> = BTreeMap::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("dsobench: run {w}: {e}");
                return 2;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().and_then(|l| Json::parse(l).ok());
        let Some(doc) = last else {
            eprintln!("dsobench: {w} printed no result");
            return 2;
        };
        correct &= out.status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(m) = doc.get("metrics").and_then(Json::as_obj) {
            for (name, v) in m {
                combined.insert(format!("{w}.{name}"), v.clone());
            }
        }
    }
    let result = Json::Obj(BTreeMap::from([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted.max(1) as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("metrics".to_string(), Json::Obj(combined)),
    ]));
    println!("{result}");
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload table1 --seed 7 --seconds 30 --trace 1")).expect("ok");
        assert_eq!(
            a,
            Args {
                workload: "table1".into(),
                seed: 7,
                seconds: 30.0,
                trace: true,
                write_expected: false,
                setup_only: false
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload table1 --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload table1 --seed 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload table1 --seed 2 --seconds 1 --trace 0 --write-expected"
        ))
        .is_err());
        let s = parse_args(&argv(
            "--workload table1 --seed 7 --seconds 30 --trace 0 --setup-only",
        ));
        assert!(s.expect("ok").setup_only);
        assert!(parse_args(&argv(
            "--workload all --seed 1 --seconds 1 --trace 0 --setup-only"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload table1 --seed 1 --seconds 1 --trace 1 --setup-only"
        ))
        .is_err());
    }

    #[test]
    fn failed_and_refused_requests_count_against_both_fractions() {
        // Two served in time, one served late, one failed, one refused.
        let t = Timed {
            latencies_ms: vec![Some(5.0), Some(8.0), Some(2_000.0), None, None],
            limit_ms: 1_000.0,
            attempted: 5,
            failed: 2,
            ..Timed::default()
        };
        let (m, _) = end_to_end(&t, 10.0);
        assert_eq!(m["within_limit_frac"], 2.0 / 5.0);
        assert_eq!(m["completed_frac"], 1.0 - 2.0 / 5.0);
        // Latency figures cover completed requests only.
        assert_eq!(m["p50_ms"], 8.0);
        assert_eq!(m["tail_ms"], 2_000.0);
    }

    #[test]
    fn repeated_rounds_report_per_request_medians() {
        // Three requests over three rounds; request 1 failed once.
        let t = Timed {
            latencies_ms: [[10.0, 50.0, 30.0], [12.0, 0.0, 31.0], [11.0, 52.0, 90.0]]
                .iter()
                .flatten()
                .map(|&ms| (ms > 0.0).then_some(ms))
                .collect(),
            round_len: Some(3),
            limit_ms: 60.0,
            attempted: 9,
            failed: 1,
            ..Timed::default()
        };
        let (m, _) = end_to_end(&t, 10.0);
        // Per-request medians: 11, 51, 31.
        assert_eq!(m["p50_ms"], 31.0);
        assert_eq!(m["tail_ms"], 51.0);
        assert_eq!(m["within_limit_frac"], 7.0 / 9.0);
    }

    #[test]
    fn benchmark_json_names_every_reported_metric() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&layers::PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
