//! `dsobench compare`: medians and spreads of two sets of result records,
//! per workload and metric, against the bounds in `BENCHMARK.json`.
//!
//! Records from different host classes (core count or CPU model) are
//! never compared: the command refuses and exits 3.

use crate::host::Host;
use crate::stats;
use dso_obs::Json;
use std::collections::BTreeMap;

/// The host identity as stored in a record.
pub fn host_json(h: &Host) -> Json {
    Json::Obj(BTreeMap::from([
        ("nproc".to_string(), Json::Num(h.nproc as f64)),
        ("cpu_model".to_string(), Json::Str(h.cpu_model.clone())),
        ("class".to_string(), Json::Str(h.class())),
        ("rustc".to_string(), Json::Str(h.rustc.clone())),
        (
            "commit".to_string(),
            h.commit.clone().map_or(Json::Null, Json::Str),
        ),
        (
            "source_digest".to_string(),
            Json::Str(h.source_digest.clone()),
        ),
    ]))
}

/// `(workload, trace) → metric → (unit, values)` of a set of records.
type Table = BTreeMap<(String, bool), BTreeMap<String, (String, Vec<f64>)>>;

fn load(paths: &[String], classes: &mut Vec<String>) -> Result<Table, String> {
    let mut table = Table::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("{path}: no `{k}`"));
        let class = field("host")?
            .get("class")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: no host class"))?;
        if !classes.iter().any(|c| c == class) {
            classes.push(class.to_string());
        }
        let key = (
            field("workload")?.as_str().unwrap_or_default().to_string(),
            field("trace")?.as_bool().unwrap_or(false),
        );
        let metrics = field("result")?
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}: no metrics"))?;
        for (name, m) in metrics {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            let value = m.get("value").and_then(Json::as_f64);
            let entry = table
                .entry(key.clone())
                .or_default()
                .entry(name.clone())
                .or_insert_with(|| (unit.to_string(), Vec::new()));
            entry.1.extend(value);
        }
    }
    Ok(table)
}

/// `name → (better, bound)` of the end-to-end metrics in `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, (String, f64)> {
    let doc = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| Json::parse(&t).ok());
    let Some(list) = doc
        .as_ref()
        .and_then(|d| d.get("end_to_end"))
        .and_then(Json::as_arr)
    else {
        return BTreeMap::new();
    };
    list.iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("better")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ),
            ))
        })
        .collect()
}

/// IQR over median, as a share.
fn spread(xs: &[f64]) -> f64 {
    match stats::quartiles(xs) {
        Some((q1, q3)) if stats::median(xs) != 0.0 => (q3 - q1) / stats::median(xs).abs(),
        _ => 0.0,
    }
}

/// Runs the subcommand; returns the exit code.
pub fn run(argv: &[String]) -> i32 {
    let mut base: Vec<String> = Vec::new();
    let mut new: Vec<String> = Vec::new();
    let mut side: Option<&mut Vec<String>> = None;
    for a in argv {
        match a.as_str() {
            "--base" => side = Some(&mut base),
            "--new" => side = Some(&mut new),
            path => match side.as_mut() {
                Some(v) => v.push(path.to_string()),
                None => {
                    eprintln!("dsobench compare: `{path}` before --base/--new");
                    return 2;
                }
            },
        }
    }
    if base.is_empty() || new.is_empty() {
        eprintln!("dsobench compare: need --base <record>... --new <record>...");
        return 2;
    }
    let mut classes = Vec::new();
    let (b, n) = match (load(&base, &mut classes), load(&new, &mut classes)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dsobench compare: {e}");
            return 2;
        }
    };
    if classes.len() > 1 {
        eprintln!(
            "dsobench compare: refusing to compare records from different host classes: {}",
            classes.join(" | ")
        );
        return 3;
    }
    let bounds = bounds();
    println!("workload       trace metric                        base median  new median  change   base spread  verdict");
    for (key, metrics) in &b {
        let Some(other) = n.get(key) else { continue };
        for (name, (unit, xs)) in metrics {
            let Some((_, ys)) = other.get(name) else {
                continue;
            };
            let (mb, mn) = (stats::median(xs), stats::median(ys));
            let change = if mb != 0.0 { mn / mb - 1.0 } else { 0.0 };
            let verdict = match bounds.get(name).filter(|_| !key.1) {
                Some((better, bound)) => {
                    let worse = if better == "lower" { change } else { -change };
                    if spread(xs) > *bound {
                        "unresolved: spread wider than bound".to_string()
                    } else if worse > *bound {
                        format!("WORSE than bound {bound}")
                    } else {
                        format!("within bound {bound}")
                    }
                }
                None => "per-layer (no bound)".to_string(),
            };
            println!(
                "{:<14} {:<5} {:<29} {:>12.6} {:>11.6}  {:>+7.2}%  {:>10.2}%  {verdict}  [{unit}, n={}/{}]",
                key.0,
                u8::from(key.1),
                name,
                mb,
                mn,
                change * 100.0,
                spread(xs) * 100.0,
                xs.len(),
                ys.len()
            );
        }
    }
    0
}
