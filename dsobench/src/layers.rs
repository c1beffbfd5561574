//! Per-layer metrics of a traced run, named after the program's modules.
//!
//! Each comes from one of three sources: the counters the program
//! already exports (`dso_obs::metrics::snapshot()`), self time folded out
//! of the program's coarse trace spans, or the benchmark's own spans and
//! timings around its calls into a layer. A layer a workload does not
//! exercise reads 0.

use crate::stats::median;
use crate::workload::Traced;
use std::collections::HashMap;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("num.newton_iters", "count"),
    ("num.iters_per_solve", "ratio"),
    ("num.lu_refactors", "count"),
    ("num.lu_reuse_rate", "frac"),
    ("spice.newton_solves", "count"),
    ("spice.transient_self_ms", "ms"),
    ("spice.ns_per_solve", "ns"),
    ("spice.bypass_hit_rate", "frac"),
    ("spice.retry_frac", "frac"),
    ("dram.op_sequences", "count"),
    ("dram.op_sequence_self_ms", "ms"),
    ("eval.requests", "count"),
    ("eval.cache_hit_rate", "frac"),
    ("eval.dedup_waits", "count"),
    ("exec.chunks", "count"),
    ("exec.queue_wait_ms", "ms"),
    ("exec.worker_utilization", "frac"),
    ("exec.speedup_vs_serial", "ratio"),
    ("analysis.sweep_points", "count"),
    ("analysis.warm_hit_rate", "frac"),
    ("analysis.sweep_point_self_ms", "ms"),
    ("stress.optimize_ms", "ms"),
    ("stress.decide_stress_self_ms", "ms"),
    ("stress.probes", "count"),
    ("stress.border_comparisons", "count"),
    ("store.open_ms", "ms"),
    ("store.appends", "count"),
    ("store.write_errors", "count"),
    ("service.daemon_latency_ms", "ms"),
    ("service.client_overhead_ms", "ms"),
    ("service.preemptions", "count"),
    ("service.queue_peak", "count"),
    ("service.rejected", "count"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Computes every metric of [`PER_LAYER`] from a traced run.
pub fn per_layer(t: &Traced) -> HashMap<&'static str, f64> {
    let c = |name: &str| t.snapshot.as_ref().map_or(0.0, |s| s.counter(name) as f64);
    let self_ms = |name: &str| t.fold.totals(name).self_us as f64 / 1e3;
    let spans = |name: &'static str| t.fold.spans.iter().filter(move |s| s.name == name);

    let solves = c("newton.solves");
    let (refactors, reuses) = (c("newton.lu_refactors"), c("newton.lu_reuses"));
    let (bypass_hits, bypass_misses) = (c("spice.bypass_hits"), c("spice.bypass_misses"));
    let attempts = c("spice.solve_attempts");
    let hits = c("eval.cache_hits") + c("eval.disk_hits");
    let (warm, cold) = (c("campaign.warm_hits"), c("campaign.warm_misses"));

    // Executor. The chunks of one `map_chunked` call share an owner span
    // and overlap in time; an owner's chunk that starts after all of its
    // earlier chunks ended opens a new call. A chunk waits from its call's
    // first chunk start until a worker picks it up; a call's capacity is
    // `threads` workers from its first chunk start to its last chunk end.
    let mut by_owner: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for chunk in spans("exec.chunk") {
        if let Some(owner) = chunk.parent {
            by_owner
                .entry(owner)
                .or_default()
                .push((chunk.start_us, chunk.end_us));
        }
    }
    let (mut wait_us, mut busy_us, mut capacity_us) = (0.0, 0.0, 0.0);
    for chunks in by_owner.values_mut() {
        chunks.sort_unstable();
        let mut call: Option<(u64, u64)> = None;
        for &(start, end) in chunks.iter() {
            let (first, last) = match call {
                Some((first, last)) if start < last => (first, last.max(end)),
                Some((first, last)) => {
                    capacity_us += (last - first) as f64 * t.threads as f64;
                    (start, end)
                }
                None => (start, end),
            };
            call = Some((first, last));
            wait_us += (start - first) as f64;
            busy_us += (end - start) as f64;
        }
        if let Some((first, last)) = call {
            capacity_us += (last - first) as f64 * t.threads as f64;
        }
    }

    let optimize_ms: Vec<f64> = spans("bench.optimize")
        .map(|s| s.dur_us() as f64 / 1e3)
        .collect();
    let service = t.service.clone().unwrap_or_default();
    let transient_self_ms = self_ms("spice.transient");

    HashMap::from([
        ("num.newton_iters", c("newton.iterations")),
        ("num.iters_per_solve", ratio(c("newton.iterations"), solves)),
        ("num.lu_refactors", refactors),
        ("num.lu_reuse_rate", ratio(reuses, refactors + reuses)),
        ("spice.newton_solves", solves),
        ("spice.transient_self_ms", transient_self_ms),
        ("spice.ns_per_solve", ratio(transient_self_ms * 1e6, solves)),
        (
            "spice.bypass_hit_rate",
            ratio(bypass_hits, bypass_hits + bypass_misses),
        ),
        (
            "spice.retry_frac",
            ratio((attempts - solves).max(0.0), solves),
        ),
        ("dram.op_sequences", c("dram.op_runs")),
        ("dram.op_sequence_self_ms", self_ms("dram.op_sequence")),
        ("eval.requests", c("eval.requests")),
        (
            "eval.cache_hit_rate",
            ratio(hits, hits + c("eval.cache_misses")),
        ),
        ("eval.dedup_waits", c("eval.dedup_waits")),
        ("exec.chunks", c("exec.chunks")),
        ("exec.queue_wait_ms", wait_us / 1e3),
        ("exec.worker_utilization", ratio(busy_us, capacity_us)),
        (
            "exec.speedup_vs_serial",
            t.serial_wall_s.map_or(0.0, |s| ratio(s, t.untraced_wall_s)),
        ),
        ("analysis.sweep_points", c("campaign.points")),
        ("analysis.warm_hit_rate", ratio(warm, warm + cold)),
        ("analysis.sweep_point_self_ms", self_ms("sweep.point")),
        ("stress.optimize_ms", median(&optimize_ms)),
        (
            "stress.decide_stress_self_ms",
            self_ms("optimizer.decide_stress"),
        ),
        ("stress.probes", c("optimizer.stress_probes")),
        (
            "stress.border_comparisons",
            c("optimizer.border_comparisons"),
        ),
        (
            "store.open_ms",
            ratio(
                t.fold.totals("store.open").total_us as f64 / 1e3,
                t.fold.totals("store.open").count as f64,
            ),
        ),
        ("store.appends", c("store.appends")),
        ("store.write_errors", c("store.write_errors")),
        ("service.daemon_latency_ms", median(&service.daemon_ms)),
        (
            "service.client_overhead_ms",
            median(&service.client_overhead_ms),
        ),
        ("service.preemptions", service.preemptions as f64),
        ("service.queue_peak", service.queue_peak as f64),
        ("service.rejected", service.rejected as f64),
        (
            "obs.trace_overhead_frac",
            ratio(t.traced_wall_s, t.untraced_wall_s),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold;

    #[test]
    fn every_metric_is_computed_even_without_a_trace() {
        let m = per_layer(&Traced::default());
        for (name, _) in PER_LAYER {
            assert_eq!(m.get(name), Some(&0.0), "{name}");
        }
        assert_eq!(m.len(), PER_LAYER.len());
    }

    #[test]
    fn executor_wait_and_utilization_come_from_reparented_chunks() {
        // One owner, two `map_chunked` calls: chunks 2-4 overlap (three
        // chunks on two workers), chunk 5 starts after all of them ended.
        let trace = [
            r#"{"ev":"enter","id":1,"name":"campaign.planes","t_mono_us":0}"#,
            r#"{"ev":"enter","id":2,"name":"exec.chunk","parent":1,"t_mono_us":10}"#,
            r#"{"ev":"enter","id":3,"name":"exec.chunk","parent":1,"t_mono_us":12}"#,
            r#"{"ev":"exit","id":2,"t_mono_us":50}"#,
            r#"{"ev":"enter","id":4,"name":"exec.chunk","parent":1,"t_mono_us":50}"#,
            r#"{"ev":"exit","id":3,"t_mono_us":60}"#,
            r#"{"ev":"exit","id":4,"t_mono_us":70}"#,
            r#"{"ev":"enter","id":5,"name":"exec.chunk","parent":1,"t_mono_us":80}"#,
            r#"{"ev":"exit","id":5,"t_mono_us":100}"#,
            r#"{"ev":"exit","id":1,"t_mono_us":120}"#,
        ]
        .join("\n");
        let t = Traced {
            threads: 2,
            untraced_wall_s: 2.0,
            traced_wall_s: 2.2,
            serial_wall_s: Some(3.0),
            fold: fold::fold(fold::parse(&trace).expect("parse")),
            ..Traced::default()
        };
        let m = per_layer(&t);
        // Waits: 0 + 2 + 40 in the first call, 0 in the second.
        assert_eq!(m["exec.queue_wait_ms"], 42.0 / 1e3);
        // Busy 40 + 48 + 20 + 20 over 2 workers x ([10, 70] + [80, 100]).
        assert_eq!(m["exec.worker_utilization"], 128.0 / 160.0);
        assert_eq!(m["exec.speedup_vs_serial"], 1.5);
        assert!((m["obs.trace_overhead_frac"] - 1.1).abs() < 1e-12);
    }
}
