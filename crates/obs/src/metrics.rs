//! Typed metrics registry with lock-free per-thread shards.
//!
//! Instrumented sites hold a [`Counter`], [`Gauge`], or [`Histogram`]
//! handle (registered once by name, usually via the [`counter!`],
//! [`gauge!`], and [`histogram!`] macros) and record into a plain
//! thread-local [`Shard`] — no locks, no atomics on the record path
//! beyond the global enabled check. Shards are drained into the global
//! accumulator when their thread exits (campaign workers are scoped, so
//! every worker shard has been drained by the time the campaign returns)
//! or when the owning thread takes a [`snapshot`].
//!
//! **Deterministic merge.** Every merge operation is commutative and
//! associative — counters add (`u64`), gauges keep the maximum, histogram
//! buckets add (`u64`) — so the merged totals are independent of thread
//! count and of the order in which shards drain. Metrics that measure
//! wall-clock time or scheduling (queue waits, busy time) are inherently
//! run-dependent; they are registered as *non-deterministic* and excluded
//! from [`MetricsSnapshot::deterministic_only`], which is the view the
//! determinism tests and CI compare.
//!
//! The record path is disabled by default: every handle method first
//! checks one relaxed atomic ([`crate::metrics_enabled`]) and returns
//! immediately when observability is off.
//!
//! [`counter!`]: crate::counter
//! [`gauge!`]: crate::gauge
//! [`histogram!`]: crate::histogram
//! [`snapshot`]: snapshot

use crate::json::{format_f64, Json};
use crate::metrics_enabled;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// The type of a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing `u64` sum.
    Counter,
    /// `f64` high-water mark (merge keeps the maximum).
    Gauge,
    /// Fixed-bucket distribution: bucket `i` counts observations `v` with
    /// `edges[i-1] < v <= edges[i]`; the last bucket is the overflow
    /// (`v > edges.last()`, and NaN defensively).
    Histogram,
}

impl Kind {
    fn label(&self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// Registration record of one metric.
#[derive(Debug, Clone)]
struct Def {
    name: &'static str,
    kind: Kind,
    det: bool,
    edges: &'static [f64],
}

/// One metric's accumulated value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Counter sum.
    Counter(u64),
    /// Gauge high-water mark (`None` until first set).
    Gauge(Option<f64>),
    /// Histogram bucket counts (`edges.len() + 1` entries) and total
    /// observation count.
    Histogram {
        /// Per-bucket observation counts.
        counts: Vec<u64>,
        /// Total observations (sum of `counts`).
        total: u64,
    },
}

impl Cell {
    fn merge(&mut self, other: &Cell) {
        match (self, other) {
            (Cell::Counter(a), Cell::Counter(b)) => *a += b,
            (Cell::Gauge(a), Cell::Gauge(b)) => {
                *a = match (*a, *b) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                }
            }
            (
                Cell::Histogram { counts, total },
                Cell::Histogram {
                    counts: oc,
                    total: ot,
                },
            ) => {
                assert_eq!(counts.len(), oc.len(), "histogram bucket count mismatch");
                for (a, b) in counts.iter_mut().zip(oc) {
                    *a += b;
                }
                *total += ot;
            }
            (a, b) => panic!("metric kind mismatch in merge: {a:?} vs {b:?}"),
        }
    }
}

/// A set of metric values indexed by registration slot. The thread-local
/// record target, and the unit the deterministic-merge property is stated
/// over: [`Shard::merge`] is commutative and associative, so any drain
/// order produces the same totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Shard {
    cells: Vec<Option<Cell>>,
}

impl Shard {
    /// An empty shard.
    pub const fn new() -> Self {
        Shard { cells: Vec::new() }
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(Option::is_none)
    }

    fn slot(&mut self, idx: usize) -> &mut Option<Cell> {
        if self.cells.len() <= idx {
            self.cells.resize(idx + 1, None);
        }
        &mut self.cells[idx]
    }

    /// Adds `n` to the counter in slot `idx`.
    pub fn add_counter(&mut self, idx: usize, n: u64) {
        match self.slot(idx) {
            Some(Cell::Counter(c)) => *c += n,
            slot @ None => *slot = Some(Cell::Counter(n)),
            other => panic!("slot {idx} is not a counter: {other:?}"),
        }
    }

    /// Raises the gauge in slot `idx` to at least `v`.
    pub fn set_gauge(&mut self, idx: usize, v: f64) {
        match self.slot(idx) {
            Some(Cell::Gauge(g)) => *g = Some(g.map_or(v, |cur| cur.max(v))),
            slot @ None => *slot = Some(Cell::Gauge(Some(v))),
            other => panic!("slot {idx} is not a gauge: {other:?}"),
        }
    }

    /// Records `v` into the histogram in slot `idx` with the given bucket
    /// `edges`.
    pub fn observe(&mut self, idx: usize, edges: &[f64], v: f64) {
        let bucket = if v.is_nan() {
            edges.len()
        } else {
            edges.partition_point(|&e| e < v)
        };
        match self.slot(idx) {
            Some(Cell::Histogram { counts, total }) => {
                counts[bucket] += 1;
                *total += 1;
            }
            slot @ None => {
                let mut counts = vec![0u64; edges.len() + 1];
                counts[bucket] = 1;
                *slot = Some(Cell::Histogram { counts, total: 1 });
            }
            other => panic!("slot {idx} is not a histogram: {other:?}"),
        }
    }

    /// Merges `other` into `self`. Commutative and associative, so the
    /// totals are independent of merge order.
    ///
    /// # Panics
    ///
    /// Panics if a slot holds different metric kinds in the two shards
    /// (impossible for shards recorded through the global registry).
    pub fn merge(&mut self, other: &Shard) {
        for (idx, cell) in other.cells.iter().enumerate() {
            if let Some(cell) = cell {
                match self.slot(idx) {
                    Some(mine) => mine.merge(cell),
                    slot @ None => *slot = Some(cell.clone()),
                }
            }
        }
    }

    /// The cell in slot `idx`, if anything was recorded there.
    pub fn cell(&self, idx: usize) -> Option<&Cell> {
        self.cells.get(idx).and_then(Option::as_ref)
    }
}

struct Registry {
    defs: Vec<Def>,
    by_name: HashMap<&'static str, usize>,
    drained: Shard,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            defs: Vec::new(),
            by_name: HashMap::new(),
            drained: Shard::new(),
        })
    })
}

fn register(name: &'static str, kind: Kind, det: bool, edges: &'static [f64]) -> usize {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&idx) = reg.by_name.get(name) {
        let def = &reg.defs[idx];
        assert!(
            def.kind == kind && def.det == det && def.edges == edges,
            "metric {name:?} re-registered with a different shape"
        );
        return idx;
    }
    let idx = reg.defs.len();
    reg.defs.push(Def {
        name,
        kind,
        det,
        edges,
    });
    reg.by_name.insert(name, idx);
    idx
}

// Thread-local shard, drained into the global accumulator on thread exit.
struct LocalShard(Shard);

impl Drop for LocalShard {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
            reg.drained.merge(&self.0);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalShard> = const { RefCell::new(LocalShard(Shard::new())) };
}

fn with_local(f: impl FnOnce(&mut Shard)) {
    // During thread teardown the TLS slot may already be gone; drop the
    // record rather than panicking.
    let _ = LOCAL.try_with(|local| f(&mut local.borrow_mut().0));
}

/// A registered counter. Cheap to copy; register once per site (the
/// [`counter!`](crate::counter) macro caches the handle in a static).
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    idx: usize,
}

impl Counter {
    /// Registers (or looks up) the counter `name`. `det` marks whether
    /// its value is part of the deterministic snapshot contract.
    pub fn register(name: &'static str, det: bool) -> Self {
        Counter {
            idx: register(name, Kind::Counter, det, &[]),
        }
    }

    /// Adds `n`. No-op while metrics are disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !metrics_enabled() {
            return;
        }
        with_local(|s| s.add_counter(self.idx, n));
    }

    /// Adds 1. No-op while metrics are disabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A registered gauge (high-water mark).
#[derive(Debug, Clone, Copy)]
pub struct Gauge {
    idx: usize,
}

impl Gauge {
    /// Registers (or looks up) the gauge `name`.
    pub fn register(name: &'static str, det: bool) -> Self {
        Gauge {
            idx: register(name, Kind::Gauge, det, &[]),
        }
    }

    /// Raises the gauge to at least `v`. No-op while metrics are disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if !metrics_enabled() {
            return;
        }
        with_local(|s| s.set_gauge(self.idx, v));
    }
}

/// A registered fixed-bucket histogram.
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    idx: usize,
    edges: &'static [f64],
}

impl Histogram {
    /// Registers (or looks up) the histogram `name` with the given bucket
    /// `edges` (must be strictly increasing).
    pub fn register(name: &'static str, det: bool, edges: &'static [f64]) -> Self {
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?} edges must be strictly increasing"
        );
        Histogram {
            idx: register(name, Kind::Histogram, det, edges),
            edges,
        }
    }

    /// Records one observation. No-op while metrics are disabled.
    #[inline]
    pub fn observe(&self, v: f64) {
        if !metrics_enabled() {
            return;
        }
        with_local(|s| s.observe(self.idx, self.edges, v));
    }

    /// The bucket edges.
    pub fn edges(&self) -> &'static [f64] {
        self.edges
    }
}

/// One metric in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Registered name.
    pub name: String,
    /// Metric type.
    pub kind: Kind,
    /// `true` when the value is part of the deterministic contract
    /// (identical for every thread count); `false` for wall-clock and
    /// scheduling metrics.
    pub det: bool,
    /// The accumulated value.
    pub value: Value,
}

/// The exported value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Counter sum.
    Counter(u64),
    /// Gauge high-water mark (`None` when never set).
    Gauge(Option<f64>),
    /// Histogram buckets.
    Histogram {
        /// Bucket edges.
        edges: Vec<f64>,
        /// Per-bucket counts (`edges.len() + 1` entries, last = overflow).
        counts: Vec<u64>,
        /// Total observations.
        total: u64,
    },
}

impl Value {
    /// Estimates the `q`-quantile (`q` in `[0, 1]`) of a histogram by
    /// linear interpolation inside the bucket holding the target rank —
    /// the classic Prometheus-style estimate, good enough for latency
    /// gates without retaining raw samples.
    ///
    /// The underflow bucket interpolates from 0 to the first edge; an
    /// overflow hit reports the last edge (the estimate saturates —
    /// there is no upper bound to interpolate toward). Returns `None`
    /// for non-histograms and empty histograms.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let Value::Histogram {
            edges,
            counts,
            total,
        } = self
        else {
            return None;
        };
        if *total == 0 || edges.is_empty() {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * (*total as f64);
        let mut seen = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let before = seen as f64;
            seen += count;
            if (seen as f64) >= target {
                if i >= edges.len() {
                    // Overflow bucket: saturate at the last edge.
                    return Some(edges[edges.len() - 1]);
                }
                let lo = if i == 0 { 0.0 } else { edges[i - 1] };
                let hi = edges[i];
                let frac = ((target - before) / count as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
        }
        Some(edges[edges.len() - 1])
    }
}

/// A point-in-time export of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// All metrics, sorted by name.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// The entry named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The counter value of `name` (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name).map(|e| &e.value) {
            Some(Value::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// The snapshot restricted to deterministic metrics — the view that
    /// must be bit-identical for every thread count.
    pub fn deterministic_only(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self.entries.iter().filter(|e| e.det).cloned().collect(),
        }
    }

    /// Serializes the snapshot as a stable JSON document: metrics sorted
    /// by name, object keys sorted, floats in shortest-round-trip form.
    /// Equal snapshots produce byte-identical documents.
    pub fn to_json(&self) -> String {
        let metrics: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                let mut obj = BTreeMap::from([
                    ("name".to_string(), Json::Str(e.name.clone())),
                    ("kind".to_string(), Json::Str(e.kind.label().to_string())),
                    ("det".to_string(), Json::Bool(e.det)),
                ]);
                match &e.value {
                    Value::Counter(n) => {
                        obj.insert("value".to_string(), Json::Num(*n as f64));
                    }
                    Value::Gauge(g) => {
                        obj.insert("value".to_string(), g.map(Json::Num).unwrap_or(Json::Null));
                    }
                    Value::Histogram {
                        edges,
                        counts,
                        total,
                    } => {
                        obj.insert(
                            "edges".to_string(),
                            Json::Arr(edges.iter().map(|&x| Json::Num(x)).collect()),
                        );
                        obj.insert(
                            "counts".to_string(),
                            Json::Arr(counts.iter().map(|&n| Json::Num(n as f64)).collect()),
                        );
                        obj.insert("total".to_string(), Json::Num(*total as f64));
                    }
                }
                Json::Obj(obj)
            })
            .collect();
        Json::Obj(BTreeMap::from([
            ("version".to_string(), Json::Num(1.0)),
            ("metrics".to_string(), Json::Arr(metrics)),
        ]))
        .to_string()
    }

    /// Parses a snapshot previously written by [`MetricsSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a rendered parse/shape error.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("missing \"metrics\" array")?;
        let mut entries = Vec::with_capacity(metrics.len());
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric missing \"name\"")?
                .to_string();
            let det = m.get("det").and_then(Json::as_bool).unwrap_or(true);
            let kind_label = m
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("metric missing \"kind\"")?;
            let (kind, value) = match kind_label {
                "counter" => {
                    let n = m
                        .get("value")
                        .and_then(Json::as_u64)
                        .ok_or("counter missing integral \"value\"")?;
                    (Kind::Counter, Value::Counter(n))
                }
                "gauge" => {
                    let g = match m.get("value") {
                        Some(Json::Null) | None => None,
                        Some(v) => Some(v.as_f64().ok_or("gauge value must be a number")?),
                    };
                    (Kind::Gauge, Value::Gauge(g))
                }
                "histogram" => {
                    let edges = m
                        .get("edges")
                        .and_then(Json::as_arr)
                        .ok_or("histogram missing \"edges\"")?
                        .iter()
                        .map(|v| v.as_f64().ok_or("edge must be a number"))
                        .collect::<Result<Vec<f64>, _>>()?;
                    let counts = m
                        .get("counts")
                        .and_then(Json::as_arr)
                        .ok_or("histogram missing \"counts\"")?
                        .iter()
                        .map(|v| v.as_u64().ok_or("count must be integral"))
                        .collect::<Result<Vec<u64>, _>>()?;
                    let total = m
                        .get("total")
                        .and_then(Json::as_u64)
                        .ok_or("histogram missing \"total\"")?;
                    if counts.len() != edges.len() + 1 {
                        return Err(format!(
                            "histogram {name:?}: {} counts for {} edges",
                            counts.len(),
                            edges.len()
                        ));
                    }
                    (
                        Kind::Histogram,
                        Value::Histogram {
                            edges,
                            counts,
                            total,
                        },
                    )
                }
                other => return Err(format!("unknown metric kind {other:?}")),
            };
            entries.push(MetricEntry {
                name,
                kind,
                det,
                value,
            });
        }
        Ok(MetricsSnapshot { entries })
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            let det = if e.det { "" } else { "  [non-det]" };
            match &e.value {
                Value::Counter(n) => writeln!(f, "{:<40} {n}{det}", e.name)?,
                Value::Gauge(Some(g)) => writeln!(f, "{:<40} {}{det}", e.name, format_f64(*g))?,
                Value::Gauge(None) => writeln!(f, "{:<40} -{det}", e.name)?,
                Value::Histogram { total, .. } => {
                    writeln!(f, "{:<40} {total} observation(s){det}", e.name)?
                }
            }
        }
        Ok(())
    }
}

/// Drains the calling thread's shard into the global accumulator.
///
/// A thread's shard also drains when the thread exits, but that happens in
/// a thread-local destructor, which [`std::thread::scope`] does not wait
/// for: a snapshot taken right after a scope can miss a worker's records.
/// Scoped workers therefore call this as their last step.
pub fn flush() {
    with_local(|s| {
        if !s.is_empty() {
            let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
            let taken = std::mem::take(s);
            reg.drained.merge(&taken);
        }
    });
}

/// Drains the calling thread's shard into the global accumulator and
/// exports every registered metric. Worker threads spawned by the
/// campaign executor flush their shards before their scope ends, so
/// their records are in by the time the campaign layer snapshots.
pub fn snapshot() -> MetricsSnapshot {
    flush();
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut entries: Vec<MetricEntry> = reg
        .defs
        .iter()
        .enumerate()
        .map(|(idx, def)| {
            let value = match (def.kind, reg.drained.cell(idx)) {
                (Kind::Counter, Some(Cell::Counter(n))) => Value::Counter(*n),
                (Kind::Counter, _) => Value::Counter(0),
                (Kind::Gauge, Some(Cell::Gauge(g))) => Value::Gauge(*g),
                (Kind::Gauge, _) => Value::Gauge(None),
                (Kind::Histogram, Some(Cell::Histogram { counts, total })) => Value::Histogram {
                    edges: def.edges.to_vec(),
                    counts: counts.clone(),
                    total: *total,
                },
                (Kind::Histogram, _) => Value::Histogram {
                    edges: def.edges.to_vec(),
                    counts: vec![0; def.edges.len() + 1],
                    total: 0,
                },
            };
            MetricEntry {
                name: def.name.to_string(),
                kind: def.kind,
                det: def.det,
                value,
            }
        })
        .collect();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot { entries }
}

/// Clears the global accumulator and the calling thread's shard.
/// Registrations survive (handles stay valid). Shards of other *live*
/// threads are untouched — campaign workers are scoped and dead between
/// campaigns, so this resets cleanly between runs.
pub fn reset() {
    with_local(|s| *s = Shard::new());
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.drained = Shard::new();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_edges() {
        let edges = [1.0, 10.0, 100.0];
        let mut shard = Shard::new();
        // On-edge values land in the bucket they close: v <= edges[i].
        for (v, expect_bucket) in [
            (0.5, 0),
            (1.0, 0),
            (1.0000001, 1),
            (10.0, 1),
            (99.9, 2),
            (100.0, 2),
            (100.1, 3),
            (f64::NAN, 3),
        ] {
            shard.observe(0, &edges, v);
            let Some(Cell::Histogram { counts, .. }) = shard.cell(0) else {
                panic!("no histogram cell");
            };
            assert!(
                counts[expect_bucket] > 0,
                "value {v} should land in bucket {expect_bucket}: {counts:?}"
            );
        }
        let Some(Cell::Histogram { counts, total }) = shard.cell(0) else {
            panic!("no histogram cell");
        };
        assert_eq!(*total, 8);
        assert_eq!(counts.iter().sum::<u64>(), 8);
        assert_eq!(counts, &vec![2, 2, 2, 2]);
    }

    #[test]
    fn shard_merge_is_commutative_and_associative() {
        let edges = [1.0, 2.0];
        let shard = |seed: u64| {
            let mut s = Shard::new();
            s.add_counter(0, seed);
            s.set_gauge(1, seed as f64);
            s.observe(2, &edges, seed as f64 / 2.0);
            s
        };
        let (a, b, c) = (shard(1), shard(2), shard(3));
        // (a + b) + c == (c + b) + a == a + (b + c)
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut cb_a = c.clone();
        cb_a.merge(&b);
        cb_a.merge(&a);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, cb_a);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.cell(0), Some(&Cell::Counter(6)));
        assert_eq!(ab_c.cell(1), Some(&Cell::Gauge(Some(3.0))));
    }

    #[test]
    fn merge_into_empty_adopts_cells() {
        let mut a = Shard::new();
        let mut b = Shard::new();
        b.add_counter(3, 7);
        a.merge(&b);
        assert_eq!(a.cell(3), Some(&Cell::Counter(7)));
        assert!(a.cell(0).is_none());
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn merge_kind_mismatch_panics() {
        let mut a = Shard::new();
        a.add_counter(0, 1);
        let mut b = Shard::new();
        b.set_gauge(0, 1.0);
        a.merge(&b);
    }

    #[test]
    fn snapshot_json_round_trip() {
        let snap = MetricsSnapshot {
            entries: vec![
                MetricEntry {
                    name: "a.counter".into(),
                    kind: Kind::Counter,
                    det: true,
                    value: Value::Counter(42),
                },
                MetricEntry {
                    name: "b.gauge".into(),
                    kind: Kind::Gauge,
                    det: false,
                    value: Value::Gauge(Some(2.5e-7)),
                },
                MetricEntry {
                    name: "b.gauge.unset".into(),
                    kind: Kind::Gauge,
                    det: true,
                    value: Value::Gauge(None),
                },
                MetricEntry {
                    name: "c.hist".into(),
                    kind: Kind::Histogram,
                    det: true,
                    value: Value::Histogram {
                        edges: vec![1e-9, 1e-6, 1e-3],
                        counts: vec![0, 5, 2, 1],
                        total: 8,
                    },
                },
            ],
        };
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("round trip parses");
        assert_eq!(back, snap);
        // Serialization is stable: re-serializing gives identical bytes.
        assert_eq!(back.to_json(), json);
        // The deterministic view drops only the non-det gauge.
        let det = snap.deterministic_only();
        assert_eq!(det.entries.len(), 3);
        assert!(det.get("b.gauge").is_none());
        assert_eq!(det.counter("a.counter"), 42);
    }

    #[test]
    fn histogram_quantile_interpolates_within_buckets() {
        // 10 observations uniformly credited to the (10, 100] bucket.
        let v = Value::Histogram {
            edges: vec![10.0, 100.0, 1000.0],
            counts: vec![0, 10, 0, 0],
            total: 10,
        };
        assert_eq!(v.quantile(0.0), Some(10.0));
        assert_eq!(v.quantile(0.5), Some(55.0));
        assert_eq!(v.quantile(1.0), Some(100.0));

        // Mass split across buckets: rank walks the cumulative counts.
        let v = Value::Histogram {
            edges: vec![1.0, 2.0, 4.0],
            counts: vec![2, 2, 4, 0],
            total: 8,
        };
        // target 4 → second bucket's upper edge.
        assert_eq!(v.quantile(0.5), Some(2.0));
        // target 2 → exactly the underflow bucket's edge.
        assert_eq!(v.quantile(0.25), Some(1.0));
        // target 7.2 → 3.2/4 into the (2, 4] bucket.
        let q = v.quantile(0.9).expect("quantile");
        assert!((q - 3.6).abs() < 1e-12, "{q}");

        // Overflow hits saturate at the last edge.
        let v = Value::Histogram {
            edges: vec![1.0, 2.0],
            counts: vec![0, 0, 5],
            total: 5,
        };
        assert_eq!(v.quantile(0.99), Some(2.0));

        // Non-histograms and empty histograms have no quantile.
        assert_eq!(Value::Counter(3).quantile(0.5), None);
        let empty = Value::Histogram {
            edges: vec![1.0],
            counts: vec![0, 0],
            total: 0,
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn from_json_rejects_malformed_snapshots() {
        assert!(MetricsSnapshot::from_json("{}").is_err());
        assert!(MetricsSnapshot::from_json("not json").is_err());
        let bad_counts = r#"{"metrics":[{"name":"h","kind":"histogram",
            "edges":[1],"counts":[1],"total":1}],"version":1}"#;
        assert!(MetricsSnapshot::from_json(bad_counts).is_err());
        let bad_kind = r#"{"metrics":[{"name":"x","kind":"meter","value":1}],"version":1}"#;
        assert!(MetricsSnapshot::from_json(bad_kind).is_err());
    }
}
