//! Folds a `DSO_TRACE` JSONL stream into self time per span name and
//! folded stacks (`root;child;leaf <self_us>`, the input format of common
//! flame-graph tools).
//!
//! Only the documented trace format is read: `enter` events carry `id`,
//! `name`, an optional `parent` and `t_mono_us`; `exit` events carry `id`
//! and `t_mono_us`. A span's parent may live on another thread (work
//! handed to a pool is re-parented explicitly), so children are found by
//! `parent` link, never by thread. A span's self time is its duration
//! minus the part of its interval that the union of its children's
//! intervals covers; parallel children overlapping each other are
//! counted once.

use dso_obs::Json;
use std::collections::{BTreeMap, HashMap};

/// One span reconstructed from its enter/exit pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within one trace.
    pub id: u64,
    /// Span name.
    pub name: String,
    /// The span that caused it, possibly on another thread.
    pub parent: Option<u64>,
    /// Enter time, monotonic microseconds.
    pub start_us: u64,
    /// Exit time; spans never closed end at the last timestamp seen.
    pub end_us: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, microseconds.
    pub total_us: u64,
    /// Summed self time, microseconds.
    pub self_us: u64,
}

/// The folded trace.
#[derive(Debug, Clone, Default)]
pub struct Fold {
    /// Every span, in enter order.
    pub spans: Vec<Span>,
    /// Totals per span name.
    pub by_name: BTreeMap<String, NameTotals>,
    /// Self time per root-to-span name path, joined with `;`.
    pub stacks: BTreeMap<String, u64>,
}

impl Fold {
    /// Totals for `name` (zeros when the trace holds none).
    pub fn totals(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// The folded-stack text, one `path value` line per stack.
    pub fn folded_text(&self) -> String {
        self.stacks
            .iter()
            .map(|(path, us)| format!("{path} {us}\n"))
            .collect()
    }
}

/// Parses a trace and reconstructs its spans. Lines that are not span
/// events (`note`s, blank lines) are skipped.
///
/// # Errors
///
/// A line that is not JSON, or an `enter` without `id`/`name`/`t_mono_us`.
pub fn parse(text: &str) -> Result<Vec<Span>, String> {
    let mut spans: Vec<Span> = Vec::new();
    let mut open: HashMap<u64, usize> = HashMap::new();
    let mut last_us = 0u64;
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("trace line {}: {e}", n + 1))?;
        let field = |key: &str| doc.get(key).and_then(Json::as_u64);
        if let Some(t) = field("t_mono_us") {
            last_us = last_us.max(t);
        }
        match doc.get("ev").and_then(Json::as_str) {
            Some("enter") => {
                let missing = || format!("trace line {}: enter without id/name/time", n + 1);
                let id = field("id").ok_or_else(missing)?;
                let name = doc.get("name").and_then(Json::as_str).ok_or_else(missing)?;
                let start_us = field("t_mono_us").ok_or_else(missing)?;
                open.insert(id, spans.len());
                spans.push(Span {
                    id,
                    name: name.to_string(),
                    parent: field("parent"),
                    start_us,
                    end_us: u64::MAX,
                });
            }
            Some("exit") => {
                if let (Some(id), Some(t)) = (field("id"), field("t_mono_us")) {
                    if let Some(i) = open.remove(&id) {
                        spans[i].end_us = t;
                    }
                }
            }
            _ => {}
        }
    }
    for i in open.into_values() {
        spans[i].end_us = last_us.max(spans[i].start_us);
    }
    Ok(spans)
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Folds parsed spans into per-name totals and folded stacks.
pub fn fold(spans: Vec<Span>) -> Fold {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in &spans {
        if let Some(p) = s.parent.filter(|p| index.contains_key(p)) {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let path_of = |mut i: usize| {
        let mut names = vec![spans[i].name.as_str()];
        // Bounded walk: a corrupt trace with a parent cycle still ends.
        for _ in 0..spans.len() {
            match spans[i].parent.and_then(|p| index.get(&p)) {
                Some(&p) => {
                    names.push(spans[p].name.as_str());
                    i = p;
                }
                None => break,
            }
        }
        names.reverse();
        names.join(";")
    };
    let mut by_name: BTreeMap<String, NameTotals> = BTreeMap::new();
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let kids = children
            .get_mut(&s.id)
            .map_or(0, |k| covered(k, s.start_us, s.end_us));
        let self_us = s.dur_us() - kids;
        let t = by_name.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_us += s.dur_us();
        t.self_us += self_us;
        *stacks.entry(path_of(i)).or_default() += self_us;
    }
    Fold {
        spans,
        by_name,
        stacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(id: u64, name: &str, parent: Option<u64>, t: u64, thread: u32) -> String {
        let parent = parent.map_or(String::new(), |p| format!(r#","parent":{p}"#));
        format!(
            r#"{{"ev":"enter","id":{id},"level":"coarse","name":"{name}"{parent},"t_mono_us":{t},"t_wall_ms":0,"thread":"ThreadId({thread})"}}"#
        )
    }

    fn exit(id: u64, t: u64) -> String {
        format!(r#"{{"dur_us":0,"ev":"exit","id":{id},"t_mono_us":{t}}}"#)
    }

    #[test]
    fn nested_and_reparented_self_time() {
        // campaign [0,100] on thread 1 nests point [10,40]; two chunks on
        // worker threads 2 and 3 are re-parented to the campaign and
        // overlap each other and the point; a transient nests in chunk 2.
        let trace = [
            enter(1, "campaign", None, 0, 1),
            enter(2, "point", Some(1), 10, 1),
            enter(3, "chunk", Some(1), 30, 2),
            enter(4, "chunk", Some(1), 35, 3),
            enter(5, "transient", Some(3), 40, 2),
            r#"{"ev":"note","key":"ops","span":5,"t_mono_us":41,"value":3}"#.to_string(),
            exit(2, 40),
            exit(5, 50),
            exit(4, 60),
            exit(3, 70),
            exit(1, 100),
        ]
        .join("\n");
        let f = fold(parse(&trace).expect("parse"));
        // Children of the campaign cover [10,70]: self = 100 - 60.
        assert_eq!(f.totals("campaign").self_us, 40);
        assert_eq!(f.totals("point").self_us, 30);
        // Chunk 3 [30,70] minus transient [40,50]; chunk 4 has no children.
        assert_eq!(f.totals("chunk").self_us, 30 + 25);
        assert_eq!(f.totals("chunk").count, 2);
        assert_eq!(f.totals("chunk").total_us, 40 + 25);
        assert_eq!(f.totals("transient").self_us, 10);
        assert_eq!(f.stacks.get("campaign;chunk;transient"), Some(&10));
        assert_eq!(f.stacks.get("campaign;chunk"), Some(&55));
        assert_eq!(f.stacks.get("campaign"), Some(&40));
        // Self time sums to the root's duration when children nest inside.
        let total: u64 = f.stacks.values().sum();
        assert_eq!(total, 40 + 30 + 55 + 10);
    }

    #[test]
    fn unclosed_and_orphan_spans() {
        let trace = [
            enter(7, "orphan", Some(99), 5, 1),
            enter(8, "open", None, 10, 1),
            exit(7, 20),
            r#"{"dur_us":0,"ev":"exit","id":42,"t_mono_us":30}"#.to_string(),
        ]
        .join("\n");
        let f = fold(parse(&trace).expect("parse"));
        // The orphan's parent is not in the trace: it becomes a root.
        assert_eq!(f.stacks.get("orphan"), Some(&15));
        // The unclosed span ends at the last timestamp seen.
        assert_eq!(f.totals("open").total_us, 20);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("not json").is_err());
        assert!(parse(r#"{"ev":"enter","name":"x"}"#).is_err());
    }
}
