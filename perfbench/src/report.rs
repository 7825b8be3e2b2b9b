//! Metric catalogue, the result line and the per-run record.
//!
//! The metric names, units and directions come from `BENCHMARK.json`
//! (compiled in), so the printed metric set cannot drift from the
//! declared one: an untraced run prints every `end_to_end` metric, a
//! traced run every `per_layer` metric, each with its declared unit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use xtuml_obs::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const SPEC_JSON: &str = include_str!("../spec.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
}

fn decls(section: &str) -> Vec<MetricDecl> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists the metric section")
        .iter()
        .map(|m| MetricDecl {
            name: m.get("name").and_then(Value::as_str).expect("name").into(),
            unit: m.get("unit").and_then(Value::as_str).expect("unit").into(),
        })
        .collect()
}

/// The declared end-to-end metrics.
pub fn end_to_end() -> Vec<MetricDecl> {
    decls("end_to_end")
}

/// The declared per-layer metrics.
pub fn per_layer() -> Vec<MetricDecl> {
    decls("per_layer")
}

/// The benchmark's fixed settings (`perfbench/spec.json`).
pub fn spec() -> Value {
    json::parse(SPEC_JSON).expect("spec.json is valid JSON")
}

/// A number from `spec.json` at `path` (keys separated by `/`).
pub fn spec_num(path: &str) -> f64 {
    let doc = spec();
    let mut v = &doc;
    for key in path.split('/') {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("spec.json lacks `{path}`"));
    }
    v.as_num()
        .unwrap_or_else(|| panic!("spec.json `{path}` is not a number"))
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, partitions or requests).
    pub attempted: u64,
    /// Operations that failed, mismatched their reference or were refused.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: BTreeMap<String, f64>,
    /// Extra fields for the human-readable record.
    pub notes: BTreeMap<String, String>,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Adds to a metric value.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.metrics.entry(name.to_owned()).or_insert(0.0) += value;
    }

    /// Records a free-form note for the run record.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.insert(key.to_owned(), value.to_string());
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed share of attempted operations.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// of `decls` (missing ones read 0: the layer did no work).
pub fn result_line(out: &Outcome, decls: &[MetricDecl]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed
    );
    for (i, d) in decls.iter().enumerate() {
        let v = out.metrics.get(&d.name).copied().unwrap_or(0.0);
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            d.name,
            num(v),
            d.unit
        );
    }
    s.push_str("}}");
    s
}

/// Host and build facts every record carries: numbers are comparable
/// only between records with the same host facts.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Measured seconds requested.
    pub seconds: f64,
}

/// One JSON record of the run: host facts, every metric and the notes.
pub fn record(meta: &RunMeta, out: &Outcome) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let par = std::thread::available_parallelism().map_or(0, usize::from);
    let mut s = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"seconds\": {}, \
         \"available_parallelism\": {par}, \"git_commit\": \"{}\", \"source_sha256\": \"{}\", \
         \"rustc\": \"{}\", \"pinned\": \"{}\", \"attempted\": {}, \"failed\": {}, \"fail_frac\": {}",
        meta.workload,
        meta.seed,
        meta.traced,
        meta.seconds,
        json::escape(&env("PERFBENCH_COMMIT")),
        json::escape(&env("PERFBENCH_SOURCE")),
        json::escape(&env("PERFBENCH_RUSTC")),
        json::escape(&env("PERFBENCH_PINNED")),
        out.attempted,
        out.failed,
        num(out.fail_frac())
    );
    s.push_str(", \"metrics\": {");
    for (i, (k, v)) in out.metrics.iter().enumerate() {
        let _ = write!(s, "{}\"{k}\": {}", if i > 0 { ", " } else { "" }, num(*v));
    }
    s.push_str("}, \"notes\": {");
    for (i, (k, v)) in out.notes.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{k}\": \"{}\"",
            if i > 0 { ", " } else { "" },
            json::escape(v)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_the_declared_contract() {
        let e2e = end_to_end();
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        let layer = per_layer();
        let spec = spec();
        let attribution = spec.get("attribution").expect("attribution table");
        for d in &layer {
            let row = attribution
                .get(&d.name)
                .unwrap_or_else(|| panic!("no attribution for {}", d.name));
            let moves = row.get("moves").and_then(Value::as_str).expect("moves");
            assert!(
                e2e.iter().any(|e| e.name == moves),
                "{} moves {moves}",
                d.name
            );
            assert!(row.get("workload").and_then(Value::as_str).is_some());
        }
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut out = Outcome::default();
        out.check(true);
        out.set("setup_s", 0.5);
        let line = result_line(&out, &end_to_end());
        let doc = json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = doc.get("metrics").expect("metrics");
        for d in end_to_end() {
            let m = metrics.get(&d.name).expect("declared metric present");
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit.as_str()));
        }
    }
}
