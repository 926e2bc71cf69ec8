//! The result line and the metric catalogue.

use crate::stats::{median, tail_percentile, MIN_BEYOND};
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in the order the traced run
/// prints them. A workload that does not exercise a layer reports 0 for
/// that layer's metrics; see the README for which workload moves which.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("reactor.overhead_us_p50", "us"),
    ("reactor.frames_per_tick", "frames/tick"),
    ("service.parse_us_p50", "us"),
    ("service.render_us_p50", "us"),
    ("service.handle_us_p50", "us"),
    ("service.result_hit_ratio", "ratio"),
    ("service.result_lookups", "count"),
    ("service.spec_canonical_us_p50", "us"),
    ("service.update_rtt_ms_p50", "ms"),
    ("service.updates", "count"),
    ("service.spec_apply_delta_us_p50", "us"),
    ("service.instances_patched", "count"),
    ("service.instances_patched_per_update", "instances/update"),
    ("service.instance_hits_per_patch", "hits/instance"),
    ("service.admit_rtt_ms_p50", "ms"),
    ("service.instance_hit_ratio", "ratio"),
    ("service.instance_lookups", "count"),
    ("service.compile_stage_mean_us", "us"),
    ("service.lp_stage_mean_us", "us"),
    ("net.model_build_ms_p50", "ms"),
    ("core.compiles", "count"),
    ("core.compile_ms_p50", "ms"),
    ("core.compile_ms_total", "ms"),
    ("core.query_ms_p50", "ms"),
    ("core.delta_units", "count"),
    ("core.delta_units_reused_ratio", "ratio"),
    ("core.delta_full_recompiles", "count"),
    ("core.colgen_rounds", "count"),
    ("core.colgen_columns", "count"),
    ("sets.pool_columns_mean", "columns"),
    ("sets.price_exact_calls", "count"),
    ("sets.price_exact_ms", "ms"),
    ("sets.price_exact_ms_per_call", "ms"),
    ("sets.price_heuristic_ms", "ms"),
    ("sets.price_heuristic_column_share", "ratio"),
    ("lp.queries", "count"),
    ("lp.pivots_per_query", "pivots"),
    ("lp.pivots", "count"),
    ("lp.master_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every answer matched its reference.
    pub correct: bool,
    /// Timed ops attempted.
    pub attempted: usize,
    /// Timed ops answered with an error, refused, unanswered or wrong.
    pub failed: usize,
    /// The metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Sets the end-to-end metrics, and notes the tail latencies the run
    /// has enough samples for and the failed share: those are printed but
    /// not listed, because every listed metric must be reported, non-zero,
    /// on every workload.
    pub fn end_to_end(&mut self, setup_s: f64, ops_per_s: f64, latencies_ns: &[f64], rss_mb: f64) {
        let mut sorted = latencies_ns.to_vec();
        sorted.sort_by(f64::total_cmp);
        for (label, p) in [("latency_p90_ms", 90.0), ("latency_p99_ms", 99.0)] {
            match tail_percentile(&sorted, p) {
                Some(v) => self.note(format!(
                    "{label} {:.6} ms ({} samples)",
                    v / 1e6,
                    sorted.len()
                )),
                None => self.note(format!(
                    "{label} not reported: fewer than {MIN_BEYOND} of {} samples beyond it",
                    sorted.len()
                )),
            }
        }
        self.note(format!(
            "failed_share {} ({} of {})",
            self.failed as f64 / self.attempted as f64,
            self.failed,
            self.attempted
        ));
        self.metric("setup_s", setup_s, "s");
        self.metric("ops_per_s", ops_per_s, "1/s");
        self.metric("latency_p50_ms", median(latencies_ns) / 1e6, "ms");
        self.metric("peak_rss_mb", rss_mb, "MiB");
    }

    /// Sets the per-layer metrics from `measured`, reporting 0 for the
    /// layers this workload does not exercise.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a benchmark bug).
    pub fn per_layer(&mut self, measured: &BTreeMap<&'static str, f64>) {
        for name in measured.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "per-layer metric {name} is not in the catalogue"
            );
        }
        for &(name, unit) in PER_LAYER {
            let value = measured.get(name).copied().unwrap_or(0.0);
            self.metric(name, value, unit);
        }
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        for m in &self.metrics {
            let mut v = Map::new();
            v.insert("value".into(), Value::Number(m.value));
            v.insert("unit".into(), Value::String(m.unit.into()));
            metrics.insert(m.name.into(), Value::Object(v));
        }
        let mut out = Map::new();
        out.insert("correct".into(), Value::Bool(self.correct));
        out.insert("attempted".into(), Value::Number(self.attempted as f64));
        out.insert("failed".into(), Value::Number(self.failed as f64));
        out.insert("metrics".into(), Value::Object(metrics));
        Value::Object(out).to_string()
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics a run prints are the ones `BENCHMARK.json` declares.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let declared: Value = serde_json::from_str(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            declared[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let name = m["name"].as_str().unwrap().to_string();
                    (name, m["unit"].as_str().unwrap().to_string())
                })
                .collect()
        };
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.end_to_end(1.0, 1.0, &[1.0], 1.0);
        let printed: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        let mut want = listed("end_to_end");
        want.sort();
        let mut got = printed;
        got.sort();
        assert_eq!(got, want);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, listed("per_layer"));
    }
}
