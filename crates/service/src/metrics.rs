//! Lock-free service metrics: request counters, cache hit/miss counts, and
//! coarse latency histograms for the two expensive stages (building a
//! compiled instance and LP solving).
//!
//! Everything is plain atomics so the hot path never takes a lock for
//! observability. Histograms bucket by `log2(microseconds)` — 32 buckets
//! cover 1 µs to ~1 hour, which is plenty of resolution for "is the cache
//! working" questions.

use awb_core::DeltaReuse;
use serde_json::{Map, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 latency buckets (bucket `i` ≈ `[2^i, 2^(i+1))` µs).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A log2-bucketed latency histogram.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - us.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// JSON rendering: count, mean, and the non-empty buckets as
    /// `{"le_us": upper_bound, "count": n}` rows.
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("count".into(), Value::Number(self.count() as f64));
        m.insert("mean_us".into(), Value::Number(self.mean_us()));
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| {
                    let mut row = Map::new();
                    row.insert("le_us".into(), Value::Number((1u64 << i) as f64));
                    row.insert("count".into(), Value::Number(n as f64));
                    Value::Object(row)
                })
            })
            .collect();
        m.insert("buckets".into(), Value::Array(buckets));
        Value::Object(m)
    }
}

/// All service counters, shared across worker threads.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests that produced an `ok` response.
    pub requests_ok: AtomicU64,
    /// Requests that produced a structured error response.
    pub requests_error: AtomicU64,
    /// Requests rejected with `overloaded` before entering the queue.
    pub rejected_overload: AtomicU64,
    /// Requests that exceeded their deadline.
    pub deadline_exceeded: AtomicU64,
    /// Instance-cache hits (compiled instance reused).
    pub sets_cache_hits: AtomicU64,
    /// Instance-cache misses that built the instance (compile or patch).
    pub sets_cache_misses: AtomicU64,
    /// Instance builds avoided by coalescing behind a concurrent leader.
    pub coalesced: AtomicU64,
    /// Result-cache hits (full LP answer reused).
    pub result_cache_hits: AtomicU64,
    /// Result-cache misses.
    pub result_cache_misses: AtomicU64,
    /// `update` requests that registered a patched topology (result-cache
    /// replays of the same update are counted as result hits, not here).
    pub updates: AtomicU64,
    /// Instance-cache misses on an updated topology answered by patching
    /// the parent topology's cached instance instead of compiling.
    pub instances_patched: AtomicU64,
    /// Per-component reuse totals across those patches: components
    /// structurally reused without rehashing.
    pub delta_units_reused: AtomicU64,
    /// Components re-materialized from the patch's unit cache by content
    /// hash.
    pub delta_unit_cache_hits: AtomicU64,
    /// Components actually recompiled (the only exponential work a patch
    /// pays).
    pub delta_units_recompiled: AtomicU64,
    /// Latency of building an instance on an instance-cache miss, whether
    /// by compiling or by patching.
    pub enumeration_latency: Histogram,
    /// Latency of LP solves (result-cache misses only).
    pub lp_latency: Histogram,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one instance built by patching, with its per-component reuse.
    pub fn record_patch(&self, reuse: &DeltaReuse) {
        let add = |c: &AtomicU64, n: usize| c.fetch_add(n as u64, Ordering::Relaxed);
        Metrics::bump(&self.instances_patched);
        add(&self.delta_units_reused, reuse.units_reused);
        add(&self.delta_unit_cache_hits, reuse.unit_cache_hits);
        add(&self.delta_units_recompiled, reuse.units_compiled);
    }

    /// Snapshot as a JSON object (the `stats` response payload).
    pub fn to_value(&self) -> Value {
        let n = |c: &AtomicU64| Value::Number(c.load(Ordering::Relaxed) as f64);
        let mut m = Map::new();
        m.insert("requests_ok".into(), n(&self.requests_ok));
        m.insert("requests_error".into(), n(&self.requests_error));
        m.insert("rejected_overload".into(), n(&self.rejected_overload));
        m.insert("deadline_exceeded".into(), n(&self.deadline_exceeded));
        m.insert("sets_cache_hits".into(), n(&self.sets_cache_hits));
        m.insert("sets_cache_misses".into(), n(&self.sets_cache_misses));
        m.insert("coalesced".into(), n(&self.coalesced));
        m.insert("result_cache_hits".into(), n(&self.result_cache_hits));
        m.insert("result_cache_misses".into(), n(&self.result_cache_misses));
        m.insert("updates".into(), n(&self.updates));
        m.insert("instances_patched".into(), n(&self.instances_patched));
        m.insert("delta_units_reused".into(), n(&self.delta_units_reused));
        m.insert(
            "delta_unit_cache_hits".into(),
            n(&self.delta_unit_cache_hits),
        );
        m.insert(
            "delta_units_recompiled".into(),
            n(&self.delta_units_recompiled),
        );
        m.insert(
            "enumeration_latency".into(),
            self.enumeration_latency.to_value(),
        );
        m.insert("lp_latency".into(), self.lp_latency.to_value());
        Value::Object(m)
    }

    /// One-line summary for the shutdown log.
    pub fn summary(&self) -> String {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        format!(
            "ok={} err={} overloaded={} deadline={} sets_cache={}/{} coalesced={} \
             result_cache={}/{} updates={} patched={} enum_mean={:.0}us lp_mean={:.0}us",
            g(&self.requests_ok),
            g(&self.requests_error),
            g(&self.rejected_overload),
            g(&self.deadline_exceeded),
            g(&self.sets_cache_hits),
            g(&self.sets_cache_hits) + g(&self.sets_cache_misses),
            g(&self.coalesced),
            g(&self.result_cache_hits),
            g(&self.result_cache_hits) + g(&self.result_cache_misses),
            g(&self.updates),
            g(&self.instances_patched),
            self.enumeration_latency.mean_us(),
            self.lp_latency.mean_us(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_microseconds() {
        let h = Histogram::default();
        h.record(Duration::from_micros(1)); // bucket 1
        h.record(Duration::from_micros(1)); // bucket 1
        h.record(Duration::from_micros(1000)); // bucket 10
        assert_eq!(h.count(), 3);
        assert!((h.mean_us() - 334.0).abs() < 1.0);
        let v = h.to_value();
        let buckets = v.get("buckets").and_then(Value::as_array).unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].get("le_us").and_then(Value::as_u64), Some(2));
        assert_eq!(buckets[0].get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(buckets[1].get("le_us").and_then(Value::as_u64), Some(1024));
    }

    #[test]
    fn zero_duration_lands_in_bucket_zero() {
        let h = Histogram::default();
        h.record(Duration::ZERO);
        let v = h.to_value();
        let buckets = v.get("buckets").and_then(Value::as_array).unwrap();
        assert_eq!(buckets[0].get("le_us").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn snapshot_includes_every_counter() {
        let m = Metrics::new();
        Metrics::bump(&m.requests_ok);
        Metrics::bump(&m.sets_cache_hits);
        let v = m.to_value();
        assert_eq!(v.get("requests_ok").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("sets_cache_hits").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("rejected_overload").and_then(Value::as_u64), Some(0));
        assert!(m.summary().contains("ok=1"));
    }
}
