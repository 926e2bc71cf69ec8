//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! # Requests
//!
//! One JSON object per line:
//!
//! ```json
//! {"query": "available_bandwidth",
//!  "id": 1,
//!  "topology": { ...spec... } | "<16-hex-digit registered hash>",
//!  "background": [{"path": [0, 1], "demand_mbps": 2.0}],
//!  "path": [2, 3],
//!  "demand_mbps": 1.5,
//!  "max_set_size": 2,
//!  "deadline_ms": 250}
//! ```
//!
//! `query` is one of `available_bandwidth`, `bounds`, `estimate`, `admit`,
//! `admit_batch`, `stats`, `register_topology`, `update`. `id` (any JSON
//! value) is echoed back. `topology` accepts either an inline spec (see
//! [`crate::spec`]) or the hash string returned by `register_topology`.
//! `demand_mbps` is only meaningful for `admit`; `max_set_size` caps the
//! enumerated set size (`bounds` requires it for the lower bound,
//! default 2).
//!
//! `update` patches a topology in place instead of re-registering it from
//! scratch:
//!
//! ```json
//! {"query": "update", "topology": "<hash>",
//!  "delta": {"moved_nodes": [[3, 120.0, 45.5]],
//!            "rate_changed_links": [[1, [54, 36]]]}}
//! ```
//!
//! The server registers the patched topology under its new content hash
//! (returned as `topology_hash`) and touches no compiled instance. The
//! first query against the new hash that misses the instance cache patches
//! the old topology's cached instance for the same link universe,
//! recompiling only the conflict components the delta touched. The reply's
//! `instances_patched` and `reuse` fields are kept for compatibility and
//! read 0; the `stats` counters of the same names count the lazy patches.
//! See [`crate::spec::DeltaSpec`] for the delta vocabulary.
//!
//! `admit_batch` carries a whole flow-arrival sequence in one request:
//!
//! ```json
//! {"query": "admit_batch", "topology": "<hash>",
//!  "background": [{"path": [0], "demand_mbps": 1.0}],
//!  "arrivals": [{"path": [1, 2], "demand_mbps": 2.0},
//!               {"path": [2, 3], "demand_mbps": 4.0}]}
//! ```
//!
//! Arrivals are evaluated in order against the background plus every
//! *previously admitted* arrival — exactly the answers a client would get
//! issuing the equivalent `admit` sequence one request at a time, but
//! solved in a single warm session sweep on the server.
//!
//! # Responses
//!
//! ```json
//! {"status": "ok", "id": 1, "query": "available_bandwidth",
//!  "result": { ... }, "cache": "hit", "elapsed_us": 42}
//! {"status": "error", "id": 1,
//!  "error": {"code": "overloaded", "message": "queue full (capacity 64)"}}
//! ```

use crate::spec::{DeltaSpec, SpecError, TopologySpec};
use serde_json::{Map, Value};

/// Structured error codes a response can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON or an invalid field.
    BadRequest,
    /// The request queue is full; retry with backoff.
    Overloaded,
    /// The server is shutting down.
    ShuttingDown,
    /// The request's `deadline_ms` elapsed before completion.
    DeadlineExceeded,
    /// A single request frame exceeded the server's byte cap.
    FrameTooLarge,
    /// `topology` referenced a hash that was never registered.
    UnknownTopology,
    /// The background flows alone are infeasible.
    InfeasibleBackground,
    /// Any other solver-side failure.
    Internal,
}

impl ErrorCode {
    /// The wire form of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::UnknownTopology => "unknown_topology",
            ErrorCode::InfeasibleBackground => "infeasible_background",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A parse- or service-level failure, rendered as an error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServiceError {
    /// Creates an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ServiceError {
        ServiceError {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for [`ErrorCode::BadRequest`].
    pub fn bad_request(message: impl Into<String>) -> ServiceError {
        ServiceError::new(ErrorCode::BadRequest, message)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ServiceError {}

impl From<SpecError> for ServiceError {
    fn from(e: SpecError) -> ServiceError {
        ServiceError::bad_request(e.0)
    }
}

/// How a topology is named in a request.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyRef {
    /// Inline spec.
    Inline(TopologySpec),
    /// Content hash of a previously registered topology.
    Registered(u64),
}

/// A background flow: link-index path plus demand.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Link indices of the flow's path, in order.
    pub path: Vec<usize>,
    /// Demand in Mbps.
    pub demand_mbps: f64,
}

/// The query kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Eq. 6 available bandwidth.
    AvailableBandwidth,
    /// Eq. 7/9 clique bounds plus the §3.3 lower bound.
    Bounds,
    /// Eq. 10–13/15 distributed estimates.
    Estimate,
    /// Admission control: does `demand_mbps` fit?
    Admit,
    /// A whole flow-arrival sequence admitted in one warm sweep.
    AdmitBatch,
    /// Metrics snapshot.
    Stats,
    /// Register a topology for by-hash reuse.
    RegisterTopology,
    /// Patch a topology with a delta; its instances are patched on demand.
    Update,
}

impl QueryKind {
    /// The wire form of the query name.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryKind::AvailableBandwidth => "available_bandwidth",
            QueryKind::Bounds => "bounds",
            QueryKind::Estimate => "estimate",
            QueryKind::Admit => "admit",
            QueryKind::AdmitBatch => "admit_batch",
            QueryKind::Stats => "stats",
            QueryKind::RegisterTopology => "register_topology",
            QueryKind::Update => "update",
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client correlation id, echoed back verbatim.
    pub id: Value,
    /// Which computation to run.
    pub query: QueryKind,
    /// The topology (absent only for `stats`).
    pub topology: Option<TopologyRef>,
    /// Background flows (may be empty).
    pub background: Vec<FlowSpec>,
    /// The new flow's path, as link indices.
    pub path: Vec<usize>,
    /// The arrival sequence for `admit_batch` (empty otherwise).
    pub arrivals: Vec<FlowSpec>,
    /// The topology patch for `update` (`None` otherwise).
    pub delta: Option<DeltaSpec>,
    /// Candidate demand for `admit`.
    pub demand_mbps: Option<f64>,
    /// Enumerated set-size cap (`None` = unbounded).
    pub max_set_size: Option<usize>,
    /// Per-request deadline in milliseconds (`None` = no deadline).
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] with [`ErrorCode::BadRequest`] on malformed input.
    pub fn parse(line: &str) -> Result<Request, ServiceError> {
        let value: Value = serde_json::from_str(line)
            .map_err(|e| ServiceError::bad_request(format!("invalid JSON: {e}")))?;
        Request::from_value(&value)
    }

    /// Parses a request from its JSON tree.
    ///
    /// # Errors
    ///
    /// As [`Request::parse`].
    pub fn from_value(value: &Value) -> Result<Request, ServiceError> {
        let obj = value
            .as_object()
            .ok_or_else(|| ServiceError::bad_request("request must be a JSON object"))?;
        let query = match obj.get("query").and_then(Value::as_str) {
            Some("available_bandwidth") => QueryKind::AvailableBandwidth,
            Some("bounds") => QueryKind::Bounds,
            Some("estimate") => QueryKind::Estimate,
            Some("admit") => QueryKind::Admit,
            Some("admit_batch") => QueryKind::AdmitBatch,
            Some("stats") => QueryKind::Stats,
            Some("register_topology") => QueryKind::RegisterTopology,
            Some("update") => QueryKind::Update,
            Some(other) => {
                return Err(ServiceError::bad_request(format!(
                    "unknown query `{other}`"
                )))
            }
            None => return Err(ServiceError::bad_request("missing `query` field")),
        };
        let id = obj.get("id").cloned().unwrap_or(Value::Null);
        let topology = match obj.get("topology") {
            None | Some(Value::Null) => None,
            Some(Value::String(hex)) => Some(TopologyRef::Registered(
                u64::from_str_radix(hex, 16).map_err(|_| {
                    ServiceError::bad_request(format!("`topology` hash `{hex}` is not hex"))
                })?,
            )),
            Some(spec) => Some(TopologyRef::Inline(TopologySpec::from_value(spec)?)),
        };
        if topology.is_none() && query != QueryKind::Stats {
            return Err(ServiceError::bad_request(format!(
                "`{}` requires a `topology`",
                query.as_str()
            )));
        }
        let background = parse_flow_list(obj.get("background"), "background")?;
        let arrivals = parse_flow_list(obj.get("arrivals"), "arrivals")?;
        if query == QueryKind::AdmitBatch && arrivals.is_empty() {
            return Err(ServiceError::bad_request(
                "`admit_batch` requires a non-empty `arrivals` array",
            ));
        }
        let delta = match obj.get("delta") {
            None | Some(Value::Null) => None,
            Some(v) => Some(DeltaSpec::from_value(v)?),
        };
        if query == QueryKind::Update && delta.is_none() {
            return Err(ServiceError::bad_request(
                "`update` requires a `delta` object",
            ));
        }
        let path = match obj.get("path") {
            None | Some(Value::Null) => Vec::new(),
            Some(v) => parse_index_array(v)
                .ok_or_else(|| ServiceError::bad_request("`path` must be an array of links"))?,
        };
        let needs_path = matches!(
            query,
            QueryKind::AvailableBandwidth
                | QueryKind::Bounds
                | QueryKind::Estimate
                | QueryKind::Admit
        );
        if needs_path && path.is_empty() {
            return Err(ServiceError::bad_request(format!(
                "`{}` requires a non-empty `path`",
                query.as_str()
            )));
        }
        let demand_mbps = match obj.get("demand_mbps") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_f64()
                    .filter(|d| d.is_finite() && *d >= 0.0)
                    .ok_or_else(|| {
                        ServiceError::bad_request("`demand_mbps` must be a non-negative number")
                    })?,
            ),
        };
        if query == QueryKind::Admit && demand_mbps.is_none() {
            return Err(ServiceError::bad_request("`admit` requires `demand_mbps`"));
        }
        let max_set_size = match obj.get("max_set_size") {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_u64().filter(|&n| n >= 1).ok_or_else(|| {
                ServiceError::bad_request("`max_set_size` must be a positive integer")
            })? as usize),
        };
        let deadline_ms = match obj.get("deadline_ms") {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                ServiceError::bad_request("`deadline_ms` must be a non-negative integer")
            })?),
        };
        Ok(Request {
            id,
            query,
            topology,
            background,
            path,
            arrivals,
            delta,
            demand_mbps,
            max_set_size,
            deadline_ms,
        })
    }
}

/// Parses an optional array of `{path, demand_mbps}` flow objects.
fn parse_flow_list(value: Option<&Value>, field: &str) -> Result<Vec<FlowSpec>, ServiceError> {
    match value {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| {
                let path = parse_index_array(item.get("path").unwrap_or(&Value::Null)).ok_or_else(
                    || ServiceError::bad_request(format!("`{field}` flows need a `path` array")),
                )?;
                let demand_mbps = item
                    .get("demand_mbps")
                    .and_then(Value::as_f64)
                    .filter(|d| d.is_finite() && *d >= 0.0)
                    .ok_or_else(|| {
                        ServiceError::bad_request(format!(
                            "`{field}` flows need a non-negative `demand_mbps`"
                        ))
                    })?;
                Ok(FlowSpec { path, demand_mbps })
            })
            .collect(),
        Some(_) => Err(ServiceError::bad_request(format!(
            "`{field}` must be an array"
        ))),
    }
}

fn parse_index_array(value: &Value) -> Option<Vec<usize>> {
    value
        .as_array()?
        .iter()
        .map(|v| v.as_u64().map(|n| n as usize))
        .collect()
}

/// How a query's answer was obtained, reported in the `cache` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Full result served from the result cache.
    Hit,
    /// Enumerated set pool reused; only the LP re-solved.
    SetsHit,
    /// Waited behind another request's enumeration of the same pool.
    Coalesced,
    /// Everything computed from scratch.
    Miss,
}

impl CacheStatus {
    /// The wire form.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::SetsHit => "sets_hit",
            CacheStatus::Coalesced => "coalesced",
            CacheStatus::Miss => "miss",
        }
    }
}

/// Renders a success response line (no trailing newline).
pub fn ok_response(
    id: &Value,
    query: QueryKind,
    result: Value,
    cache: Option<CacheStatus>,
    elapsed_us: u64,
) -> String {
    let mut m = Map::new();
    m.insert("status".into(), Value::String("ok".into()));
    m.insert("id".into(), id.clone());
    m.insert("query".into(), Value::String(query.as_str().into()));
    m.insert("result".into(), result);
    if let Some(cache) = cache {
        m.insert("cache".into(), Value::String(cache.as_str().into()));
    }
    m.insert("elapsed_us".into(), Value::Number(elapsed_us as f64));
    Value::Object(m).to_string()
}

/// Renders an error response line (no trailing newline).
pub fn error_response(id: &Value, error: &ServiceError) -> String {
    let mut e = Map::new();
    e.insert("code".into(), Value::String(error.code.as_str().into()));
    e.insert("message".into(), Value::String(error.message.clone()));
    let mut m = Map::new();
    m.insert("status".into(), Value::String("error".into()));
    m.insert("id".into(), id.clone());
    m.insert("error".into(), Value::Object(e));
    Value::Object(m).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHAIN: &str = r#""topology": {
        "nodes": [[0,0],[50,0],[100,0]],
        "links": [[0,1],[1,2]],
        "alone_rates": [[54],[54]],
        "conflicts": [[0,1]]
    }"#;

    #[test]
    fn parses_a_full_request() {
        let line = format!(
            r#"{{"query": "admit", "id": 7, {CHAIN},
                "background": [{{"path": [0], "demand_mbps": 2.5}}],
                "path": [1], "demand_mbps": 1.25,
                "max_set_size": 2, "deadline_ms": 100}}"#
        );
        let r = Request::parse(&line).unwrap();
        assert_eq!(r.query, QueryKind::Admit);
        assert_eq!(r.id, Value::Number(7.0));
        assert!(matches!(r.topology, Some(TopologyRef::Inline(_))));
        assert_eq!(r.background.len(), 1);
        assert_eq!(r.background[0].path, vec![0]);
        assert_eq!(r.background[0].demand_mbps, 2.5);
        assert_eq!(r.path, vec![1]);
        assert_eq!(r.demand_mbps, Some(1.25));
        assert_eq!(r.max_set_size, Some(2));
        assert_eq!(r.deadline_ms, Some(100));
    }

    #[test]
    fn topology_hash_strings_become_refs() {
        let line = r#"{"query": "estimate", "topology": "00ff00ff00ff00ff", "path": [0]}"#;
        let r = Request::parse(line).unwrap();
        assert_eq!(
            r.topology,
            Some(TopologyRef::Registered(0x00ff_00ff_00ff_00ff))
        );
    }

    #[test]
    fn parses_an_update_request() {
        let line = r#"{"query": "update", "topology": "00ff00ff00ff00ff",
            "delta": {"moved_nodes": [[2, 120.0, 5.0]],
                      "rate_changed_links": [[1, [36]]],
                      "added_links": [[0, 2]]}}"#;
        let r = Request::parse(line).unwrap();
        assert_eq!(r.query, QueryKind::Update);
        let delta = r.delta.unwrap();
        assert_eq!(delta.moved_nodes, vec![(2, 120.0, 5.0)]);
        assert_eq!(delta.rate_changed_links, vec![(1, vec![36.0])]);
        assert_eq!(delta.added_links, vec![(0, 2)]);
        // update without a delta, and malformed delta entries, are rejected.
        for bad in [
            r#"{"query": "update", "topology": "00ff00ff00ff00ff"}"#,
            r#"{"query": "update", "topology": "00ff00ff00ff00ff", "delta": 5}"#,
            r#"{"query": "update", "topology": "00ff00ff00ff00ff",
                "delta": {"moved_nodes": [[2, 120.0]]}}"#,
            r#"{"query": "update", "topology": "00ff00ff00ff00ff",
                "delta": {"rate_changed_links": [[1, [-3]]]}}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn stats_needs_no_topology() {
        let r = Request::parse(r#"{"query": "stats"}"#).unwrap();
        assert_eq!(r.query, QueryKind::Stats);
        assert!(r.topology.is_none());
    }

    #[test]
    fn rejects_incomplete_requests() {
        for bad in [
            r#"not json"#,
            r#"[1, 2]"#,
            r#"{"query": "transmogrify"}"#,
            r#"{"id": 1}"#,
            r#"{"query": "available_bandwidth"}"#,
            r#"{"query": "estimate", "topology": "xyzzy", "path": [0]}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted: {bad}");
        }
        // admit without demand, and a query without a path
        let no_demand = format!(r#"{{"query": "admit", {CHAIN}, "path": [1]}}"#);
        assert!(Request::parse(&no_demand).is_err());
        let no_path = format!(r#"{{"query": "bounds", {CHAIN}}}"#);
        assert!(Request::parse(&no_path).is_err());
    }

    #[test]
    fn responses_render_as_single_json_lines() {
        let ok = ok_response(
            &Value::Number(3.0),
            QueryKind::Stats,
            Value::Object(Map::new()),
            Some(CacheStatus::Miss),
            42,
        );
        assert!(!ok.contains('\n'));
        let v: Value = serde_json::from_str(&ok).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("miss"));
        assert_eq!(v.get("elapsed_us").and_then(Value::as_u64), Some(42));

        let err = error_response(
            &Value::Null,
            &ServiceError::new(ErrorCode::Overloaded, "queue full"),
        );
        let v: Value = serde_json::from_str(&err).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(
            v["error"].get("code").and_then(Value::as_str),
            Some("overloaded")
        );
    }
}
