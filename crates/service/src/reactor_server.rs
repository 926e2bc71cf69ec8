//! The TCP server: an [`awb_reactor`] event loop serving the
//! newline-JSON protocol.
//!
//! The reactor owns all socket I/O on one event-loop thread; request
//! lines are executed on its worker pool through [`EngineHandler`], which
//! delegates to [`crate::server::handle_line`] — the same function stdio
//! mode runs, so both front ends answer a request with the same bytes
//! (the differential tests assert it). Frames the reactor refuses to run
//! (queue full, frame cap exceeded, drain in progress) are rendered as
//! the service's structured errors with the request `id` echoed whenever
//! the offending line was parseable.

use crate::engine::{Engine, EngineConfig};
use crate::metrics::Metrics;
use crate::protocol::{self, ErrorCode, ServiceError};
use crate::server::{handle_line, request_id};
use awb_reactor::{LineHandler, ReactorConfig, ReactorHandle, Reject};
use serde_json::Value;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

/// Tuning for the server: the reactor's socket, worker-pool and deadline
/// settings plus the engine behind it.
#[derive(Debug, Clone, Default)]
pub struct ReactorServerConfig {
    /// Event-loop settings (bind address, workers, queue, frame cap,
    /// deadlines, connection cap, signal handling).
    pub reactor: ReactorConfig,
    /// Engine (cache) configuration.
    pub engine: EngineConfig,
}

/// Bridges the reactor's line-oriented callbacks onto the [`Engine`].
pub struct EngineHandler {
    engine: Arc<Engine>,
}

impl EngineHandler {
    /// Wraps an engine for reactor serving.
    pub fn new(engine: Arc<Engine>) -> EngineHandler {
        EngineHandler { engine }
    }
}

/// Renders the structured error for a frame that never reached
/// [`handle_line`], counting it as a failed request. Shared by the reactor
/// and stdio mode so both refuse a frame with the same bytes.
pub(crate) fn render_reject(engine: &Engine, line: Option<&str>, reject: Reject) -> String {
    Metrics::bump(&engine.metrics.requests_error);
    let error = match reject {
        Reject::Overloaded => {
            Metrics::bump(&engine.metrics.rejected_overload);
            ServiceError::new(
                ErrorCode::Overloaded,
                "request queue full; retry with backoff",
            )
        }
        Reject::FrameTooLarge { limit } => ServiceError::new(
            ErrorCode::FrameTooLarge,
            format!("frame exceeds the {limit}-byte cap"),
        ),
        Reject::ShuttingDown => {
            ServiceError::new(ErrorCode::ShuttingDown, "server is shutting down")
        }
        Reject::Internal => ServiceError::new(
            ErrorCode::Internal,
            "internal error while serving the request",
        ),
    };
    let id = line.map_or(Value::Null, request_id);
    protocol::error_response(&id, &error)
}

impl LineHandler for EngineHandler {
    fn handle(&self, line: &str) -> String {
        handle_line(&self.engine, line)
    }

    fn reject(&self, line: Option<&str>, reject: Reject) -> String {
        render_reject(&self.engine, line, reject)
    }
}

/// A running server.
pub struct ReactorServer {
    engine: Arc<Engine>,
    handle: ReactorHandle,
}

/// Starts the server on `config.reactor.addr`.
///
/// # Errors
///
/// Propagates bind and epoll-setup failures.
pub fn serve_reactor(config: ReactorServerConfig) -> io::Result<ReactorServer> {
    let engine = Arc::new(Engine::new(config.engine));
    let handler = Arc::new(EngineHandler::new(Arc::clone(&engine)));
    let handle = awb_reactor::spawn(config.reactor, handler)?;
    engine.attach_reactor_metrics(handle.metrics());
    Ok(ReactorServer { engine, handle })
}

impl ReactorServer {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// The shared engine (for metrics inspection in tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Requests a graceful drain without waiting for it.
    pub fn request_shutdown(&self) {
        self.handle.shutdown();
    }

    /// Graceful shutdown: stop accepting, drain in-flight and queued work
    /// within the drain deadline, join all threads. Returns the final
    /// metrics summary (also logged to stderr).
    pub fn shutdown(self) -> String {
        self.handle.shutdown();
        let _ = self.handle.join();
        let summary = self.engine.metrics.summary();
        eprintln!("awb-service shutdown: {summary}");
        summary
    }

    /// Blocks until the reactor exits (a signal-triggered drain, when the
    /// handler is installed).
    ///
    /// # Errors
    ///
    /// Propagates a fatal event-loop error.
    pub fn join(self) -> io::Result<()> {
        self.handle.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::query_once;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;

    const RELAY: &str = r#""topology": {"nodes": [[0,0],[50,0],[100,0]], "links": [[0,1],[1,2]], "alone_rates": [[54],[54]], "conflicts": [[0,1]]}"#;

    #[test]
    fn overload_reject_echoes_the_id_and_counts_the_failure() {
        let handler = EngineHandler::new(Arc::new(Engine::new(EngineConfig::default())));
        let line =
            format!(r#"{{"query": "available_bandwidth", "id": "q7", {RELAY}, "path": [0,1]}}"#);
        let response: Value =
            serde_json::from_str(&handler.reject(Some(&line), Reject::Overloaded)).unwrap();
        assert_eq!(response["status"].as_str(), Some("error"));
        assert_eq!(response["id"].as_str(), Some("q7"));
        assert_eq!(response["error"]["code"].as_str(), Some("overloaded"));
        let metrics = &handler.engine.metrics;
        assert_eq!(metrics.requests_error.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.rejected_overload.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.requests_ok.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn reactor_round_trip_matches_protocol() {
        let server = serve_reactor(ReactorServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let line = format!(r#"{{"query": "available_bandwidth", {RELAY}, "path": [0,1]}}"#);
        let response: Value = serde_json::from_str(&query_once(addr, &line).unwrap()).unwrap();
        assert_eq!(response.get("status").and_then(Value::as_str), Some("ok"));
        let bw = response["result"]["bandwidth_mbps"].as_f64().unwrap();
        assert!((bw - 27.0).abs() < 1e-6, "got {bw}");
        let summary = server.shutdown();
        assert!(summary.contains("ok=1"), "summary was: {summary}");
    }

    #[test]
    fn stats_reports_reactor_and_instance_cache_sections() {
        let server = serve_reactor(ReactorServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let line = format!(r#"{{"query": "available_bandwidth", {RELAY}, "path": [0,1]}}"#);
        let _ = query_once(addr, &line).unwrap();
        let stats: Value =
            serde_json::from_str(&query_once(addr, r#"{"query": "stats"}"#).unwrap()).unwrap();
        let result = &stats["result"];
        assert!(result.get("reactor").is_some(), "missing reactor section");
        assert!(
            result["reactor"].get("frames").and_then(Value::as_u64) >= Some(1),
            "reactor frame counter should have ticked"
        );
        assert_eq!(
            result["instance_cache"].get("len").and_then(Value::as_u64),
            Some(1),
            "the one query cached one instance"
        );
        assert_eq!(
            result.get("sets_cache_misses").and_then(Value::as_u64),
            Some(1)
        );
        server.shutdown();
    }

    #[test]
    fn admit_batch_sweeps_arrivals_in_order() {
        let server = serve_reactor(ReactorServerConfig::default()).unwrap();
        let addr = server.local_addr();
        // Two conflicting 54 Mbps hops: 27 Mbps available on link 0. The
        // first 20 Mbps arrival is admitted and consumes most of it; the
        // identical second arrival must then be refused.
        let line = format!(
            r#"{{"query": "admit_batch", {RELAY}, "arrivals": [
                {{"path": [0,1], "demand_mbps": 20.0}},
                {{"path": [0,1], "demand_mbps": 20.0}},
                {{"path": [0,1], "demand_mbps": 3.0}}
            ]}}"#
        )
        .replace('\n', " ");
        let response: Value = serde_json::from_str(&query_once(addr, &line).unwrap()).unwrap();
        assert_eq!(
            response.get("status").and_then(Value::as_str),
            Some("ok"),
            "response: {response}"
        );
        let rows = response["result"]["results"].as_array().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0]["admitted"].as_bool(), Some(true));
        assert_eq!(rows[1]["admitted"].as_bool(), Some(false));
        assert_eq!(
            rows[2]["admitted"].as_bool(),
            Some(true),
            "3 Mbps still fits"
        );
        assert_eq!(response["result"]["admitted_count"].as_u64(), Some(2));
        // All three arrivals share one link universe: one compile, rest warm.
        assert_eq!(response["result"]["session"]["compiles"].as_u64(), Some(1));
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = serve_reactor(ReactorServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut batch = String::new();
        for id in 0..8 {
            batch.push_str(&format!(
                "{{\"query\": \"available_bandwidth\", \"id\": {id}, {RELAY}, \"path\": [0,1]}}\n"
            ));
        }
        stream.write_all(batch.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        for id in 0..8 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let v: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(v["id"].as_u64(), Some(id), "responses left in order");
            assert_eq!(v["status"].as_str(), Some("ok"));
        }
        server.shutdown();
    }
}
