//! `awb-service` — a concurrent admission-control daemon for the paper's
//! available-bandwidth pipeline (Chen, Zhai & Fang, ICDCS 2009).
//!
//! Answering "how much bandwidth is available on this path?" (Eq. 6) starts
//! with work that depends only on the topology and the link universe:
//! compiling it — enumerating its rate-coupled independent sets
//! (exponential in the number of links) or building column-generation
//! pricing oracles. This crate wraps the workspace's solver crates in a
//! long-lived service that amortizes that cost:
//!
//! * **Topology registry** — clients register a topology once and refer to
//!   it by content hash afterwards; `update` patches a topology with a
//!   delta ([`spec`]) and holds the result in the bounded model cache.
//! * **Two-level cache** — compiled instances and rendered results, each
//!   in one LRU ([`cache`], [`engine`]). Cached answers are byte-identical
//!   to direct library calls.
//! * **Lazy patching** — `update` only holds the patched topology; the
//!   first query that misses on it patches the parent topology's cached
//!   instance, recompiling only the conflict components the delta touched.
//! * **Coalescing** — concurrent requests for the same uncompiled instance
//!   share one compile or patch ([`coalesce`]).
//! * **The server** — an epoll reactor ([`reactor_server`]): one event-loop
//!   thread owns every socket, a worker pool runs the solves, pipelined
//!   responses leave in request order, and a full job queue answers with a
//!   structured `overloaded` error instead of buffering without bound.
//! * **Deadlines and graceful shutdown** — per-request `deadline_ms`
//!   checked between pipeline stages; SIGTERM/SIGINT drain in-flight work
//!   within a bound.
//! * **Metrics** — atomic counters and log2 latency histograms, via the
//!   `stats` query and the shutdown log ([`metrics`]).
//!
//! Wire protocol: newline-delimited JSON over TCP, or single-shot over
//! stdin/stdout ([`protocol`], [`server::serve_stdio`]); both run every
//! line through [`server::handle_line`].
//!
//! # Example
//!
//! ```
//! use awb_service::engine::{Engine, EngineConfig};
//! use awb_service::protocol::Request;
//!
//! let engine = Engine::new(EngineConfig::default());
//! let request = Request::parse(
//!     r#"{"query": "available_bandwidth",
//!         "topology": {"nodes": [[0,0],[50,0],[100,0]],
//!                      "links": [[0,1],[1,2]],
//!                      "alone_rates": [[54],[54]],
//!                      "conflicts": [[0,1]]},
//!         "path": [0, 1]}"#,
//! )?;
//! let (result, _cache) = engine.handle(&request, None)?;
//! let mbps = result.get("bandwidth_mbps").and_then(|v| v.as_f64()).unwrap();
//! assert!((mbps - 27.0).abs() < 1e-6); // two conflicting 54 Mbps hops
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
pub mod engine;
mod lock;
pub mod metrics;
pub mod protocol;
pub mod reactor_server;
pub mod server;
pub mod spec;

pub use awb_reactor::ReactorConfig;
pub use engine::{Engine, EngineConfig};
pub use protocol::{CacheStatus, ErrorCode, QueryKind, Request, ServiceError};
pub use reactor_server::{serve_reactor, ReactorServer, ReactorServerConfig};
pub use server::serve_stdio;
pub use spec::TopologySpec;
