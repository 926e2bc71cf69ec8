//! `service_load_bench` — sustained load on the reactor server (epoll
//! event loop + small worker pool), written to `BENCH_service_load.json`
//! at the repo root.
//!
//! A single-threaded nonblocking load generator (built on the reactor's
//! own [`Poller`]) drives 1k+ concurrent connections, each keeping one
//! request in flight. The grid covers:
//!
//! - **mode**: `single` (`available_bandwidth`, one query per request) vs
//!   `batch` (`admit_batch`, a whole arrival sequence answered by one warm
//!   session sweep);
//! - **phase**: `cold` (per-request distinct demands — every request pays
//!   an LP solve; the compiled instance warms once per universe) vs `warm`
//!   (each connection replays its first cold request over the *same
//!   keep-alive connections* the cold phase established — result-cache
//!   hits, no reconnect storm).
//!
//! The server's result cache holds every distinct request of the grid, so
//! the warm rows measure result-cache replay rather than LP re-solves.
//!
//! Each cell reports sustained request and query throughput, p50/p99/p999
//! latency, and the result-cache hits and misses it caused. Responses are
//! checked for `"status": "ok"` so a server shedding load cannot fake
//! throughput; overload rejections count as errors and fail the run.
//!
//! `--smoke` runs a 64-connection grid and writes nothing — the CI hook
//! that keeps the server serving this workload. Both runs assert that
//! every request is answered, none errors, and no warm request misses the
//! result cache.

#![forbid(unsafe_code)]

use awb_reactor::{Interest, Poller};
use awb_service::metrics::Metrics;
use awb_service::{serve_reactor, EngineConfig, ReactorConfig, ReactorServerConfig};
use serde::Serialize;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Inline 3-node relay topology: two conflicting 54 Mbps hops, so link 0
/// has 27 Mbps available. Small on purpose — the bench measures the
/// serving stack, not the LP.
const TOPOLOGY: &str = r#""topology": {"nodes": [[0,0],[50,0],[100,0]], "links": [[0,1],[1,2]], "alone_rates": [[54],[54]], "conflicts": [[0,1]]}"#;

/// Arrivals per `admit_batch` request.
const BATCH_ARRIVALS: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Single,
    Batch,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Cold,
    Warm,
}

struct GridConfig {
    connections: usize,
    /// Requests each connection issues per phase.
    iterations: usize,
}

const FULL: GridConfig = GridConfig {
    connections: 1056,
    iterations: 4,
};
const SMOKE: GridConfig = GridConfig {
    connections: 64,
    iterations: 2,
};

#[derive(Serialize)]
struct Row {
    mode: &'static str,
    phase: &'static str,
    connections: usize,
    requests: usize,
    /// Admission queries answered (requests × arrivals for batch mode).
    queries: usize,
    elapsed_ms: f64,
    /// Requests per second.
    qps: f64,
    /// Queries per second (differs from qps in batch mode).
    queries_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    errors: usize,
    /// Result-cache hits the cell caused.
    result_cache_hits: u64,
    /// Result-cache misses the cell caused (LP solves).
    result_cache_misses: u64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    command: &'static str,
    connections: usize,
    iterations: usize,
    batch_arrivals: usize,
    rows: Vec<Row>,
}

/// The request line connection `conn` sends on iteration `iter`.
///
/// Cold-phase demands differ per (connection, iteration) so every request
/// misses the result cache and pays a real solve; warm-phase demands
/// repeat iteration 0's value, so replays hit. Demands stay far below the
/// 27 Mbps capacity — admission outcomes are not the point here.
fn request_line(mode: Mode, phase: Phase, conn: usize, iter: usize) -> String {
    let salt = match phase {
        Phase::Cold => (conn * 7919 + iter * 104_729) % 100_000,
        Phase::Warm => conn * 7919 % 100_000,
    };
    let demand = 0.001 + salt as f64 * 1e-8;
    let id = conn * 1_000_000 + iter;
    match mode {
        Mode::Single => format!(
            r#"{{"query": "available_bandwidth", "id": {id}, {TOPOLOGY}, "path": [0,1], "background": [{{"path": [1], "demand_mbps": {demand}}}]}}"#
        ),
        Mode::Batch => {
            let arrivals: Vec<String> = (0..BATCH_ARRIVALS)
                .map(|a| {
                    format!(
                        r#"{{"path": [0,1], "demand_mbps": {}}}"#,
                        demand + a as f64 * 1e-9
                    )
                })
                .collect();
            format!(
                r#"{{"query": "admit_batch", "id": {id}, {TOPOLOGY}, "arrivals": [{}]}}"#,
                arrivals.join(", ")
            )
        }
    }
}

/// One load-generator connection: a nonblocking socket keeping exactly one
/// request in flight. Connections persist across phases (keep-alive): the
/// warm phase replays over the sockets the cold phase drove.
struct ClientConn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Next iteration to send (the current one is `iter - 1`).
    iter: usize,
    sent_at: Instant,
    interest: Interest,
    /// Finished the current phase's iterations.
    done: bool,
    /// Closed or errored; unusable for later phases.
    dead: bool,
}

/// Connects the load generator's keep-alive connection set and registers
/// every socket with `poller` (token = connection index).
fn connect_all(poller: &Poller, addr: SocketAddr, n: usize) -> io::Result<Vec<ClientConn>> {
    let mut conns: Vec<ClientConn> = Vec::with_capacity(n);
    for c in 0..n {
        // Loopback connects complete at SYN-ACK; retry briefly if the
        // listen backlog is momentarily full.
        let stream = {
            let mut attempt = 0;
            loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(e) if attempt < 50 => {
                        attempt += 1;
                        let _ = e;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        poller.register(stream.as_raw_fd(), c as u64, Interest::BOTH)?;
        conns.push(ClientConn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            iter: 0,
            sent_at: Instant::now(),
            interest: Interest::BOTH,
            done: true,
            dead: false,
        });
    }
    Ok(conns)
}

/// Runs one (mode, phase) cell over the established keep-alive
/// connections, returning per-request latencies (µs) plus the error count
/// and wall time. Reusing connections across phases means a warm phase
/// measures result-cache replay, not a reconnect storm.
fn drive(
    poller: &Poller,
    conns: &mut [ClientConn],
    grid: &GridConfig,
    mode: Mode,
    phase: Phase,
) -> io::Result<(Vec<u64>, usize, Duration)> {
    let expected = grid.connections * grid.iterations;
    let mut latencies: Vec<u64> = Vec::with_capacity(expected);
    let mut errors = 0usize;
    let mut open = 0usize;
    let started = Instant::now();
    for (c, conn) in conns.iter_mut().enumerate() {
        if conn.dead {
            // A connection lost in an earlier phase cannot answer; its
            // share of this phase counts as errors.
            errors += grid.iterations;
            continue;
        }
        let mut out = request_line(mode, phase, c, 0).into_bytes();
        out.push(b'\n');
        conn.out = out;
        conn.out_pos = 0;
        conn.inbuf.clear();
        conn.iter = 1;
        conn.done = false;
        conn.sent_at = started;
        if conn.interest != Interest::BOTH {
            poller.modify(conn.stream.as_raw_fd(), c as u64, Interest::BOTH)?;
            conn.interest = Interest::BOTH;
        }
        open += 1;
    }
    let mut events = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while open > 0 {
        events.clear();
        poller.wait(&mut events, Some(Duration::from_millis(100)))?;
        for ev in events.iter().copied() {
            let Some(conn) = conns.get_mut(ev.token as usize) else {
                continue;
            };
            if conn.done {
                continue;
            }
            if ev.writable {
                while conn.out_pos < conn.out.len() {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(n) => conn.out_pos += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) => return Err(e),
                    }
                }
            }
            if ev.readable || ev.hangup || ev.error {
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            // Premature close counts every outstanding
                            // request as an error.
                            errors += 1 + grid.iterations.saturating_sub(conn.iter);
                            conn.done = true;
                            conn.dead = true;
                            open -= 1;
                            break;
                        }
                        Ok(n) => {
                            conn.inbuf.extend_from_slice(&chunk[..n]);
                            while let Some(pos) = conn.inbuf.iter().position(|&b| b == b'\n') {
                                let line: Vec<u8> = conn.inbuf.drain(..=pos).collect();
                                let us =
                                    conn.sent_at.elapsed().as_micros().min(u64::MAX as u128) as u64;
                                latencies.push(us);
                                if !line_is_ok(&line) {
                                    errors += 1;
                                }
                                if conn.iter < grid.iterations {
                                    let next =
                                        request_line(mode, phase, ev.token as usize, conn.iter);
                                    conn.iter += 1;
                                    conn.out = next.into_bytes();
                                    conn.out.push(b'\n');
                                    conn.out_pos = 0;
                                    conn.sent_at = Instant::now();
                                    // Try to send inline; fall back to
                                    // waiting for writability.
                                    while conn.out_pos < conn.out.len() {
                                        match conn.stream.write(&conn.out[conn.out_pos..]) {
                                            Ok(n) => conn.out_pos += n,
                                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                                break
                                            }
                                            Err(e) => return Err(e),
                                        }
                                    }
                                } else if !conn.done {
                                    conn.done = true;
                                    open -= 1;
                                }
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            errors += 1 + grid.iterations.saturating_sub(conn.iter);
                            conn.done = true;
                            conn.dead = true;
                            open -= 1;
                            break;
                        }
                    }
                    if conn.done {
                        break;
                    }
                }
            }
            if conn.dead {
                // Only dead sockets leave the poller; completed ones stay
                // registered for the next phase (keep-alive).
                let _ = poller.deregister(conn.stream.as_raw_fd());
                continue;
            }
            // Only ask for writability while bytes are pending; otherwise
            // a level-triggered poller would spin on writable sockets.
            let want = Interest {
                readable: true,
                writable: conn.out_pos < conn.out.len(),
            };
            if want != conn.interest {
                poller.modify(conn.stream.as_raw_fd(), ev.token, want)?;
                conn.interest = want;
            }
        }
    }
    let elapsed = started.elapsed();
    Ok((latencies, errors, elapsed))
}

/// Whether a response line reports success.
fn line_is_ok(line: &[u8]) -> bool {
    // Cheap check: every engine response carries `"status": "ok"` or
    // `"status": "error"`; full JSON parsing would dominate the client.
    let text = String::from_utf8_lossy(line);
    text.contains(r#""status": "ok""#) || text.contains(r#""status":"ok""#)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The server's (result-cache hits, misses) so far.
fn result_cache_counts(metrics: &Metrics) -> (u64, u64) {
    (
        metrics.result_cache_hits.load(Ordering::Relaxed),
        metrics.result_cache_misses.load(Ordering::Relaxed),
    )
}

fn run_cell(
    poller: &Poller,
    conns: &mut [ClientConn],
    grid: &GridConfig,
    mode: Mode,
    phase: Phase,
    metrics: &Metrics,
) -> Row {
    let (hits_before, misses_before) = result_cache_counts(metrics);
    let (mut latencies, errors, elapsed) =
        drive(poller, conns, grid, mode, phase).expect("load generator I/O failed");
    let (hits_after, misses_after) = result_cache_counts(metrics);
    latencies.sort_unstable();
    let requests = latencies.len();
    let per_request = match mode {
        Mode::Single => 1,
        Mode::Batch => BATCH_ARRIVALS,
    };
    let queries = requests * per_request;
    let secs = elapsed.as_secs_f64().max(1e-9);
    Row {
        mode: match mode {
            Mode::Single => "single",
            Mode::Batch => "batch",
        },
        phase: match phase {
            Phase::Cold => "cold",
            Phase::Warm => "warm",
        },
        connections: grid.connections,
        requests,
        queries,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        qps: requests as f64 / secs,
        queries_per_sec: queries as f64 / secs,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        errors,
        result_cache_hits: hits_after - hits_before,
        result_cache_misses: misses_after - misses_before,
    }
}

/// Runs the cold and warm phases for one mode against a running server.
/// Both phases share one keep-alive connection set: the warm phase replays
/// over the very sockets the cold phase drove, so its numbers measure
/// result-cache replay rather than a fresh connect storm.
fn run_mode(addr: SocketAddr, grid: &GridConfig, mode: Mode, metrics: &Metrics) -> Vec<Row> {
    let poller = Poller::new().expect("load generator poller");
    let mut conns =
        connect_all(&poller, addr, grid.connections).expect("load generator connect failed");
    vec![
        run_cell(&poller, &mut conns, grid, mode, Phase::Cold, metrics),
        run_cell(&poller, &mut conns, grid, mode, Phase::Warm, metrics),
    ]
}

fn run_grid(grid: &GridConfig) -> Vec<Row> {
    let server = serve_reactor(ReactorServerConfig {
        reactor: ReactorConfig {
            queue_capacity: grid.connections + 64,
            max_connections: grid.connections + 64,
            ..ReactorConfig::default()
        },
        engine: EngineConfig {
            // Every distinct request of the grid: both modes' cold phases
            // (the warm phase replays each connection's first request).
            result_cache_capacity: 2 * grid.connections * grid.iterations,
            ..EngineConfig::default()
        },
    })
    .expect("reactor server failed to start");
    let addr = server.local_addr();
    let metrics = &server.engine().metrics;
    let mut rows = run_mode(addr, grid, Mode::Single, metrics);
    rows.extend(run_mode(addr, grid, Mode::Batch, metrics));
    server.shutdown();
    rows
}

fn print_row(r: &Row) {
    println!(
        "{:>6} {:>4}: {:>6} conns, {:>6} reqs in {:>9.1} ms — {:>9.0} req/s \
         ({:>9.0} queries/s), p50 {:>7} µs, p99 {:>7} µs, p999 {:>7} µs, errors {}, \
         result cache {}/{}",
        r.mode,
        r.phase,
        r.connections,
        r.requests,
        r.elapsed_ms,
        r.qps,
        r.queries_per_sec,
        r.p50_us,
        r.p99_us,
        r.p999_us,
        r.errors,
        r.result_cache_hits,
        r.result_cache_hits + r.result_cache_misses,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let grid = if smoke { SMOKE } else { FULL };

    let rows = run_grid(&grid);
    for r in &rows {
        print_row(r);
    }
    let total_errors: usize = rows.iter().map(|r| r.errors).sum();
    assert_eq!(total_errors, 0, "load run saw error responses");
    let expected = grid.connections * grid.iterations;
    for r in &rows {
        assert_eq!(
            r.requests, expected,
            "{}/{} dropped requests",
            r.mode, r.phase
        );
        if r.phase == "warm" {
            assert_eq!(
                r.result_cache_misses, 0,
                "{} warm replay missed the result cache",
                r.mode
            );
        }
    }

    if smoke {
        println!(
            "service_load_bench smoke ok: {} connections × {} iterations, 0 errors",
            grid.connections, grid.iterations
        );
        return;
    }

    let report = Report {
        bench: "service_load",
        command: "cargo run --release -p awb-bench --bin service_load_bench",
        connections: grid.connections,
        iterations: grid.iterations,
        batch_arrivals: BATCH_ARRIVALS,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_service_load.json", json + "\n").expect("write BENCH_service_load.json");
    println!("wrote BENCH_service_load.json");
}
