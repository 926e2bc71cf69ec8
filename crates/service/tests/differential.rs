//! Differential tests: the reactor must answer byte-identically to
//! [`handle_line`] run directly on an engine, and `admit_batch` must be
//! indistinguishable from the sequential single-`admit` protocol it
//! replaces.
//!
//! The reactor runs the same engine code, so the only way it can diverge
//! is through the serving stack itself — framing, dispatch order, response
//! assembly. The comparison therefore masks nothing except the value of
//! `elapsed_us` (wall time, necessarily different) and skips the `stats`
//! verb (live gauges, plus a reactor-only section by design).

use awb_service::server::handle_line;
use awb_service::{serve_reactor, Engine, ReactorConfig, ReactorServerConfig};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

const RELAY: &str = r#""topology": {"nodes": [[0,0],[50,0],[100,0]], "links": [[0,1],[1,2]], "alone_rates": [[54],[54]], "conflicts": [[0,1]]}"#;

/// A request mix covering every cacheable verb, validation errors,
/// malformed JSON, and repeated lines (cache-status transitions).
fn request_mix() -> Vec<String> {
    let mut lines = Vec::new();
    for (i, demand) in [1.0, 5.0, 1.0, 26.0].iter().enumerate() {
        lines.push(format!(
            r#"{{"query": "available_bandwidth", "id": {i}, {RELAY}, "path": [0,1], "background": [{{"path": [1], "demand_mbps": {demand}}}]}}"#
        ));
    }
    lines.push(format!(
        r#"{{"query": "admit", "id": "adm", {RELAY}, "path": [0,1], "demand_mbps": 12.0}}"#
    ));
    lines.push(format!(
        r#"{{"query": "bounds", "id": "bnd", {RELAY}, "path": [0,1]}}"#
    ));
    lines.push(format!(
        r#"{{"query": "admit_batch", "id": "batch", {RELAY}, "arrivals": [{{"path": [0,1], "demand_mbps": 20.0}}, {{"path": [0,1], "demand_mbps": 20.0}}, {{"path": [0,1], "demand_mbps": 3.0}}]}}"#
    ));
    // Identical replay: both servers must report the same cache statuses.
    lines.push(format!(
        r#"{{"query": "admit_batch", "id": "batch2", {RELAY}, "arrivals": [{{"path": [0,1], "demand_mbps": 20.0}}, {{"path": [0,1], "demand_mbps": 20.0}}, {{"path": [0,1], "demand_mbps": 3.0}}]}}"#
    ));
    // Validation error (admit_batch without arrivals) and malformed JSON:
    // both paths echo the id when it is parseable.
    lines.push(format!(
        r#"{{"query": "admit_batch", "id": "bad", {RELAY}, "arrivals": []}}"#
    ));
    lines.push("this is not json".to_string());
    lines.push(format!(
        r#"{{"query": "available_bandwidth", "id": 99, {RELAY}, "path": [0,7]}}"#
    ));
    lines
}

/// Sends `lines` pipelined on one connection (blank line injected between
/// them — the reactor must skip it silently) and returns one response per
/// request line.
fn exchange(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut batch = String::new();
    for (i, line) in lines.iter().enumerate() {
        batch.push_str(line);
        batch.push('\n');
        if i % 2 == 0 {
            batch.push_str("   \n"); // whitespace-only frame: no response
        }
    }
    stream.write_all(batch.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(lines.len());
    for _ in 0..lines.len() {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read response");
        assert!(
            n > 0,
            "server closed early after {} responses",
            responses.len()
        );
        responses.push(line.trim_end().to_string());
    }
    responses
}

/// Zeroes the digits of the `elapsed_us` value, the only legitimately
/// nondeterministic bytes of a response line; everything else — key
/// order, float formatting, whitespace — is compared as sent.
fn mask_elapsed(line: &str) -> String {
    const KEY: &str = "\"elapsed_us\":";
    let Some(at) = line.find(KEY) else {
        return line.to_string();
    };
    let value_start = at + KEY.len();
    let rest = &line[value_start..];
    let digits_start = rest.len() - rest.trim_start().len();
    let digits = rest[digits_start..]
        .bytes()
        .take_while(u8::is_ascii_digit)
        .count();
    format!(
        "{}0{}",
        &line[..value_start + digits_start],
        &rest[digits_start + digits..]
    )
}

#[test]
fn reactor_answers_byte_identically_to_handle_line() {
    // One worker pins dispatch order, so cache-status provenance (miss,
    // hit, coalesced) matches handling the lines one by one.
    let config = ReactorServerConfig {
        reactor: ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        },
        ..ReactorServerConfig::default()
    };
    let direct = Engine::new(config.engine);
    let reactor = serve_reactor(config).expect("reactor server");

    let lines = request_mix();
    let from_reactor = exchange(reactor.local_addr(), &lines);
    let from_direct: Vec<String> = lines.iter().map(|l| handle_line(&direct, l)).collect();

    assert_eq!(from_direct.len(), from_reactor.len());
    for (i, (d, r)) in from_direct.iter().zip(&from_reactor).enumerate() {
        assert_eq!(
            mask_elapsed(d),
            mask_elapsed(r),
            "request {i} diverged:\n  handle_line: {d}\n  reactor:     {r}"
        );
    }
    reactor.shutdown();
}

#[test]
fn admit_batch_matches_sequential_single_admits() {
    let server = serve_reactor(ReactorServerConfig::default()).expect("reactor server");
    let addr = server.local_addr();

    let arrivals = [20.0, 20.0, 3.0, 5.0, 0.5];
    let arrivals_json: Vec<String> = arrivals
        .iter()
        .map(|d| format!(r#"{{"path": [0,1], "demand_mbps": {d}}}"#))
        .collect();
    let batch_line = format!(
        r#"{{"query": "admit_batch", {RELAY}, "arrivals": [{}]}}"#,
        arrivals_json.join(", ")
    );
    let batch: Value = serde_json::from_str(
        &awb_service::server::query_once(addr, &batch_line).expect("batch query"),
    )
    .expect("batch response");
    assert_eq!(batch["status"].as_str(), Some("ok"), "batch: {batch}");
    let rows = batch["result"]["results"].as_array().expect("rows");
    assert_eq!(rows.len(), arrivals.len());

    // The sequential protocol the batch replaces: admit each arrival
    // against the background accumulated from previously admitted ones.
    let mut background: Vec<String> = Vec::new();
    for (i, demand) in arrivals.iter().enumerate() {
        let line = format!(
            r#"{{"query": "admit", {RELAY}, "path": [0,1], "demand_mbps": {demand}, "background": [{}]}}"#,
            background.join(", ")
        );
        let single: Value = serde_json::from_str(
            &awb_service::server::query_once(addr, &line).expect("single admit"),
        )
        .expect("single response");
        assert_eq!(single["status"].as_str(), Some("ok"), "single: {single}");
        let admitted = single["result"]["admitted"].as_bool().expect("admitted");
        let available = single["result"]["available_mbps"].as_f64().expect("avail");
        assert_eq!(
            rows[i]["admitted"].as_bool(),
            Some(admitted),
            "arrival {i}: batch and sequential admission disagree"
        );
        let batch_available = rows[i]["available_mbps"].as_f64().expect("avail");
        assert_eq!(
            batch_available.to_bits(),
            available.to_bits(),
            "arrival {i}: available bandwidth not bit-identical \
             (batch {batch_available}, sequential {available})"
        );
        if admitted {
            background.push(format!(r#"{{"path": [0,1], "demand_mbps": {demand}}}"#));
        }
    }
    server.shutdown();
}
