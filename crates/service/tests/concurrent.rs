//! End-to-end tests of the daemon: concurrent clients against a live
//! reactor server, agreeing with direct library calls down to the bit.

use awb_core::{available_bandwidth, AvailableBandwidthOptions};
use awb_net::{DeclarativeModel, Path, Topology};
use awb_phy::Rate;
use awb_service::{serve_reactor, ReactorConfig, ReactorServerConfig};
use serde_json::Value;
use std::sync::atomic::Ordering;

/// A relay chain of `hops` 54/36 Mbps links where adjacent links conflict —
/// one topology per `hops` value, so different lengths are different cache
/// entries.
fn chain_request(hops: usize) -> String {
    let nodes: Vec<String> = (0..=hops).map(|i| format!("[{},0]", i * 50)).collect();
    let links: Vec<String> = (0..hops).map(|i| format!("[{},{}]", i, i + 1)).collect();
    let rates: Vec<String> = (0..hops).map(|_| "[54,36]".to_string()).collect();
    let conflicts: Vec<String> = (1..hops).map(|i| format!("[{},{}]", i - 1, i)).collect();
    let path: Vec<String> = (0..hops).map(|i| i.to_string()).collect();
    format!(
        r#"{{"query": "available_bandwidth", "topology": {{"nodes": [{}], "links": [{}], "alone_rates": [{}], "conflicts": [{}]}}, "path": [{}]}}"#,
        nodes.join(","),
        links.join(","),
        rates.join(","),
        conflicts.join(","),
        path.join(",")
    )
}

/// The same chain built directly against the library, bypassing the service
/// entirely.
fn chain_direct_mbps(hops: usize) -> f64 {
    let mut t = Topology::new();
    let nodes: Vec<_> = (0..=hops)
        .map(|i| t.add_node((i * 50) as f64, 0.0))
        .collect();
    let links: Vec<_> = (0..hops)
        .map(|i| t.add_link(nodes[i], nodes[i + 1]).unwrap())
        .collect();
    let rates = [Rate::from_mbps(54.0), Rate::from_mbps(36.0)];
    let mut b = DeclarativeModel::builder(t);
    for &l in &links {
        b = b.alone_rates(l, &rates);
    }
    for w in links.windows(2) {
        b = b.conflict_all(w[0], w[1]);
    }
    let model = b.build();
    let path = Path::new(model.topology(), links).unwrap();
    available_bandwidth(&model, &[], &path, &AvailableBandwidthOptions::default())
        .unwrap()
        .bandwidth_mbps()
}

fn query(addr: std::net::SocketAddr, line: &str) -> Value {
    let response = awb_service::server::query_once(addr, line).unwrap();
    serde_json::from_str(&response).unwrap()
}

#[test]
fn concurrent_clients_agree_with_the_library_bit_for_bit() {
    let server = serve_reactor(ReactorServerConfig {
        reactor: ReactorConfig {
            workers: 4,
            ..ReactorConfig::default()
        },
        ..ReactorServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // 12 clients over 4 distinct topologies: every topology is queried by 3
    // clients, so most requests race on an uncached pool (coalescing) or
    // land on a cached one.
    let lengths = [2usize, 3, 4, 5];
    let clients: Vec<_> = (0..12)
        .map(|i| {
            let hops = lengths[i % lengths.len()];
            std::thread::spawn(move || {
                let line = chain_request(hops);
                // Two rounds each: the second round must be served, and
                // usually from the result cache.
                let first = query(addr, &line);
                let second = query(addr, &line);
                (hops, first, second)
            })
        })
        .collect();

    for client in clients {
        let (hops, first, second) = client.join().unwrap();
        let expected = chain_direct_mbps(hops);
        for response in [&first, &second] {
            assert_eq!(
                response.get("status").and_then(Value::as_str),
                Some("ok"),
                "response: {response}"
            );
            let got = response["result"]["bandwidth_mbps"].as_f64().unwrap();
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "{hops}-hop chain: service {got} != direct {expected}"
            );
        }
    }

    let metrics = &server.engine().metrics;
    // One enumeration per distinct pool, no matter how many clients raced.
    assert_eq!(metrics.sets_cache_misses.load(Ordering::Relaxed), 4);
    assert_eq!(metrics.requests_ok.load(Ordering::Relaxed), 24);
    assert_eq!(metrics.requests_error.load(Ordering::Relaxed), 0);
    // 24 requests over 4 distinct answers: at least the 12 second-round
    // requests were served from the result cache.
    assert!(metrics.result_cache_hits.load(Ordering::Relaxed) >= 12);

    let summary = server.shutdown();
    assert!(summary.contains("ok=24"), "summary: {summary}");
}

#[test]
fn cached_and_uncached_responses_are_byte_identical() {
    let server = serve_reactor(ReactorServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let line = chain_request(4);
    let cold = awb_service::server::query_once(addr, &line).unwrap();
    let warm = awb_service::server::query_once(addr, &line).unwrap();
    let strip = |s: &str| {
        let v: Value = serde_json::from_str(s).unwrap();
        let mut m = v.as_object().unwrap().clone();
        m.remove("elapsed_us");
        m.remove("cache");
        Value::Object(m).to_string()
    };
    assert_eq!(strip(&cold), strip(&warm));
    let cold: Value = serde_json::from_str(&cold).unwrap();
    let warm: Value = serde_json::from_str(&warm).unwrap();
    assert_eq!(cold.get("cache").and_then(Value::as_str), Some("miss"));
    assert_eq!(warm.get("cache").and_then(Value::as_str), Some("hit"));
    server.shutdown();
}
