//! Contracts of the live observability plane, end to end over real
//! sockets: the `/metrics` + `/health` HTTP routes on the NDJSON
//! listener, the `stats` / `health` / `flight` admin verbs, metric
//! consistency against ground truth, and the flight recorder's overload
//! flush.

use kcb_core::lab::{Lab, LabConfig};
use kcb_core::snapshot::{Snapshot, SnapshotSpec};
use kcb_serve::engine::{Engine, EngineConfig};
use kcb_serve::flight::FlightConfig;
use kcb_serve::protocol::{parse_value, Op, Request};
use kcb_serve::server::{Server, ServerConfig};
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};

fn frozen() -> Arc<Snapshot> {
    let lab = Lab::new(LabConfig::tiny());
    Arc::new(Snapshot::freeze(&lab, SnapshotSpec { bert: false, ..SnapshotSpec::default() }))
}

fn start_server(snap: Arc<Snapshot>) -> Server {
    Server::start(
        snap,
        &ServerConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            socket: None,
            engine: EngineConfig { workers: 2, queue_cap: 256, batch_max: 8, ..Default::default() },
        },
    )
    .expect("bind")
}

/// One HTTP GET against the NDJSON listener; returns the raw response.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: kcb\r\n\r\n").as_bytes())
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// Splits an HTTP response into (status line, body).
fn split_http(response: &str) -> (&str, &str) {
    let status = response.lines().next().unwrap_or("");
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    (status, body)
}

/// Parses `# TYPE`-annotated Prometheus text into (name, value) samples,
/// panicking on any malformed line — the format validator for the tests.
fn parse_exposition(body: &str) -> Vec<(String, f64)> {
    let mut samples = Vec::new();
    let mut typed: Vec<String> = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line has a name").to_string();
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind} in {line:?}"
            );
            typed.push(name);
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad sample line {line:?}"));
        let name = name_part.split('{').next().expect("sample has a name");
        for ch in name.chars() {
            assert!(
                ch.is_ascii_alphanumeric() || ch == '_',
                "invalid metric name char {ch:?} in {line:?}"
            );
        }
        assert!(
            typed.iter().any(|t| name == t || name.starts_with(&format!("{t}_"))),
            "sample {name} has no preceding TYPE line"
        );
        let v: f64 = value.parse().unwrap_or_else(|_| panic!("bad value in {line:?}"));
        samples.push((name_part.to_string(), v));
    }
    assert!(!samples.is_empty(), "empty exposition");
    samples
}

fn sample(samples: &[(String, f64)], name: &str) -> f64 {
    samples
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no sample {name}"))
        .1
}

#[test]
fn http_metrics_and_health_ride_the_ndjson_listener() {
    let server = start_server(frozen());
    let addr = server.tcp_addr.expect("tcp bound");

    // Drive some NDJSON traffic so the counters are non-trivial.
    let mut ndjson = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(ndjson.try_clone().expect("clone"));
    let mut ask = |stream: &mut TcpStream, line: &str| {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply
    };
    for i in 0..5 {
        let r = ask(&mut ndjson, &format!(r#"{{"id":{i},"op":"nn","token":"acid","k":3}}"#));
        assert!(r.contains(r#""ok":true"#), "{r}");
    }

    let response = http_get(addr, "/metrics");
    let (status, body) = split_http(&response);
    assert!(status.contains("200 OK"), "{status}");
    assert!(response.contains("text/plain; version=0.0.4"), "{response}");
    let first = parse_exposition(body);
    assert_eq!(sample(&first, "serve_served_total"), 5.0);
    assert_eq!(sample(&first, "serve_requests_nn_total"), 5.0);
    assert_eq!(sample(&first, "serve_shed_total"), 0.0);
    assert!(sample(&first, "serve_e2e_us_count") == 5.0, "e2e histogram saw every request");
    // Histogram buckets are cumulative and end at +Inf == _count.
    let inf = sample(&first, r#"serve_e2e_us_bucket{le="+Inf"}"#);
    assert_eq!(inf, sample(&first, "serve_e2e_us_count"));

    // More traffic, then a second scrape: counters are monotone.
    for i in 5..9 {
        let r = ask(&mut ndjson, &format!(r#"{{"id":{i},"op":"classify","s":0,"r":0,"o":1}}"#));
        assert!(r.contains(r#""id":{}"#.replace("{}", &i.to_string()).as_str()), "{r}");
    }
    let (status2, body2) = {
        let resp = http_get(addr, "/metrics");
        let (s, b) = split_http(&resp);
        (s.to_string(), b.to_string())
    };
    assert!(status2.contains("200 OK"), "{status2}");
    let second = parse_exposition(&body2);
    for (name, v1) in &first {
        if name.contains("_total") || name.contains("_count") || name.contains("_sum") {
            let v2 = sample(&second, name);
            assert!(v2 >= *v1, "{name} went backwards: {v1} -> {v2}");
        }
    }
    assert_eq!(sample(&second, "serve_served_total"), 9.0);

    let health = http_get(addr, "/health");
    let (status, body) = split_http(&health);
    assert!(status.contains("200 OK"), "{status}");
    let doc = parse_value(body.trim()).expect("health is json");
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
    assert!(doc.get("uptime_s").and_then(Value::as_f64).expect("uptime") >= 0.0);

    let missing = http_get(addr, "/nope");
    assert!(split_http(&missing).0.contains("404"), "{missing}");

    let _ = ask(&mut ndjson, r#"{"id":99,"op":"shutdown"}"#);
    let _ = TcpStream::connect(addr);
    server.wait();
}

#[test]
fn stats_health_and_flight_admin_verbs_answer_inline() {
    let server = start_server(frozen());
    let addr = server.tcp_addr.expect("tcp bound");
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ask = |stream: &mut TcpStream, line: &str| {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        parse_value(reply.trim()).unwrap_or_else(|e| panic!("{reply}: {e}"))
    };

    for i in 0..6 {
        let r = ask(&mut stream, &format!(r#"{{"id":{i},"op":"nn","token":"acid","k":2}}"#));
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");
    }

    let stats = ask(&mut stream, r#"{"id":100,"op":"stats"}"#);
    assert_eq!(stats.get("served").and_then(Value::as_u64), Some(6));
    assert_eq!(stats.get("shed").and_then(Value::as_u64), Some(0));
    assert_eq!(stats.get("errors").and_then(Value::as_u64), Some(0));
    assert!(stats.get("uptime_s").and_then(Value::as_f64).expect("uptime") >= 0.0);
    assert!(stats.get("p50_us").and_then(Value::as_u64).expect("p50") > 0);
    let p99 = stats.get("p99_us").and_then(Value::as_u64).expect("p99");
    let max = stats.get("max_us").and_then(Value::as_u64).expect("max");
    assert!(p99 <= max.max(1) * 3 / 2, "p99 {p99} way past max {max}");
    let verbs = stats.get("verbs").expect("verbs map");
    assert_eq!(verbs.get("nn").and_then(Value::as_u64), Some(6));
    assert_eq!(verbs.get("stats").and_then(Value::as_u64), Some(1));

    let health = ask(&mut stream, r#"{"id":101,"op":"health"}"#);
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(health.get("queue_depth").and_then(Value::as_u64), Some(0));

    let flight = ask(&mut stream, r#"{"id":102,"op":"flight"}"#);
    assert_eq!(flight.get("ok").and_then(Value::as_bool), Some(true));
    let recent = flight.get("recent").and_then(Value::as_array).expect("recent ring");
    assert_eq!(recent.len(), 6, "one record per served request");
    for rec in recent {
        assert_eq!(rec.get("op").and_then(Value::as_str), Some("nn"));
        assert_eq!(rec.get("outcome").and_then(Value::as_str), Some("ok"));
        assert!(rec.get("batch").and_then(Value::as_u64).expect("batch id") >= 1);
        assert!(rec.get("latency_us").and_then(Value::as_u64).is_some());
    }
    assert!(flight.get("slow_us").and_then(Value::as_u64).expect("threshold") > 0);

    let _ = ask(&mut stream, r#"{"id":103,"op":"shutdown"}"#);
    let _ = TcpStream::connect(addr);
    server.wait();
}

#[test]
fn engine_metrics_agree_with_ground_truth() {
    let snap = frozen();
    let engine = Engine::start(
        Arc::clone(&snap),
        &EngineConfig { workers: 2, queue_cap: 512, batch_max: 4, ..Default::default() },
    );
    const N: u64 = 40;
    let mut rxs = Vec::new();
    for i in 0..N {
        let (tx, rx) = mpsc::channel();
        // Every other request is an invalid triple → a typed error reply.
        let o = if i % 2 == 0 { 1 } else { u32::MAX };
        engine.submit(Request { id: i, op: Op::Classify { s: 0, r: 0, o } }, tx);
        rxs.push(rx);
    }
    for rx in rxs {
        let _ = rx.recv().expect("reply");
    }
    let m = engine.metrics();
    assert_eq!(m.served.get(), N);
    assert_eq!(m.errors.get(), N / 2, "invalid triples are counted as errors");
    assert_eq!(m.e2e_us.snapshot().count(), N, "every request has a latency sample");
    assert_eq!(m.queue_wait_us.snapshot().count(), N);
    let sizes = engine.batch_histogram();
    assert_eq!(sizes.sum, N, "batch sizes sum to requests served");
    assert!(sizes.max <= 4, "batch_max respected: {}", sizes.max);
    assert_eq!(m.in_flight.get(), 0, "in-flight gauge returns to zero");
    assert_eq!(m.verb_counts(), vec![("classify", N)]);
    let (recent, _slow) = engine.flight().dump();
    assert_eq!(recent.len(), N as usize);
    assert_eq!(recent.iter().filter(|r| r.outcome == "error").count(), N as usize / 2);
    let stats = engine.shutdown();
    assert_eq!(stats.served, N);
}

#[test]
fn overload_transition_flushes_the_flight_recorder() {
    let path = std::env::temp_dir().join(format!("kcb-flight-ov-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let snap = frozen();
    // Zero workers: the queue fills deterministically and sheds.
    let engine = Engine::start(
        Arc::clone(&snap),
        &EngineConfig {
            workers: 0,
            queue_cap: 2,
            batch_max: 8,
            flight: FlightConfig { path: Some(path.clone()), ..FlightConfig::default() },
        },
    );
    let mut rxs = Vec::new();
    for i in 0..6u64 {
        let (tx, rx) = mpsc::channel();
        engine.submit(Request { id: i, op: Op::Ping }, tx);
        rxs.push(rx);
    }
    assert_eq!(engine.stats().shed, 4);
    let (_, text) = (engine.shutdown(), std::fs::read_to_string(&path).expect("flush file"));
    assert!(text.contains(r#""reason":"overload""#), "overload transition flushed: {text}");
    assert!(text.contains(r#""reason":"shutdown""#), "graceful shutdown flushed: {text}");
    assert!(text.contains(r#""outcome":"shed""#), "shed requests are recorded: {text}");
    for line in text.lines() {
        kcb_util::json::parse_value(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    std::fs::remove_file(&path).ok();
}
