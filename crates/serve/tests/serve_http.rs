//! End-to-end tests of `availsim serve` over real sockets: raw
//! `TcpStream` clients against an ephemeral-port server, covering the
//! whole overload contract — concurrency, cache-hit byte-identity,
//! admission-control shedding, deadline expiry, and graceful drain.

use availsim_serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Starts a server; returns its address, the stop flag, and the join
/// handle (which yields whether drain finished within budget).
fn start(config: ServeConfig) -> (SocketAddr, Arc<AtomicBool>, thread::JoinHandle<bool>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = thread::spawn(move || server.run(&flag).expect("accept loop"));
    (addr, stop, handle)
}

/// A parsed response: status, headers (lowercased names), body.
struct Reply {
    status: u16,
    headers: HashMap<String, String>,
    body: String,
}

/// One raw HTTP/1.1 exchange.
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: availsim\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    read_reply(&mut stream)
}

/// Reads one response to EOF and parses it.
fn read_reply(stream: &mut TcpStream) -> Reply {
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response framing");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .unwrap()
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

fn query(addr: SocketAddr, body: &str) -> Reply {
    request(addr, "POST", "/v1/query", body)
}

/// The value of one sample line of a `/metrics` body.
fn sample(metrics: &str, name: &str) -> usize {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no sample {name}: {metrics}"))
}

/// Stops the server and joins the accept loop.
fn stop_and_join(stop: &AtomicBool, handle: thread::JoinHandle<bool>) -> bool {
    stop.store(true, Ordering::Relaxed);
    handle.join().expect("server thread")
}

#[test]
fn health_metrics_and_routing() {
    let (addr, stop, handle) = start(ServeConfig::default());

    let health = request(addr, "GET", "/health", "");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "{\"status\":\"ok\"}");

    let metrics = request(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("availsim_serve_requests_total"));
    assert!(metrics.body.contains("availsim_serve_queue_depth"));
    assert!(
        metrics
            .body
            .contains("\navailsim_serve_connections_open 1\n"),
        "only this request holds a handler: {}",
        metrics.body
    );
    assert!(metrics
        .body
        .contains("# TYPE availsim_serve_sheds_total counter"));

    assert_eq!(request(addr, "GET", "/nope", "").status, 404);
    assert_eq!(request(addr, "POST", "/health", "").status, 405);
    assert_eq!(request(addr, "GET", "/v1/query", "").status, 405);

    stop_and_join(&stop, handle);
}

#[test]
fn exact_queries_answer_inline_with_every_error_mapped() {
    let (addr, stop, handle) = start(ServeConfig::default());

    // A good exact query.
    let ok = query(addr, r#"{"raid": "r5-7", "lambda": 1e-5, "hep": 0.01}"#);
    assert_eq!(ok.status, 200);
    assert!(ok.body.contains("\"unavailability\":"), "{}", ok.body);
    assert!(ok.body.contains("\"mttdl_hours\":"), "{}", ok.body);
    assert_eq!(ok.headers.get("x-availsim-cache").unwrap(), "miss");

    // 400: malformed JSON, unknown keys, bad model combinations.
    assert_eq!(query(addr, "{not json").status, 400);
    let unknown = query(addr, r#"{"lambdaa": 1e-5}"#);
    assert_eq!(unknown.status, 400);
    assert!(unknown.body.contains("lambdaa"), "{}", unknown.body);
    assert_eq!(
        query(addr, r#"{"fleet": {"arrays": 4}, "raid": "r5-3"}"#).status,
        400,
        "fleet without model=mc is a spec error"
    );

    // 400 naming the JSON path: keys the other front doors reject, input
    // errors that used to reach the engine, and Monte-Carlo on a
    // double-fault-tolerant geometry.
    for (body, path) in [
        (
            r#"{"model":"mc","variance":"splitting","bias":0.5}"#,
            "bias",
        ),
        (
            r#"{"model":"mc","variance":"failure-biasing","levels":3}"#,
            "levels",
        ),
        (
            r#"{"model":"mc","fleet":{"arrays":4,"failover_policy":"loss"}}"#,
            "fleet.failover_policy",
        ),
        (
            r#"{"model":"mc","fleet":{"arrays":4,"failback_rate":0.5}}"#,
            "fleet.failback_rate",
        ),
        (
            r#"{"model":"mc","variance":"failure-biasing","bias":1.5}"#,
            "bias",
        ),
        (
            r#"{"model":"mc","variance":"splitting","effort":1}"#,
            "effort",
        ),
        (
            r#"{"model":"mc","variance":"splitting","levels":0}"#,
            "levels",
        ),
        (
            r#"{"model":"mc","fleet":{"arrays":4,"domain_arrays":2,"domain_rate":-1}}"#,
            "fleet.domain_rate",
        ),
        (r#"{"model":"mc","raid":"r6-3"}"#, "raid"),
    ] {
        let reply = query(addr, body);
        assert_eq!(reply.status, 400, "{body}: {}", reply.body);
        assert!(
            reply.body.starts_with(&format!("{{\"error\":\"{path}: ")),
            "{body}: {}",
            reply.body
        );
    }

    // 413: a body one byte over the 64 KiB cap.
    let huge = " ".repeat(64 * 1024 + 1);
    assert_eq!(query(addr, &huge).status, 413);

    // 500: the model rejects the combination at run time (the Fig. 3
    // chain requires single-fault tolerance).
    let engine = query(addr, r#"{"model": "markov-failover", "raid": "r6-4"}"#);
    assert_eq!(engine.status, 500);
    assert!(engine.body.contains("error"), "{}", engine.body);

    stop_and_join(&stop, handle);
}

#[test]
fn cache_replay_is_byte_identical_and_thread_invariant() {
    let (addr, stop, handle) = start(ServeConfig::default());
    let mc = r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-3, "hep": 0.01,
                 "iterations": 300, "horizon_hours": 10000, "seed": 42}"#;

    let first = query(addr, mc);
    assert_eq!(first.status, 200);
    assert_eq!(first.headers.get("x-availsim-cache").unwrap(), "miss");
    assert!(first.body.contains("\"ci_half_width\":"), "{}", first.body);

    let second = query(addr, mc);
    assert_eq!(second.status, 200);
    assert_eq!(second.headers.get("x-availsim-cache").unwrap(), "hit");
    assert_eq!(first.body, second.body, "replay must be byte-identical");

    // Presentation-only fields (threads, deadline) hit the same cache
    // line: the determinism contract makes them invisible to the key.
    let dressed = r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-3, "hep": 0.01,
                      "iterations": 300, "horizon_hours": 10000, "seed": 42,
                      "threads": 4, "deadline_ms": 60000}"#;
    let third = query(addr, dressed);
    assert_eq!(third.headers.get("x-availsim-cache").unwrap(), "hit");
    assert_eq!(first.body, third.body);

    // A different seed is a different key.
    let other = r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-3, "hep": 0.01,
                    "iterations": 300, "horizon_hours": 10000, "seed": 43}"#;
    let fourth = query(addr, other);
    assert_eq!(fourth.headers.get("x-availsim-cache").unwrap(), "miss");
    assert_ne!(first.body, fourth.body);

    // The registry saw exactly one cache hit per replay.
    let metrics = request(addr, "GET", "/metrics", "");
    assert!(
        metrics.body.contains("availsim_serve_cache_hits_total 2"),
        "{}",
        metrics.body
    );

    stop_and_join(&stop, handle);
}

#[test]
fn expired_deadlines_answer_a_fixed_408_body() {
    let (addr, stop, handle) = start(ServeConfig::default());
    // Far more iterations than 1 ms allows; the cooperative token trips
    // inside the block scheduler and the partial work is discarded.
    let slow = r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-3, "hep": 0.01,
                   "iterations": 50000000, "horizon_hours": 100000, "seed": 7,
                   "deadline_ms": 1}"#;
    let a = query(addr, slow);
    let b = query(addr, slow);
    assert_eq!(a.status, 408);
    assert_eq!(a.body, "{\"error\":\"deadline expired\"}");
    assert_eq!(b.status, 408);
    assert_eq!(a.body, b.body, "timeouts are deterministic bytes");

    // Timeouts are never cached: nothing to replay.
    let metrics = request(addr, "GET", "/metrics", "");
    assert!(
        metrics.body.contains("availsim_serve_cache_hits_total 0"),
        "{}",
        metrics.body
    );
    assert!(
        !metrics
            .body
            .contains("availsim_serve_deadline_expiries_total 0"),
        "expiries must be counted: {}",
        metrics.body
    );

    stop_and_join(&stop, handle);
}

#[test]
fn a_queued_query_answers_408_at_its_deadline_behind_a_running_job() {
    let (addr, stop, handle) = start(ServeConfig {
        workers: 1,
        drain_ms: 300,
        ..ServeConfig::default()
    });

    // No deadline: this job holds the only run slot for seconds.
    let slow = r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-3, "hep": 0.01,
                   "iterations": 50000000, "horizon_hours": 100000, "seed": 1}"#;
    let first = thread::spawn(move || query(addr, slow));
    // The high-water mark reads 1 once the first query holds the slot.
    while !request(addr, "GET", "/metrics", "")
        .body
        .contains("\navailsim_serve_queue_depth_high_water 1\n")
    {
        assert!(!first.is_finished(), "the first query ended early");
        thread::sleep(Duration::from_millis(1));
    }

    let begun = Instant::now();
    let queued = query(
        addr,
        r#"{"model": "mc", "raid": "r5-3", "lambda": 1e-3, "hep": 0.01,
            "iterations": 1000, "horizon_hours": 10000, "seed": 2,
            "deadline_ms": 200}"#,
    );
    let waited = begun.elapsed();
    assert_eq!(queued.status, 408, "{}", queued.body);
    assert_eq!(queued.body, "{\"error\":\"deadline expired\"}");
    assert!(waited < Duration::from_secs(2), "the 408 took {waited:?}");
    assert!(!first.is_finished(), "the first still runs");

    stop_and_join(&stop, handle);
    let reply = first.join().unwrap();
    assert!(matches!(reply.status, 200 | 503), "{}", reply.body);
}

#[test]
fn synthetic_flood_sheds_deterministically_and_never_hangs() {
    // One worker and a two-slot queue: of n >> q simultaneous MC
    // queries, at most a few are admitted; the rest must shed with
    // 503 + Retry-After. Every client gets exactly one terminal answer.
    let (addr, stop, handle) = start(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    });

    let n = 16;
    let barrier = Arc::new(Barrier::new(n));
    let clients: Vec<_> = (0..n)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let body = format!(
                    "{{\"model\": \"mc\", \"raid\": \"r5-3\", \"lambda\": 1e-3, \
                     \"hep\": 0.01, \"iterations\": 4000, \"horizon_hours\": 10000, \
                     \"seed\": {i}, \"deadline_ms\": 30000}}"
                );
                barrier.wait();
                query(addr, &body)
            })
        })
        .collect();

    let replies: Vec<Reply> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let mut sheds = 0;
    for reply in &replies {
        assert!(
            matches!(reply.status, 200 | 408 | 503),
            "unexpected status {} ({})",
            reply.status,
            reply.body
        );
        if reply.status == 503 {
            sheds += 1;
            assert_eq!(
                reply.headers.get("retry-after").map(String::as_str),
                Some("1"),
                "every shed names a retry hint"
            );
        }
    }
    assert!(sheds >= 1, "a 2-slot queue must shed under 16-way flood");
    assert!(
        replies.iter().any(|r| r.status == 200),
        "admitted jobs complete"
    );

    let metrics = request(addr, "GET", "/metrics", "");
    assert!(
        metrics.body.contains("availsim_serve_sheds_total"),
        "{}",
        metrics.body
    );

    stop_and_join(&stop, handle);
}

#[test]
fn slow_clients_fill_the_handler_cap_and_the_rest_shed_at_accept() {
    let (addr, stop, handle) = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let cap = sample(
        &request(addr, "GET", "/metrics", "").body,
        "availsim_serve_connections_cap",
    );

    // `cap` clients send part of a head and stall. They connect first, so
    // the accept loop hands each one a handler before it sees the rest.
    let stalled: Vec<TcpStream> = (0..cap)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"POST /v1/query HTTP/1.1\r\nContent-Le")
                .unwrap();
            stream
        })
        .collect();

    // Whole requests past the cap, each in one write: the accept loop
    // answers them unread, and a second write could meet the close.
    let exact = r#"{"raid": "r5-7", "lambda": 1e-5, "hep": 0.01}"#;
    let whole = format!(
        "POST /v1/query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{exact}",
        exact.len()
    );
    for i in 0..16 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(whole.as_bytes()).unwrap();
        let reply = read_reply(&mut stream);
        assert_eq!(reply.status, 503, "client {i}: {}", reply.body);
        assert_eq!(
            reply.headers.get("retry-after").map(String::as_str),
            Some("1")
        );
        assert_eq!(reply.body, "{\"error\":\"connection cap\"}");
    }

    // Closing the stalled clients frees their handlers; requests that
    // race the frees are shed too, and counted with the rest.
    drop(stalled);
    let mut raced = 0;
    let metrics = loop {
        let reply = request(addr, "GET", "/metrics", "");
        if reply.status == 200 {
            break reply;
        }
        raced += 1;
        assert!(raced < 1_000, "the stalled clients' handlers never freed");
        thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        sample(&metrics.body, "availsim_serve_sheds_total"),
        16 + raced
    );
    assert_eq!(query(addr, exact).status, 200);

    stop_and_join(&stop, handle);
}

#[test]
fn drain_mid_flood_answers_every_client_within_budget() {
    let (addr, stop, handle) = start(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        drain_ms: 300,
        ..ServeConfig::default()
    });

    // Slow jobs, no deadlines: only the drain can end them early.
    let clients: Vec<_> = (0..4)
        .map(|i| {
            thread::spawn(move || {
                let body = format!(
                    "{{\"model\": \"mc\", \"raid\": \"r5-3\", \"lambda\": 1e-3, \
                     \"hep\": 0.01, \"iterations\": 50000000, \
                     \"horizon_hours\": 100000, \"seed\": {i}}}"
                );
                query(addr, &body)
            })
        })
        .collect();

    // Let the flood land, then pull the plug.
    thread::sleep(Duration::from_millis(100));
    let begun = Instant::now();
    stop.store(true, Ordering::Relaxed);
    let drained_clean = handle.join().expect("server thread");
    // In-flight 50M-iteration jobs cannot finish in 300 ms, so the drain
    // must have escalated to cooperative cancellation — and still
    // returned promptly (budget + cancellation window + slack).
    assert!(!drained_clean, "jobs this slow cannot drain cleanly");
    assert!(
        begun.elapsed() < Duration::from_secs(30),
        "drain must be bounded, took {:?}",
        begun.elapsed()
    );

    // Every client still got exactly one deterministic answer: 200 if it
    // finished, 503 if the drain cancelled or rejected it.
    for client in clients {
        let reply = client.join().unwrap();
        assert!(
            matches!(reply.status, 200 | 503),
            "unexpected status {} ({})",
            reply.status,
            reply.body
        );
        if reply.status == 503 {
            assert!(reply.headers.contains_key("retry-after"));
        }
    }
}
