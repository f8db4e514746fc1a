//! Pacing of `availsim serve` on an idle server: back-to-back requests
//! answer at compute speed, with nothing in front of the accept. A test
//! binary of its own, so no sibling test loads the cores while it times.

use availsim_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn back_to_back_health_checks_answer_in_under_two_milliseconds() {
    let server = Server::bind(ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = thread::spawn(move || server.run(&flag).expect("accept loop"));

    let round_trip = || {
        let begun = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
        begun.elapsed()
    };
    // The first connection starts a handler; the rest reuse it.
    round_trip();
    let mut times: Vec<Duration> = (0..50).map(|_| round_trip()).collect();
    times.sort();
    let median = times[times.len() / 2];

    stop.store(true, Ordering::Relaxed);
    assert!(
        handle.join().expect("server thread"),
        "an idle drain is clean"
    );
    assert!(
        median < Duration::from_millis(2),
        "median round trip {median:?} over 50 back-to-back requests: {times:?}"
    );
}
