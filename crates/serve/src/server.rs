//! The daemon: accept loop, connection handlers, admission control, and
//! drain.
//!
//! # Connections
//!
//! One thread blocks in `accept` and hands each connection to a pool of
//! connection handlers. The pool starts handlers on demand and reuses
//! them, and it holds at most `queue_capacity` + workers +
//! `INLINE_RESERVE` connections at once, so a full Monte-Carlo line
//! still leaves handlers for exact and cached queries. A handler reads one
//! request within [`REQUEST_BUDGET`](crate::http::REQUEST_BUDGET),
//! answers it, and closes the connection.
//!
//! # Monte-Carlo jobs
//!
//! A Monte-Carlo query runs on the handler that read it, once it holds
//! one of `workers` run slots. Up to `queue_capacity` more queries wait
//! for a slot in arrival order; a query that finds every slot taken and
//! the line full is shed. A waiting query leaves the line as soon as its
//! token trips (its deadline passes or the drain cancels it) and answers
//! without running.
//!
//! # Overload contract
//!
//! Every request gets exactly one of a small set of deterministic
//! outcomes, no matter how hard the service is flooded:
//!
//! * `200` — the estimate, byte-identical for a given canonical key
//!   whether computed or replayed from the cache.
//! * `408` — the request's deadline expired; a fixed body, never a
//!   partial estimate.
//! * `503` + `Retry-After` — shed at accept (every handler slot is
//!   taken; the request is never read), at admission (queue full), or
//!   during drain. The job never starts, so shedding costs O(1).
//! * `400` / `404` / `405` / `413` / `431` — client errors.
//! * `500` — the engine rejected the model at run time.
//!
//! Exact CTMC queries solve in microseconds and bypass the run slots
//! entirely — overload of the expensive path never starves the cheap one.
//!
//! # Drain
//!
//! [`Server::run`] stops accepting when asked to stop (or on SIGTERM via
//! [`crate::signal`]), then drains: in-flight jobs get `drain_ms` to
//! finish; whatever remains is cooperatively cancelled (waiting queries
//! answer `503` at once, running jobs stop at the next scheduling block
//! and answer `503`) and gets `drain_ms` again, and the connection
//! handlers are joined. A job still running after that never observes
//! cancellation: its handler gets one more `drain_ms`, and is then left
//! for process exit to end, so shutdown is bounded.

use crate::cache::ResultCache;
use crate::exec::{self, ExecError};
use crate::http::{read_request, Budgeted, ReadError, Request, Response, MAX_BODY_BYTES};
use crate::json::Json;
use crate::query::Query;
use availsim_sim::parallel::{resolve_workers, CancelToken};
use availsim_sim::telemetry::{write_counters, Counter, CounterSnapshot, PrometheusWriter};
use std::collections::VecDeque;
use std::io::{self, Read as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Connection handlers beyond one per place in line and run slot: a full
/// Monte-Carlo line still leaves this many for exact solves, cache hits,
/// `/health` and `/metrics`.
const INLINE_RESERVE: usize = 16;

/// How often the stop watcher looks at the stop flag (off the request
/// path: it only decides how soon a stop wakes the accept loop).
const STOP_POLL: Duration = Duration::from_millis(5);

/// How long the stop watcher's wake-up connection may take to connect.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

/// The pause after `accept` runs out of descriptors or buffers, so the
/// loop does not spin while handlers free some.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Request bytes a shed at accept reads off (only what has arrived).
const SHED_READ_LIMIT: u64 = 64 * 1024;

/// How long a handler reads off the rest of a request it rejected unread.
const UNREAD_DRAIN: Duration = Duration::from_millis(200);

/// Service configuration; every knob has a safe default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// TCP port on 127.0.0.1; `0` picks an ephemeral port.
    pub port: u16,
    /// Monte-Carlo jobs that run at once, each on the connection handler
    /// that read it; `0` means **auto** (the machine's available
    /// parallelism), the same contract as `--threads 0`.
    pub workers: usize,
    /// Monte-Carlo queries that may wait for a run slot; a query that finds
    /// the line this long is shed with `503` + `Retry-After` instead of
    /// waiting without limit.
    pub queue_capacity: usize,
    /// Default per-request deadline in milliseconds for requests that do
    /// not set `deadline_ms`; `0` means no default deadline.
    pub default_deadline_ms: u64,
    /// Drain budget in milliseconds: how long shutdown waits for
    /// in-flight jobs before cancelling them cooperatively.
    pub drain_ms: u64,
    /// Result-cache entries to keep (FIFO eviction); `0` disables.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            workers: 0,
            queue_capacity: 64,
            default_deadline_ms: 0,
            drain_ms: 2_000,
            cache_capacity: 1_024,
        }
    }
}

/// Why a Monte-Carlo job ended without an estimate: its token tripped.
#[derive(Debug)]
enum JobOutcome {
    /// The request deadline expired before the job finished.
    Deadline,
    /// The server drained before the job ran to completion.
    Draining,
}

/// Admission to the Monte-Carlo run slots. A query holds a slot while it
/// runs on its own handler; when every slot is taken it waits in line, and
/// a slot given up goes to the longest-waiting query. So no query waits
/// while a slot is free, and a query that finds the line full has found
/// every slot taken too.
struct Gate {
    line: Mutex<Line>,
    cv: Condvar,
    slots: usize,
    capacity: usize,
}

/// The queries admitted and not yet answered, each as its ticket and
/// token; the tokens let the drain cancel them.
#[derive(Default)]
struct Line {
    /// Queries holding a run slot.
    running: Vec<(u64, CancelToken)>,
    /// Queries waiting for one, oldest first.
    waiting: VecDeque<(u64, CancelToken)>,
    next_ticket: u64,
    draining: bool,
}

impl Line {
    fn holds_slot(&self, ticket: u64) -> bool {
        self.running.iter().any(|&(t, _)| t == ticket)
    }

    /// Takes a query out, handing its run slot, if it held one, to the
    /// longest-waiting query.
    fn remove(&mut self, ticket: u64) {
        if let Some(at) = self.waiting.iter().position(|&(t, _)| t == ticket) {
            self.waiting.remove(at);
        } else if let Some(at) = self.running.iter().position(|&(t, _)| t == ticket) {
            self.running.swap_remove(at);
            self.running.extend(self.waiting.pop_front());
        }
    }
}

impl Gate {
    fn new(slots: usize, capacity: usize) -> Gate {
        Gate {
            line: Mutex::new(Line::default()),
            cv: Condvar::new(),
            slots,
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Line> {
        self.line.lock().expect("gate lock")
    }

    /// Admission control: a query takes a free run slot or a place in
    /// line, or is shed with the reason its `503` gives; it never blocks.
    /// Returns the query's ticket, and the number waiting right after it
    /// arrived, itself included, for the high-water counter.
    fn join(&self, cancel: &CancelToken) -> Result<(u64, usize), &'static str> {
        let mut line = self.lock();
        if line.draining {
            return Err("draining");
        }
        let ticket = line.next_ticket;
        let depth = line.waiting.len() + 1;
        if line.running.len() < self.slots {
            line.running.push((ticket, cancel.clone()));
        } else if line.waiting.len() < self.capacity {
            line.waiting.push_back((ticket, cancel.clone()));
        } else {
            return Err("queue full");
        }
        line.next_ticket += 1;
        Ok((ticket, depth))
    }

    /// Blocks until the query holds a run slot (`true`), or until its token
    /// trips (`false`): then it leaves the line at once, handing on any
    /// slot it was given, and must not run.
    fn wait_turn(&self, ticket: u64, cancel: &CancelToken) -> bool {
        let mut line = self.lock();
        while !cancel.is_cancelled() {
            if line.holds_slot(ticket) {
                return true;
            }
            line = match cancel.deadline() {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    self.cv.wait_timeout(line, left).expect("gate lock").0
                }
                None => self.cv.wait(line).expect("gate lock"),
            };
        }
        drop(line);
        self.leave(ticket);
        false
    }

    /// Gives up a query's place: its run slot goes to the longest-waiting
    /// query.
    fn leave(&self, ticket: u64) {
        self.lock().remove(ticket);
        self.cv.notify_all();
    }

    /// Waits up to `budget` for every admitted query to leave; returns
    /// whether they did.
    fn wait_idle(&self, budget: Duration) -> bool {
        let deadline = Instant::now() + budget;
        let mut line = self.lock();
        while !(line.running.is_empty() && line.waiting.is_empty()) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            line = self.cv.wait_timeout(line, left).expect("gate lock").0;
        }
        true
    }

    fn start_draining(&self) {
        self.lock().draining = true;
    }

    /// The hard half of drain: trips every admitted query's token, so
    /// waiting queries leave at once and running ones stop at their next
    /// block. Tripped under the lock, so no waiter checks its token and
    /// then sleeps through the wake-up.
    fn cancel_everything(&self) {
        let line = self.lock();
        for (_, token) in line.running.iter().chain(&line.waiting) {
            token.cancel();
        }
        self.cv.notify_all();
    }

    /// Queries waiting for a run slot.
    fn depth(&self) -> usize {
        self.lock().waiting.len()
    }
}

/// The connection handlers' shared half. Handlers start on demand and
/// serve one connection after another until the pool closes. Every live
/// handler is either idle or owns one open connection, so `idle + open`
/// handlers are alive, and admission keeps `open <= cap`.
struct Handlers {
    pool: Mutex<Pool>,
    cv: Condvar,
    cap: usize,
}

#[derive(Default)]
struct Pool {
    /// Admitted connections no handler has taken yet.
    pending: VecDeque<TcpStream>,
    /// Connections admitted and not yet answered, `pending` included.
    open: usize,
    /// Live handlers not owed a connection from `pending`.
    idle: usize,
    closed: bool,
}

impl Handlers {
    fn new(cap: usize) -> Handlers {
        Handlers {
            pool: Mutex::new(Pool::default()),
            cv: Condvar::new(),
            cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Pool> {
        self.pool.lock().expect("handler pool lock")
    }

    /// Lets the handlers exit once `pending` is empty.
    fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Connections open now, and the most the pool holds at once.
    fn occupancy(&self) -> (usize, usize) {
        (self.lock().open, self.cap)
    }
}

/// Shared server state.
struct ServerState {
    config: ServeConfig,
    gate: Gate,
    handlers: Handlers,
    cache: ResultCache,
    counters: Mutex<CounterSnapshot>,
    draining: AtomicBool,
}

impl ServerState {
    fn bump(&self, c: Counter) {
        self.counters.lock().expect("counter lock").add(c, 1);
    }

    fn record_max(&self, c: Counter, v: u64) {
        self.counters.lock().expect("counter lock").record_max(c, v);
    }

    fn merge_counters(&self, snap: &CounterSnapshot) {
        self.counters.lock().expect("counter lock").merge(snap);
    }
}

/// The availability service. [`bind`](Server::bind) binds the port;
/// [`run`](Server::run) blocks on the accept loop until asked to stop,
/// then drains.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
    handler_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds 127.0.0.1 on the configured port. It starts no thread:
    /// connection handlers start as connections arrive.
    ///
    /// # Errors
    /// Socket errors (port in use, …).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let workers = resolve_workers(config.workers).max(1);
        let queue_capacity = config.queue_capacity.max(1);
        let state = Arc::new(ServerState {
            gate: Gate::new(workers, queue_capacity),
            handlers: Handlers::new(
                queue_capacity
                    .saturating_add(workers)
                    .saturating_add(INLINE_RESERVE),
            ),
            cache: ResultCache::new(config.cache_capacity),
            counters: Mutex::new(CounterSnapshot::default()),
            draining: AtomicBool::new(false),
            config,
        });
        Ok(Server {
            listener,
            addr,
            state,
            handler_threads: Vec::new(),
        })
    }

    /// The bound address (query it when `port = 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until `stop` becomes true, then drains and returns whether
    /// every in-flight job finished within the drain budget (cancelled
    /// jobs still answered deterministically either way).
    ///
    /// The accept blocks; a watcher thread polls `stop` and wakes it by
    /// connecting to the server's own address. Connections past the
    /// handler cap get `503` at accept, unread.
    ///
    /// # Errors
    /// A failure of the listener itself, returned after the drain. Errors
    /// that concern one connection are retried, and the loop backs off
    /// briefly when it runs out of descriptors.
    pub fn run(mut self, stop: &AtomicBool) -> io::Result<bool> {
        let accepting = AtomicBool::new(true);
        let addr = self.addr;
        let accepted = thread::scope(|s| {
            s.spawn(|| watch_stop(stop, &accepting, addr));
            let accepted = self.accept_loop(stop);
            accepting.store(false, Ordering::Relaxed);
            accepted
        });
        let drained = self.shutdown();
        accepted.map(|()| drained)
    }

    fn accept_loop(&mut self, stop: &AtomicBool) -> io::Result<()> {
        while !stop.load(Ordering::Relaxed) {
            match self.listener.accept() {
                // The watcher's wake-up connection lands here.
                Ok(_) if stop.load(Ordering::Relaxed) => break,
                Ok((stream, _)) => self.admit(stream),
                Err(e) => match accept_action(&e) {
                    AcceptAction::Retry => {}
                    AcceptAction::Backoff => thread::sleep(ACCEPT_BACKOFF),
                    AcceptAction::Fatal => return Err(e),
                },
            }
        }
        Ok(())
    }

    /// Hands a connection to an idle handler, or to a new one when none is
    /// idle, or sheds it when the pool is at its cap.
    fn admit(&mut self, stream: TcpStream) {
        let handlers = &self.state.handlers;
        let mut pool = handlers.lock();
        if pool.open >= handlers.cap {
            drop(pool);
            shed_unread(&self.state, stream);
            return;
        }
        pool.open += 1;
        pool.pending.push_back(stream);
        if pool.idle > 0 {
            pool.idle -= 1;
            handlers.cv.notify_one();
            return;
        }
        // Started under the lock, so a failed start can take its
        // connection back out of `pending`.
        let state = Arc::clone(&self.state);
        match thread::Builder::new().spawn(move || handler_loop(&state)) {
            Ok(handle) => self.handler_threads.push(handle),
            Err(_) => {
                pool.open -= 1;
                let stream = pool.pending.pop_back().expect("pushed above");
                drop(pool);
                shed_unread(&self.state, stream);
            }
        }
    }

    /// Graceful drain: stop admitting, give in-flight jobs the drain
    /// budget, cancel stragglers, then join the connection handlers once
    /// each has answered its connection (a handler still reading waits out
    /// at most the request budget). Returns whether the budget sufficed
    /// without cancellation.
    ///
    /// Cancellation is cooperative at block granularity, so cancelled
    /// jobs get the same budget again to observe it. A second overrun
    /// means a wedged engine, which joining would turn into a hang: the
    /// handlers then get one more budget, those that finished are joined,
    /// and the rest are left for process exit to end.
    pub fn shutdown(self) -> bool {
        // Connections from here on are refused, not left in the backlog
        // until the handlers are joined.
        drop(self.listener);
        self.state.draining.store(true, Ordering::Relaxed);
        self.state.gate.start_draining();
        let budget = Duration::from_millis(self.state.config.drain_ms);
        let drained = self.state.gate.wait_idle(budget);
        let stopped = drained || {
            self.state.gate.cancel_everything();
            self.state.gate.wait_idle(budget)
        };
        self.state.handlers.close();
        let mut handles = self.handler_threads;
        if !stopped {
            let hard = Instant::now() + budget;
            while handles.iter().any(|h| !h.is_finished()) && Instant::now() < hard {
                thread::sleep(Duration::from_millis(2));
            }
            handles.retain(JoinHandle::is_finished);
        }
        for handle in handles {
            let _ = handle.join();
        }
        drained
    }
}

/// Wakes the blocking accept once `stop` is set, by connecting to the
/// listener; it connects again each poll until the accept loop has seen
/// the stop, in case a full backlog timed the connect out.
fn watch_stop(stop: &AtomicBool, accepting: &AtomicBool, addr: SocketAddr) {
    while accepting.load(Ordering::Relaxed) {
        if stop.load(Ordering::Relaxed) {
            let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
        }
        thread::sleep(STOP_POLL);
    }
}

/// What the accept loop does after `accept` fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptAction {
    /// The error concerns one connection: accept the next.
    Retry,
    /// Out of descriptors or buffers: pause, then accept again.
    Backoff,
    /// The listener itself failed.
    Fatal,
}

/// Linux errno values of `accept(2)` failures that std files under
/// `ErrorKind::Uncategorized`.
mod errno {
    pub const ENFILE: i32 = 23;
    pub const EMFILE: i32 = 24;
    pub const ENONET: i32 = 64;
    pub const EPROTO: i32 = 71;
    pub const ENOPROTOOPT: i32 = 92;
    pub const ENOBUFS: i32 = 105;
    pub const EHOSTDOWN: i32 = 112;
}

/// Sorts an `accept` error by what failed. Linux reports a new
/// connection's pending network error through `accept`, and accept(2) says
/// to retry those; so is an aborted connection, or one a firewall rule
/// refused (`PermissionDenied`). Running out of descriptors, buffers or
/// memory backs off, since finishing handlers free them. Anything else (a
/// bad descriptor, a socket that is not listening) is the listener failing.
fn accept_action(e: &io::Error) -> AcceptAction {
    use errno::*;
    use io::ErrorKind as K;
    let raw = e.raw_os_error().filter(|_| cfg!(target_os = "linux"));
    match (e.kind(), raw) {
        (K::OutOfMemory, _) | (_, Some(ENFILE | EMFILE | ENOBUFS)) => AcceptAction::Backoff,
        (
            K::Interrupted
            | K::WouldBlock
            | K::ConnectionAborted
            | K::ConnectionReset
            | K::PermissionDenied
            | K::TimedOut
            | K::NetworkDown
            | K::NetworkUnreachable
            | K::HostUnreachable
            | K::Unsupported,
            _,
        )
        | (_, Some(ENONET | EPROTO | ENOPROTOOPT | EHOSTDOWN)) => AcceptAction::Retry,
        _ => AcceptAction::Fatal,
    }
}

/// A connection handler: takes connections off `pending` until the pool
/// closes.
fn handler_loop(state: &ServerState) {
    let mut pool = state.handlers.lock();
    loop {
        if let Some(mut stream) = pool.pending.pop_front() {
            drop(pool);
            handle_connection(state, &mut stream);
            pool = state.handlers.lock();
            pool.open -= 1;
            pool.idle += 1;
            // Closed only once uncounted: a client that reads its answer
            // to EOF and connects again never finds its old connection
            // still held against the cap.
            drop(stream);
        } else if pool.closed {
            return;
        } else {
            pool = state.handlers.cv.wait(pool).expect("handler pool lock");
        }
    }
}

/// Distinguishes the two ways a token trips: a passed deadline is the
/// request's own timeout (`408`); a bare cancel is the server draining
/// (`503`).
fn cancelled_outcome(cancel: &CancelToken) -> JobOutcome {
    if cancel.deadline().is_some_and(|d| Instant::now() >= d) {
        JobOutcome::Deadline
    } else {
        JobOutcome::Draining
    }
}

fn shed_response(reason: &str) -> Response {
    error_response(503, reason).with_header("Retry-After", "1")
}

/// `{"error":"<message>"}`, the message through the shared string writer.
fn error_response(status: u16, message: &str) -> Response {
    let body = format!("{{\"error\":{}}}", availsim_sim::json::string(message));
    Response::json(status, body)
}

/// Answers `503` at accept without reading the request, and without
/// blocking on the peer: the answer fits an empty send buffer.
fn shed_unread(state: &ServerState, mut stream: TcpStream) {
    state.bump(Counter::ServeSheds);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = shed_response("connection cap").write(&mut stream);
    let _ = stream.shutdown(Shutdown::Write);
    // Request bytes left unread would turn the close into a TCP RST that
    // can junk the answer before the client reads it; read off what has
    // arrived.
    let _ = io::copy(&mut (&stream).take(SHED_READ_LIMIT), &mut io::sink());
}

fn handle_connection(state: &ServerState, stream: &mut TcpStream) {
    let (response, fully_read) = match read_request(stream, MAX_BODY_BYTES) {
        Ok(request) => {
            state.bump(Counter::ServeRequests);
            (route(state, &request), true)
        }
        Err(ReadError::Malformed(msg)) => (error_response(400, &msg), false),
        Err(ReadError::HeadTooLarge) => (error_response(431, "request head too large"), false),
        Err(ReadError::BodyTooLarge) => (error_response(413, "request body too large"), false),
        // No parseable request to answer; the socket is gone or garbage.
        Err(ReadError::Io(_)) => return,
    };
    let _ = response.write(stream);
    if !fully_read {
        // Unread request bytes would turn our close into a TCP RST and
        // junk the response before the client reads it; drain briefly.
        let _ = stream.shutdown(Shutdown::Write);
        let _ = io::copy(&mut Budgeted::new(stream, UNREAD_DRAIN), &mut io::sink());
    }
}

fn route(state: &ServerState, request: &Request) -> Response {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/health") => {
            if state.draining.load(Ordering::Relaxed) {
                Response::json(503, "{\"status\":\"draining\"}").with_header("Retry-After", "1")
            } else {
                Response::json(200, "{\"status\":\"ok\"}")
            }
        }
        ("GET", "/metrics") => metrics_response(state),
        ("POST", "/v1/query") => handle_query(state, &request.body),
        (_, "/health" | "/metrics" | "/v1/query") => error_response(405, "method not allowed"),
        _ => error_response(404, "not found"),
    }
}

fn metrics_response(state: &ServerState) -> Response {
    let snap = *state.counters.lock().expect("counter lock");
    let mut w = PrometheusWriter::new();
    w.comment("availsim serve");
    w.metric_u64(
        "availsim_serve_queue_depth",
        "Monte-Carlo jobs currently queued",
        "gauge",
        state.gate.depth() as u64,
    );
    let (open, cap) = state.handlers.occupancy();
    w.metric_u64(
        "availsim_serve_connections_open",
        "Connections held by connection handlers, this one included",
        "gauge",
        open as u64,
    );
    w.metric_u64(
        "availsim_serve_connections_cap",
        "Connections held at most; past it, connections are shed at accept",
        "gauge",
        cap as u64,
    );
    w.metric_u64(
        "availsim_serve_cache_entries",
        "Entries live in the result cache",
        "gauge",
        state.cache.len() as u64,
    );
    write_counters(&mut w, &snap);
    Response::text(200, w.finish())
}

fn handle_query(state: &ServerState, body: &[u8]) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return error_response(400, "body is not UTF-8"),
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(msg) => return error_response(400, &format!("bad JSON: {msg}")),
    };
    let query = match Query::from_json(&doc) {
        Ok(query) => query,
        Err(msg) => return error_response(400, &msg),
    };

    let key = query.canonical_key();
    if let Some(body) = state.cache.get(&key) {
        state.bump(Counter::ServeCacheHits);
        return Response::json(200, body).with_header("X-Availsim-Cache", "hit");
    }

    // Exact CTMC queries solve in microseconds: answer inline, never
    // competing with Monte-Carlo jobs for run slots.
    if query.is_exact() {
        return compute(state, &query, &key, None).expect("exact queries run uncancelled");
    }

    let deadline_ms = query
        .deadline_ms
        .or((state.config.default_deadline_ms > 0).then_some(state.config.default_deadline_ms));
    let cancel = match deadline_ms {
        Some(ms) => CancelToken::with_deadline(Instant::now() + Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    let ticket = match state.gate.join(&cancel) {
        Ok((ticket, depth)) => {
            state.record_max(Counter::ServeQueueDepthHighWater, depth as u64);
            ticket
        }
        Err(reason) => {
            state.bump(Counter::ServeSheds);
            return shed_response(reason);
        }
    };
    if state.gate.wait_turn(ticket, &cancel) {
        let answer = compute(state, &query, &key, Some(&cancel));
        state.gate.leave(ticket);
        if let Some(response) = answer {
            return response;
        }
    }
    match cancelled_outcome(&cancel) {
        // A fixed body: deterministic bytes, never a partial estimate.
        JobOutcome::Deadline => {
            state.bump(Counter::ServeDeadlineExpiries);
            error_response(408, "deadline expired")
        }
        JobOutcome::Draining => shed_response("draining"),
    }
}

/// Runs a query and caches its answer: `200` with the estimate, `500`
/// when the engine fails the model, or `None` when the token tripped.
fn compute(
    state: &ServerState,
    query: &Query,
    key: &str,
    cancel: Option<&CancelToken>,
) -> Option<Response> {
    match exec::execute(query, cancel) {
        Ok((body, counters)) => {
            state.cache.insert(key, &body);
            state.merge_counters(&counters);
            Some(Response::json(200, body).with_header("X-Availsim-Cache", "miss"))
        }
        Err(ExecError::Engine(msg)) => Some(error_response(500, &msg)),
        Err(ExecError::Deadline) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_sheds_past_a_full_line_and_refuses_while_draining() {
        let gate = Gate::new(1, 2);
        let token = CancelToken::new();
        // Ticket and waiting count: the first takes the slot, so the
        // count is its own arrival; the next two wait.
        assert_eq!(gate.join(&token), Ok((0, 1)));
        assert_eq!(gate.join(&token), Ok((1, 1)));
        assert_eq!(gate.join(&token), Ok((2, 2)));
        assert_eq!(gate.join(&token), Err("queue full"));
        assert_eq!(gate.depth(), 2);
        gate.leave(0);
        assert_eq!(gate.depth(), 1, "the slot went to the line's head");
        assert_eq!(gate.join(&token), Ok((3, 2)));

        gate.start_draining();
        assert_eq!(gate.join(&token), Err("draining"));
    }

    #[test]
    fn freed_slots_go_to_waiters_in_arrival_order() {
        let gate = Gate::new(1, 4);
        let token = CancelToken::new();
        let (first, _) = gate.join(&token).unwrap();
        let (second, _) = gate.join(&token).unwrap();
        let (third, _) = gate.join(&token).unwrap();
        // A waiter never woken trips this deadline instead of hanging.
        let backstop = CancelToken::with_deadline(Instant::now() + Duration::from_secs(30));
        thread::scope(|s| {
            let waiter = s.spawn(|| gate.wait_turn(third, &backstop));
            gate.leave(first);
            let line = gate.lock();
            assert!(line.holds_slot(second) && !line.holds_slot(third));
            drop(line);
            gate.leave(second);
            assert!(waiter.join().unwrap(), "the third runs next");
        });
    }

    #[test]
    fn drain_answers_a_waiting_query_503_without_running_it() {
        let gate = Gate::new(1, 4);
        let (running, _) = gate.join(&CancelToken::new()).unwrap();
        let token = CancelToken::new();
        let (waiting, _) = gate.join(&token).unwrap();
        thread::scope(|s| {
            let waiter = s.spawn(|| gate.wait_turn(waiting, &token));
            gate.start_draining();
            gate.cancel_everything();
            assert!(!waiter.join().unwrap(), "a cancelled query never runs");
        });
        assert!(matches!(cancelled_outcome(&token), JobOutcome::Draining));
        assert_eq!(gate.depth(), 0, "it left the line");
        gate.leave(running);
        assert!(gate.wait_idle(Duration::ZERO));
    }

    #[test]
    fn shutdown_leaves_a_wedged_job_to_process_exit() {
        let drain_ms = 100;
        let mut server = Server::bind(ServeConfig {
            workers: 1,
            drain_ms,
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port");
        // A job that never observes cancellation: it holds the only run
        // slot and never gives it up, and its handler never returns.
        server.state.gate.join(&CancelToken::new()).unwrap();
        server.handler_threads.push(thread::spawn(|| loop {
            thread::park();
        }));
        let begun = Instant::now();
        assert!(!server.shutdown());
        let took = begun.elapsed();
        assert!(
            took < Duration::from_millis(2 * drain_ms + 1_000),
            "shutdown took {took:?}"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn accept_errors_retry_back_off_or_fail_the_listener() {
        let action = |errno| accept_action(&io::Error::from_raw_os_error(errno));
        // EPERM, EINTR, EAGAIN, ENONET, EPROTO, ENOPROTOOPT, EOPNOTSUPP,
        // ENETDOWN, ENETUNREACH, ECONNABORTED, ECONNRESET, ETIMEDOUT,
        // EHOSTDOWN, EHOSTUNREACH: one connection's trouble.
        for errno in [1, 4, 11, 64, 71, 92, 95, 100, 101, 103, 104, 110, 112, 113] {
            assert_eq!(action(errno), AcceptAction::Retry, "errno {errno}");
        }
        // ENOMEM, ENFILE, EMFILE, ENOBUFS: exhaustion that handlers relieve.
        for errno in [12, 23, 24, 105] {
            assert_eq!(action(errno), AcceptAction::Backoff, "errno {errno}");
        }
        // EBADF, EFAULT, EINVAL (not listening), ENOTSOCK: the listener.
        for errno in [9, 14, 22, 88] {
            assert_eq!(action(errno), AcceptAction::Fatal, "errno {errno}");
        }
    }

    #[test]
    fn cancelled_outcome_separates_deadline_from_drain() {
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(matches!(cancelled_outcome(&expired), JobOutcome::Deadline));
        let drained = CancelToken::new();
        drained.cancel();
        assert!(matches!(cancelled_outcome(&drained), JobOutcome::Draining));
    }
}
