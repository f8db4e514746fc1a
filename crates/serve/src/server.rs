//! The daemon: accept loop, connection handlers, admission control,
//! worker pool, and drain.
//!
//! # Connections
//!
//! One thread blocks in `accept` and hands each connection to a pool of
//! connection handlers. The pool starts handlers on demand and reuses
//! them, and it holds at most `queue_capacity` + workers +
//! `INLINE_RESERVE` connections at once, so a full Monte-Carlo queue
//! still leaves handlers for exact and cached queries. A handler reads one
//! request within [`REQUEST_BUDGET`](crate::http::REQUEST_BUDGET),
//! answers it, and closes the connection.
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
//! Exact CTMC queries solve in microseconds and bypass the Monte-Carlo
//! job queue entirely — overload of the expensive path never starves the
//! cheap one.
//!
//! # Drain
//!
//! [`Server::run`] stops accepting when asked to stop (or on SIGTERM via
//! [`crate::signal`]), then drains: in-flight jobs get `drain_ms` to
//! finish; whatever remains is cooperatively cancelled (queued jobs
//! answer `503`, running jobs stop at the next scheduling block and
//! answer `503`), the workers and then the connection handlers are
//! joined, and the process can exit 0.

use crate::cache::ResultCache;
use crate::exec::{self, ExecError};
use crate::http::{read_request, Budgeted, ReadError, Request, Response};
use crate::json::Json;
use crate::query::Query;
use availsim_sim::parallel::{resolve_workers, CancelToken};
use availsim_sim::telemetry::{write_counters, Counter, CounterSnapshot, PrometheusWriter};
use std::collections::VecDeque;
use std::io::{self, Read as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Connection handlers beyond one per queue slot and worker: a full
/// Monte-Carlo queue still leaves this many for exact solves, cache hits,
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
    /// Monte-Carlo worker threads; `0` means **auto** (the machine's
    /// available parallelism), the same contract as `--threads 0`.
    pub workers: usize,
    /// Bounded job queue: submissions beyond this depth are shed with
    /// `503` + `Retry-After` instead of queuing without limit.
    pub queue_capacity: usize,
    /// Default per-request deadline in milliseconds for requests that do
    /// not set `deadline_ms`; `0` means no default deadline.
    pub default_deadline_ms: u64,
    /// Drain budget in milliseconds: how long shutdown waits for
    /// in-flight jobs before cancelling them cooperatively.
    pub drain_ms: u64,
    /// Result-cache entries to keep (FIFO eviction); `0` disables.
    pub cache_capacity: usize,
    /// Request body cap; larger bodies answer `413`.
    pub max_body_bytes: usize,
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
            max_body_bytes: 64 * 1024,
        }
    }
}

/// How one admitted job ended.
#[derive(Debug, Clone)]
enum JobOutcome {
    /// The rendered response body (also inserted into the cache).
    Ok(String),
    /// The request deadline expired before the job finished.
    Deadline,
    /// The server drained before the job ran to completion.
    Draining,
    /// The engine failed the model.
    Engine(String),
}

/// The rendezvous between a connection thread and the worker running its
/// job. The queue guarantees every submitted slot is eventually
/// completed (by a worker or by the drain path), so waiting needs no
/// timeout of its own.
#[derive(Debug, Default)]
struct Slot {
    outcome: Mutex<Option<JobOutcome>>,
    cv: Condvar,
}

impl Slot {
    fn complete(&self, outcome: JobOutcome) {
        let mut slot = self.outcome.lock().expect("slot lock");
        *slot = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> JobOutcome {
        let mut slot = self.outcome.lock().expect("slot lock");
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self.cv.wait(slot).expect("slot lock");
        }
    }
}

/// One admitted Monte-Carlo job.
struct Job {
    query: Query,
    key: String,
    cancel: CancelToken,
    slot: Arc<Slot>,
}

/// Why a submission was rejected at admission.
#[derive(Debug)]
enum SubmitError {
    /// The queue is at capacity.
    Full,
    /// The server is draining.
    Draining,
}

#[derive(Default)]
struct QueueInner {
    jobs: VecDeque<Job>,
    /// Jobs currently executing on workers.
    active: usize,
    /// Tokens of executing jobs, so drain can cancel them. Append-only
    /// while anything is active; cleared whenever the pool goes idle.
    active_tokens: Vec<CancelToken>,
    draining: bool,
    closed: bool,
}

/// The bounded job queue (mutex + condvar; workers block on `pop`).
struct JobQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner::default()),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Admission control: rejects instead of blocking. Returns the queue
    /// depth after the push, for the high-water counter.
    fn submit(&self, job: Job) -> Result<usize, SubmitError> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.draining || inner.closed {
            return Err(SubmitError::Draining);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(SubmitError::Full);
        }
        inner.jobs.push_back(job);
        let depth = inner.jobs.len();
        self.cv.notify_one();
        Ok(depth)
    }

    /// Blocks for the next job; `None` once the queue is closed and empty
    /// (worker shutdown).
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                inner.active += 1;
                inner.active_tokens.push(job.cancel.clone());
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).expect("queue lock");
        }
    }

    fn job_done(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.active -= 1;
        if inner.active == 0 {
            inner.active_tokens.clear();
        }
        self.cv.notify_all();
    }

    /// Whether nothing is queued or executing.
    fn idle(&self) -> bool {
        let inner = self.inner.lock().expect("queue lock");
        inner.jobs.is_empty() && inner.active == 0
    }

    fn start_draining(&self) {
        self.inner.lock().expect("queue lock").draining = true;
    }

    /// The hard half of drain: every queued job answers `503` without
    /// running, every executing job's token is tripped.
    fn cancel_everything(&self) {
        let (queued, tokens) = {
            let mut inner = self.inner.lock().expect("queue lock");
            let queued: Vec<Job> = inner.jobs.drain(..).collect();
            let tokens = inner.active_tokens.clone();
            (queued, tokens)
        };
        for job in queued {
            job.slot.complete(JobOutcome::Draining);
        }
        for token in tokens {
            token.cancel();
        }
    }

    fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.cv.notify_all();
    }

    fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").jobs.len()
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

    fn lock(&self) -> std::sync::MutexGuard<'_, Pool> {
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
    queue: JobQueue,
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

/// The availability service. [`bind`](Server::bind) spawns the worker
/// pool; [`run`](Server::run) blocks on the accept loop until asked to
/// stop, then drains.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
    workers: Vec<JoinHandle<()>>,
    handler_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds 127.0.0.1 on the configured port and starts the worker pool.
    /// Connection handlers start later, as connections arrive.
    ///
    /// # Errors
    /// Socket errors (port in use, …).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let workers = resolve_workers(config.workers).max(1);
        let queue_capacity = config.queue_capacity.max(1);
        let state = Arc::new(ServerState {
            queue: JobQueue::new(queue_capacity),
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
        let workers = (0..workers)
            .map(|_| {
                let state = Arc::clone(&state);
                thread::spawn(move || worker_loop(&state))
            })
            .collect();
        Ok(Server {
            listener,
            addr,
            state,
            workers,
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
    /// budget, cancel stragglers, join the workers, then join the
    /// connection handlers once each has answered its connection (a
    /// handler still reading waits out at most the request budget).
    /// Returns whether the budget sufficed without cancellation.
    pub fn shutdown(self) -> bool {
        // Connections from here on are refused, not left in the backlog
        // until the handlers are joined.
        drop(self.listener);
        self.state.draining.store(true, Ordering::Relaxed);
        self.state.queue.start_draining();
        let budget = Duration::from_millis(self.state.config.drain_ms);
        let deadline = Instant::now() + budget;
        let mut drained = true;
        while !self.state.queue.idle() {
            if Instant::now() >= deadline {
                drained = false;
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        if !drained {
            self.state.queue.cancel_everything();
            // Cancellation is cooperative at block granularity, so give
            // the workers the same budget again to observe it; a second
            // overrun means a wedged engine, which joining would turn
            // into a hang — proceed to close regardless.
            let hard = Instant::now() + budget;
            while !self.state.queue.idle() && Instant::now() < hard {
                thread::sleep(Duration::from_millis(2));
            }
        }
        self.state.queue.close();
        for handle in self.workers {
            let _ = handle.join();
        }
        self.state.handlers.close();
        for handle in self.handler_threads {
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

fn worker_loop(state: &ServerState) {
    while let Some(job) = state.queue.pop() {
        let outcome = if job.cancel.is_cancelled() {
            // Expired (or drain-cancelled) while still queued: answer
            // without burning any engine time.
            cancelled_outcome(&job.cancel)
        } else {
            match exec::execute(&job.query, Some(&job.cancel)) {
                Ok((body, counters)) => {
                    state.cache.insert(&job.key, &body);
                    state.merge_counters(&counters);
                    JobOutcome::Ok(body)
                }
                Err(ExecError::Deadline) => cancelled_outcome(&job.cancel),
                Err(ExecError::Engine(msg)) => JobOutcome::Engine(msg),
            }
        };
        if matches!(outcome, JobOutcome::Deadline) {
            state.bump(Counter::ServeDeadlineExpiries);
        }
        job.slot.complete(outcome);
        state.queue.job_done();
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
    let (response, fully_read) = match read_request(stream, state.config.max_body_bytes) {
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
        state.queue.depth() as u64,
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
    if let Err(msg) = exec::validate(&query) {
        return error_response(400, &msg);
    }

    let key = query.canonical_key();
    if let Some(body) = state.cache.get(&key) {
        state.bump(Counter::ServeCacheHits);
        return Response::json(200, body).with_header("X-Availsim-Cache", "hit");
    }

    // Exact CTMC queries solve in microseconds: answer inline, never
    // competing with Monte-Carlo jobs for queue slots or workers.
    if query.is_exact() {
        return match exec::execute(&query, None) {
            Ok((body, counters)) => {
                state.cache.insert(&key, &body);
                state.merge_counters(&counters);
                Response::json(200, body).with_header("X-Availsim-Cache", "miss")
            }
            Err(ExecError::Engine(msg)) => error_response(500, &msg),
            Err(ExecError::Deadline) => unreachable!("exact queries run uncancelled"),
        };
    }

    let deadline_ms = query
        .deadline_ms
        .or((state.config.default_deadline_ms > 0).then_some(state.config.default_deadline_ms));
    let cancel = match deadline_ms {
        Some(ms) => CancelToken::with_deadline(Instant::now() + Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    let slot = Arc::new(Slot::default());
    let job = Job {
        query,
        key,
        cancel,
        slot: Arc::clone(&slot),
    };
    match state.queue.submit(job) {
        Ok(depth) => {
            state.record_max(Counter::ServeQueueDepthHighWater, depth as u64);
        }
        Err(SubmitError::Full) => {
            state.bump(Counter::ServeSheds);
            return shed_response("queue full");
        }
        Err(SubmitError::Draining) => {
            state.bump(Counter::ServeSheds);
            return shed_response("draining");
        }
    }
    match slot.wait() {
        JobOutcome::Ok(body) => Response::json(200, body).with_header("X-Availsim-Cache", "miss"),
        // A fixed body: deterministic bytes, never a partial estimate.
        JobOutcome::Deadline => error_response(408, "deadline expired"),
        JobOutcome::Draining => shed_response("draining"),
        JobOutcome::Engine(msg) => error_response(500, &msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn mc_job(seed: u64, iterations: u64, cancel: CancelToken) -> (Job, Arc<Slot>) {
        let doc = format!(
            "{{\"model\": \"mc\", \"raid\": \"r5-3\", \"lambda\": 1e-3, \"hep\": 0.01, \
             \"iterations\": {iterations}, \"horizon_hours\": 10000, \"seed\": {seed}}}"
        );
        let query = Query::from_json(&Json::parse(&doc).unwrap()).unwrap();
        let key = query.canonical_key();
        let slot = Arc::new(Slot::default());
        (
            Job {
                query,
                key,
                cancel,
                slot: Arc::clone(&slot),
            },
            slot,
        )
    }

    #[test]
    fn queue_sheds_at_capacity_and_drain_answers_queued_jobs() {
        let queue = JobQueue::new(2);
        let (a, _sa) = mc_job(1, 100, CancelToken::new());
        let (b, sb) = mc_job(2, 100, CancelToken::new());
        let (c, _sc) = mc_job(3, 100, CancelToken::new());
        assert!(queue.submit(a).is_ok());
        assert!(queue.submit(b).is_ok());
        assert!(matches!(queue.submit(c), Err(SubmitError::Full)));

        queue.start_draining();
        let (d, _sd) = mc_job(4, 100, CancelToken::new());
        assert!(matches!(queue.submit(d), Err(SubmitError::Draining)));

        // No worker ever ran: the drain path must still complete every
        // queued slot so no client hangs.
        queue.cancel_everything();
        assert!(matches!(sb.wait(), JobOutcome::Draining));
        assert!(queue.depth() == 0);
    }

    #[test]
    fn pop_returns_none_only_after_close() {
        let queue = JobQueue::new(4);
        let (a, sa) = mc_job(1, 50, CancelToken::new());
        queue.submit(a).unwrap();
        let job = queue.pop().unwrap();
        job.slot.complete(JobOutcome::Ok("x".into()));
        queue.job_done();
        assert!(matches!(sa.wait(), JobOutcome::Ok(_)));
        assert!(queue.idle());
        queue.close();
        assert!(queue.pop().is_none());
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
