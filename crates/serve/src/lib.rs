//! `availsim serve`: an overload-safe availability query service.
//!
//! A std-only HTTP/1.1 JSON daemon over the repository's estimators,
//! built for the one property a service layer can ruin: **determinism
//! under load**. The determinism contracts below make every answer a
//! pure function of its canonical query key, and the service is designed
//! so that no amount of concurrency, overload, or shutdown timing can
//! observe anything else:
//!
//! * **Result cache** ([`cache`]) — `hash(model + McConfig + seed) →
//!   estimate` is exact, not heuristic, because the engines are
//!   bit-reproducible. Repeat queries are O(1) and byte-identical to the
//!   first computation.
//! * **Admission control** ([`server`]) — a Monte-Carlo query runs on
//!   the connection handler that read it, once it holds one of `workers`
//!   run slots; up to the queue capacity wait for a slot in arrival
//!   order. A full line sheds with `503` + `Retry-After` before any work
//!   starts; cheap exact-CTMC queries bypass the run slots. Connections
//!   go to a pool of handlers capped at the queue capacity plus the
//!   workers plus a reserve for inline requests; past the cap a
//!   connection gets the same `503` at accept, unread, and each request
//!   must arrive within [`http::REQUEST_BUDGET`].
//! * **Deadlines** ([`exec`]) — per-request deadlines ride a cooperative
//!   [`CancelToken`](availsim_sim::parallel::CancelToken) into the
//!   Monte-Carlo block scheduler, and bound a query's wait for a run
//!   slot; an expired job answers a fixed `408` body, never a
//!   timing-dependent partial estimate.
//! * **Graceful drain** ([`server::Server::shutdown`], [`signal`]) —
//!   SIGTERM stops admission, in-flight jobs get the drain budget, the
//!   rest are cancelled deterministically, and the process exits 0.
//!   Shutdown is bounded: a job that never observes cancellation is left
//!   for process exit to end, and its client loses the connection.
//! * **Observability** — `/health` and `/metrics` (Prometheus text) off
//!   the shared telemetry registry's `serve` counter group.
//!
//! # Endpoints
//!
//! | Endpoint | Method | Answer |
//! |---|---|---|
//! | `/v1/query` | POST | the estimate for one JSON query |
//! | `/health` | GET | `200 ok`, or `503` while draining |
//! | `/metrics` | GET | Prometheus exposition of all counters |

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod exec;
pub mod http;
pub mod json;
pub mod query;
pub mod server;
pub mod signal;

pub use query::Query;
pub use server::{ServeConfig, Server};
