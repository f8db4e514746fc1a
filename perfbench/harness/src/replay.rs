//! The traced run: per-layer rows plus an in-process replay of the
//! workload with spans recorded from this file, around each call into a
//! layer's public functions.
//!
//! * Batch workloads replay parse → expand → `run_cell` per cell → render
//!   for every spec of the workload.
//! * `serve-mix` replays the same seeded traffic over loopback: the client
//!   records due/sent/first-byte/done, the server side records read →
//!   parse → `from_json` → validate → key → cache → `execute` → write.
//!
//! Spans stay in memory until the run ends. A span's self time is its
//! duration minus its children's. Each replay runs twice, untraced and
//! traced; the ratio of the two is the tracing overhead.

use crate::layers;
use crate::mix::{correct, http_request, read_reply, Mix, Request};
use crate::JsonOut;
use availsim_exp::plan::expand;
use availsim_exp::report;
use availsim_exp::run::{run_cell, CampaignResult};
use availsim_exp::spec::Scenario;
use availsim_serve::cache::ResultCache;
use availsim_serve::exec::{execute, validate};
use availsim_serve::http::{read_request, Response};
use availsim_serve::json::Json;
use availsim_serve::Query;
use availsim_sim::stats::RunningStats;
use availsim_sim::telemetry::CounterSnapshot;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const NO_PARENT: usize = usize::MAX;

struct Span {
    name: &'static str,
    parent: usize,
    /// Request the span belongs to (serve replay), for cross-thread links.
    req: usize,
    start: Instant,
    end: Instant,
}

/// An in-memory span recorder; disabled, it records nothing.
struct Spans {
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    fn new(on: bool) -> Spans {
        Spans {
            on,
            spans: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, parent: usize, req: usize) -> usize {
        if !self.on {
            return NO_PARENT;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            req,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        if self.on {
            self.spans[id].end = Instant::now();
        }
    }

    /// Records a span whose times were taken elsewhere (client side).
    fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        req: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            parent,
            req,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Per span name: (count, total seconds, self seconds).
    fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let dur = |s: &Span| s.end.saturating_duration_since(s.start).as_secs_f64();
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur(s);
            e.2 += dur(s) - child[i];
        }
        out
    }
}

/// The pipeline stage each span's self time is charged to. Both front
/// doors share the shape ingest → plan → compute → emit.
fn stage(name: &str) -> &'static str {
    match name {
        "spec.parse" | "http.read_request" | "json.parse" | "query.from_json" | "exec.validate" => {
            "ingest"
        }
        "plan.expand" | "query.canonical_key" | "cache.get" | "cache.insert" => "plan",
        "run" | "run.cell" | "exec.execute" => "compute",
        "report" | "report.csv" | "report.json" | "report.summary" | "http.write" => "emit",
        _ => "transport",
    }
}

/// Builds the campaign result the CLI would render from replayed cells.
fn campaign(scenario: Scenario, cells: Vec<availsim_exp::run::CellResult>) -> CampaignResult {
    let mut unavailability_stats = RunningStats::new();
    let mut timing_stats = RunningStats::new();
    let mut counters = CounterSnapshot::default();
    for c in &cells {
        unavailability_stats.push(c.unavailability);
        timing_stats.push(c.elapsed_micros as f64);
        counters.merge(&c.counters);
    }
    CampaignResult {
        scenario,
        cells,
        unavailability_stats,
        timing_stats,
        counters,
        workers: 1,
        keep_going: false,
        failed_cells: 0,
        wall_micros: 0,
    }
}

/// One pass over every spec; returns the pass's wall seconds and cells.
fn batch_pass(texts: &[String], tr: &mut Spans) -> Result<(f64, u64), String> {
    let mut replayed = 0u64;
    let started = Instant::now();
    for text in texts {
        let s = tr.begin("spec.parse", NO_PARENT, 0);
        let scenario = Scenario::parse(text).map_err(|e| e.to_string())?;
        tr.end(s);
        let s = tr.begin("plan.expand", NO_PARENT, 0);
        let plan = expand(&scenario).map_err(|e| e.to_string())?;
        tr.end(s);
        let run = tr.begin("run", NO_PARENT, 0);
        let mut cells = Vec::with_capacity(plan.cells.len());
        for cell in &plan.cells {
            let s = tr.begin("run.cell", run, 0);
            cells.push(run_cell(&plan.scenario, cell).map_err(|e| e.to_string())?);
            tr.end(s);
        }
        tr.end(run);
        replayed += cells.len() as u64;
        let result = campaign(plan.scenario.clone(), cells);
        let rep = tr.begin("report", NO_PARENT, 0);
        let s = tr.begin("report.csv", rep, 0);
        black_box(report::to_csv(&result));
        tr.end(s);
        let s = tr.begin("report.json", rep, 0);
        black_box(report::to_json(&result));
        tr.end(s);
        let s = tr.begin("report.summary", rep, 0);
        black_box(report::summary(&result));
        tr.end(s);
        tr.end(rep);
    }
    Ok((started.elapsed().as_secs_f64(), replayed))
}

/// The server side of the serve replay: the product's request path, one
/// connection at a time, with a span around each layer call.
fn serve_one(stream: &mut TcpStream, cache: &ResultCache, tr: &mut Spans, req: usize) {
    let top = tr.begin("server.request", NO_PARENT, req);
    let s = tr.begin("http.read_request", top, req);
    let request = read_request(stream, 64 * 1024);
    tr.end(s);
    let response = match request {
        Ok(request) => {
            let s = tr.begin("json.parse", top, req);
            let doc = std::str::from_utf8(&request.body)
                .map_err(|e| e.to_string())
                .and_then(Json::parse);
            tr.end(s);
            let s = tr.begin("query.from_json", top, req);
            let query = doc.and_then(|d| Query::from_json(&d));
            tr.end(s);
            let s = tr.begin("exec.validate", top, req);
            let query = query.and_then(|q| validate(&q).map(|()| q));
            tr.end(s);
            match query {
                Err(msg) => Response::json(400, msg),
                Ok(query) => {
                    let s = tr.begin("query.canonical_key", top, req);
                    let key = query.canonical_key();
                    tr.end(s);
                    let s = tr.begin("cache.get", top, req);
                    let hit = cache.get(&key);
                    tr.end(s);
                    match hit {
                        Some(body) => Response::json(200, body),
                        None => {
                            let s = tr.begin("exec.execute", top, req);
                            let answer = execute(&query, None);
                            tr.end(s);
                            match answer {
                                Ok((body, _)) => {
                                    let s = tr.begin("cache.insert", top, req);
                                    cache.insert(&key, &body);
                                    tr.end(s);
                                    Response::json(200, body)
                                }
                                Err(e) => Response::json(500, format!("{e:?}")),
                            }
                        }
                    }
                }
            }
        }
        Err(e) => Response::json(400, format!("{e:?}")),
    };
    let s = tr.begin("http.write", top, req);
    let _ = response.write(stream);
    tr.end(s);
    tr.end(top);
}

/// One open-loop serve pass at `rate` for `seconds`. Returns the mean
/// sent→done latency in seconds, the failures, and the merged spans.
fn serve_pass(
    seed: u64,
    rate: f64,
    seconds: f64,
    on: bool,
) -> Result<(f64, u64, u64, Spans), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut mix = Mix::new(seed);
    let warm = mix.fixed.clone();
    let dues = mix.arrivals(rate, seconds);
    let reqs: Vec<Request> = warm
        .iter()
        .cloned()
        .chain(dues.iter().map(|_| mix.next()))
        .collect();
    let total = reqs.len();
    let server = std::thread::spawn(move || {
        let cache = ResultCache::new(1024);
        let mut tr = Spans::new(on);
        for req in 0..total {
            if let Ok((mut stream, _)) = listener.accept() {
                serve_one(&mut stream, &cache, &mut tr, req);
            }
        }
        tr
    });
    let mut client = Spans::new(on);
    let mut first: Vec<String> = Vec::new();
    let mut failed = 0u64;
    let mut lat = Vec::new();
    let start = Instant::now() + Duration::from_millis(20);
    for (i, r) in reqs.iter().enumerate() {
        // The warm-up set goes back to back; the rest follows the schedule.
        let due = match i.checked_sub(warm.len()) {
            Some(k) => start + Duration::from_secs_f64(dues[k]),
            None => Instant::now(),
        };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .write_all(http_request(&r.body).as_bytes())
            .map_err(|e| e.to_string())?;
        let reply = read_reply(&mut stream).map_err(|e| e.to_string())?;
        let done = Instant::now();
        if i < warm.len() {
            first.push(reply.body.clone());
        }
        let ok = if i < warm.len() {
            reply.status == 200
        } else {
            correct(r.expect, &reply, &first)
        };
        failed += u64::from(!ok);
        lat.push(done.duration_since(sent).as_secs_f64());
        let top = client.record("client.request", NO_PARENT, i, due.min(sent), done);
        client.record("client.due_to_sent", top, i, due.min(sent), sent);
        client.record("client.sent_to_first_byte", top, i, sent, reply.first_byte);
        client.record("client.first_byte_to_done", top, i, reply.first_byte, done);
    }
    let server_spans = server.join().map_err(|_| "replay server panicked")?;
    // Link each server.request under its client's sent→first-byte span.
    let offset = client.spans.len();
    let mut waiting = vec![NO_PARENT; total];
    for (i, s) in client.spans.iter().enumerate() {
        if s.name == "client.sent_to_first_byte" {
            waiting[s.req] = i;
        }
    }
    for mut s in server_spans.spans {
        s.parent = if s.parent == NO_PARENT {
            waiting[s.req]
        } else {
            s.parent + offset
        };
        client.spans.push(s);
    }
    let mean = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    Ok((mean, total as u64, failed, client))
}

/// The `trace` subcommand: layer rows, the replay's self times and the
/// tracing overhead, as one JSON object.
pub fn trace(
    workload: &str,
    seed: u64,
    specs: &[String],
    rate: Option<f64>,
    seconds: f64,
) -> Result<String, String> {
    let (rows, verdict) = layers::measure(seed)?;
    let (plain, traced, spans, attempted, failed) = if workload == "serve-mix" {
        let rate = rate.ok_or("serve-mix needs --rate")?;
        let replay_seconds = (seconds / 6.0).max(1.0);
        let (plain, n1, f1, _) = serve_pass(seed, rate, replay_seconds, false)?;
        let (traced, n2, f2, spans) = serve_pass(seed, rate, replay_seconds, true)?;
        (plain, traced, spans, n1 + n2, f1 + f2)
    } else {
        let texts = specs
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("cannot read `{p}`: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let (plain, n1) = batch_pass(&texts, &mut Spans::new(false))?;
        let mut spans = Spans::new(true);
        let (traced, n2) = batch_pass(&texts, &mut spans)?;
        (plain, traced, spans, n1 + n2, 0)
    };
    let times = spans.self_times();
    let mut stages: BTreeMap<&str, f64> = ["ingest", "plan", "compute", "emit"]
        .into_iter()
        .map(|s| (s, 0.0))
        .collect();
    let mut detail = Vec::new();
    for (name, (count, total, own)) in &times {
        if let Some(v) = stages.get_mut(stage(name)) {
            *v += own;
        }
        detail.push(format!(
            "{{\"span\": \"{name}\", \"stage\": \"{}\", \"count\": {count}, \"total_ms\": {:?}, \"self_ms\": {:?}}}",
            stage(name),
            total * 1e3,
            own * 1e3
        ));
    }
    let mut out = JsonOut::default();
    for (name, v) in &rows {
        out.num(name, *v);
    }
    for (stage, own) in &stages {
        out.num(&format!("trace.self_ms.{stage}"), own * 1e3);
    }
    // Pass wall seconds (batch) or mean request latency seconds (serve).
    out.num("trace.overhead_ratio", traced / plain);
    out.num("replay.untraced_s", plain);
    out.num("replay.traced_s", traced);
    out.int("replay.attempted", attempted);
    out.int("replay.failed", failed);
    out.raw("spans", format!("[{}]", detail.join(", ")));
    out.raw("fanout_verdict", verdict);
    Ok(out.render())
}
