//! The serve-mix traffic and the open-loop load generator that plays it.
//!
//! The traffic is a seeded stream of three request kinds:
//!
//! * **read** (60 %): a replay of one key of a fixed set, answered from the
//!   result cache once the set is warm;
//! * **write** (30 %): a fresh exact query (random geometry, λ and hep),
//!   solved inline and inserted into the cache;
//! * **mc** (10 %): a fresh small Monte-Carlo query, two 256-mission blocks
//!   on two threads, which goes through admission, the job queue,
//!   `run_cell` and `ordered_parallel_map`.
//!
//! The 60/30/10 split, the 19-key fixed set and the nominal rate are
//! assumptions: the repository holds no record of real query traffic. Every
//! step therefore reports its latencies per kind as well, so a result can be
//! re-weighted once real traffic is known.
//!
//! Every answer is checked: replays must be byte-identical to the first
//! answer of their key, exact answers must equal the `core::markov` solve,
//! and Monte-Carlo answers must fall within the oracle's tolerance.

use crate::oracle;
use crate::stats::{percentile, Rng};
use crate::JsonOut;
use availsim_exp::spec::parse_geometry_label;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Missions per Monte-Carlo query: one 256-mission block per thread.
pub const MC_MISSIONS: u64 = 512;
/// Connections (and sender threads) the generator holds open at once.
pub const CONNECTIONS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Read,
    Write,
    Mc,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Read, Kind::Write, Kind::Mc];

    fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Mc => "mc",
        }
    }
}

/// What a correct answer looks like.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// Byte-identical to the first answer of fixed key `k`.
    Replay(usize),
    /// `unavailability` equals this exact solve.
    Exact(f64),
    /// `unavailability` within the Monte-Carlo tolerance of this value.
    Mc(f64),
}

#[derive(Clone, Debug)]
pub struct Request {
    pub kind: Kind,
    pub body: String,
    pub expect: Expect,
}

/// Request kinds in one block of ten: every block holds exactly this
/// mix, in a seeded order, so runs on different seeds do the same work.
const BLOCK: [Kind; 10] = [
    Kind::Read,
    Kind::Read,
    Kind::Read,
    Kind::Read,
    Kind::Read,
    Kind::Read,
    Kind::Write,
    Kind::Write,
    Kind::Write,
    Kind::Mc,
];

/// Seed of the arrival schedule and of the order of request kinds. Both
/// are one fixed Poisson sample, the same on every run, so that the spread
/// between runs measures the server rather than the luck of the draw;
/// `--seed` picks the queries.
const SCHEDULE_SEED: u64 = 0x5eed_f1a5;

/// The seeded request stream of one serve-mix run.
pub struct Mix {
    rng: Rng,
    schedule: Rng,
    /// The fixed key set that reads replay, in warm-up order.
    pub fixed: Vec<Request>,
    /// What is left of the current block of kinds.
    block: Vec<Kind>,
}

fn geometry(label: &str) -> availsim_storage::RaidGeometry {
    parse_geometry_label(label).expect("the mix only uses valid labels")
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        let mut mix = Mix {
            rng: Rng::new(seed),
            schedule: Rng::new(SCHEDULE_SEED),
            fixed: Vec::new(),
            block: Vec::new(),
        };
        for _ in 0..12 {
            let r = mix.exact_query();
            mix.fixed.push(r);
        }
        // RAID6(3+2) under the generic chain only at λ = 1e-4: at lower
        // rates the solve fails as singular (see the benchmark notes).
        for hep in [0.0, 0.001, 0.01] {
            let want = oracle::exact(true, false, geometry("r6-3"), 1e-4, hep)
                .expect("RAID6(3+2) at lambda 1e-4 solves")
                .0;
            mix.fixed.push(Request {
                kind: Kind::Write,
                body: format!(
                    "{{\"model\": \"generic-k-of-n\", \"raid\": \"r6-3\", \"lambda\": 1e-4, \"hep\": {hep:?}}}"
                ),
                expect: Expect::Exact(want),
            });
        }
        for _ in 0..4 {
            let r = mix.mc_query();
            mix.fixed.push(r);
        }
        mix
    }

    fn exact_query(&mut self) -> Request {
        let (model, failover) = if self.rng.unit() < 0.5 {
            ("markov-conventional", false)
        } else {
            ("markov-failover", true)
        };
        let raid = ["r1", "r5-3", "r5-7"][self.rng.below(3)];
        let lambda = 10f64.powf(-6.3 + 3.0 * self.rng.unit());
        let hep = 0.05 * self.rng.unit();
        let want = oracle::exact(false, failover, geometry(raid), lambda, hep)
            .expect("Fig. 2/3 chains solve on the whole mesh")
            .0;
        Request {
            kind: Kind::Write,
            body: format!(
                "{{\"model\": \"{model}\", \"raid\": \"{raid}\", \"lambda\": {lambda:?}, \"hep\": {hep:?}}}"
            ),
            expect: Expect::Exact(want),
        }
    }

    fn mc_query(&mut self) -> Request {
        // The cost of a mission grows with λ; a narrow band keeps each
        // query's cost fixed while the bits keep every key fresh.
        let lambda = 1e-4 * (1.0 + 0.01 * self.rng.unit());
        let seed = self.rng.next_u64() >> 11;
        let want = oracle::exact(false, false, geometry("r5-3"), lambda, 0.01)
            .expect("RAID5(3+1) solves")
            .0;
        Request {
            kind: Kind::Mc,
            body: format!(
                "{{\"model\": \"mc\", \"raid\": \"r5-3\", \"lambda\": {lambda:?}, \"hep\": 0.01, \
                 \"iterations\": {MC_MISSIONS}, \"horizon_hours\": 87600, \"seed\": {seed}, \"threads\": 2}}"
            ),
            expect: Expect::Mc(want),
        }
    }

    pub fn next(&mut self) -> Request {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            for i in (1..self.block.len()).rev() {
                let j = self.schedule.below(i + 1);
                self.block.swap(i, j);
            }
        }
        match self.block.pop().expect("refilled above") {
            Kind::Read => {
                let k = self.rng.below(self.fixed.len());
                Request {
                    kind: Kind::Read,
                    body: self.fixed[k].body.clone(),
                    expect: Expect::Replay(k),
                }
            }
            Kind::Write => self.exact_query(),
            Kind::Mc => self.mc_query(),
        }
    }

    /// Poisson arrival offsets (seconds) at `rate` over `seconds`,
    /// conditioned on the expected count: that many uniform times, sorted.
    pub fn arrivals(&mut self, rate: f64, seconds: f64) -> Vec<f64> {
        let n = (rate * seconds).round() as usize;
        let mut out: Vec<f64> = (0..n).map(|_| self.schedule.unit() * seconds).collect();
        out.sort_by(f64::total_cmp);
        out
    }
}

/// The request bytes for a query body.
pub fn http_request(body: &str) -> String {
    format!(
        "POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// A parsed response: status, whether the cache answered, and the body.
pub struct Reply {
    pub status: u16,
    pub hit: bool,
    pub body: String,
    pub first_byte: Instant,
}

/// Reads one whole response (the server closes after each).
pub fn read_reply(stream: &mut TcpStream) -> std::io::Result<Reply> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    let first_byte = Instant::now();
    buf.extend_from_slice(&chunk[..n]);
    stream.read_to_end(&mut buf)?;
    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok(Reply {
        status,
        hit: head.contains("X-Availsim-Cache: hit"),
        body: body.to_string(),
        first_byte,
    })
}

fn exchange(addr: SocketAddr, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(http_request(body).as_bytes())?;
    read_reply(&mut stream)
}

/// The number after `"key":` in a flat JSON body.
fn field(body: &str, key: &str) -> Option<f64> {
    let start = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Whether `reply` is a correct answer to a request expecting `expect`.
pub fn correct(expect: Expect, reply: &Reply, first_answers: &[String]) -> bool {
    if reply.status != 200 {
        return false;
    }
    match expect {
        Expect::Replay(k) => first_answers.get(k) == Some(&reply.body),
        Expect::Exact(want) => field(&reply.body, "unavailability")
            .is_some_and(|u| (u - want).abs() <= 1e-9 * want.abs()),
        Expect::Mc(want) => match (
            field(&reply.body, "unavailability"),
            field(&reply.body, "ci_half_width"),
        ) {
            (Some(u), Some(hw)) => oracle::mc_agrees(u, hw, want),
            _ => false,
        },
    }
}

/// One played request, times in seconds from the step's start.
#[derive(Clone, Copy)]
pub struct Sample {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub ok: bool,
    pub hit: bool,
}

/// Plays `reqs[i]` at `dues[i]` on [`CONNECTIONS`] sender threads. The
/// loop is open: a request's latency runs from its due time, so time a
/// sender spent stuck on an earlier request counts against later ones.
pub fn play(addr: SocketAddr, reqs: &[Request], dues: &[f64], first: &[String]) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let since = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut all: Vec<(usize, Sample)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= reqs.len() {
                            return out;
                        }
                        let due = start + Duration::from_secs_f64(dues[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let (ok, hit) = match exchange(addr, &reqs[i].body) {
                            Ok(reply) => (correct(reqs[i].expect, &reply, first), reply.hit),
                            Err(_) => (false, false),
                        };
                        out.push((
                            i,
                            Sample {
                                due: dues[i],
                                sent: since(sent),
                                done: since(Instant::now()),
                                ok,
                                hit,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, s)| s).collect()
}

/// Latency percentiles of a step in ms; a failed request counts as
/// missing every limit.
fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            if s.ok {
                (s.done - s.due) * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Latency percentiles per request kind, as a JSON object.
fn per_kind(samples: &[Sample], reqs: &[Request]) -> String {
    let mut o = JsonOut::default();
    for kind in Kind::ALL {
        let mine: Vec<Sample> = samples
            .iter()
            .zip(reqs)
            .filter(|(_, r)| r.kind == kind)
            .map(|(s, _)| *s)
            .collect();
        let lat = latencies_ms(&mine);
        let mut k = JsonOut::default();
        k.int("n", lat.len() as u64);
        k.num("p50_ms", percentile(&lat, 50.0));
        k.num("p99_ms", percentile(&lat, 99.0));
        o.raw(kind.name(), k.render());
    }
    o.render()
}

/// Warms the fixed key set, plays a closed-loop burst of `burst` requests,
/// then plays one open-loop step per offered rate, up to and including the
/// first step that misses the limit. The burst sends each request as soon
/// as a connection is free and reports the time from the first send to the
/// last answer. Each step reports its latency percentiles, overall and per
/// kind, how late the generator ran (overall p99, and p90 over the step's
/// last quarter, which grows when a backlog builds) and its failures.
pub fn load(
    addr: &str,
    seed: u64,
    burst: usize,
    rates: &[f64],
    step_seconds: f64,
    limit_ms: f64,
) -> Result<String, String> {
    let addr: SocketAddr = addr.parse().map_err(|_| format!("bad address `{addr}`"))?;
    let mut mix = Mix::new(seed);
    let mut warm_failed = 0u64;
    let mut first = Vec::new();
    for r in &mix.fixed {
        match exchange(addr, &r.body) {
            Ok(reply) => {
                if !correct(r.expect, &reply, &[]) {
                    warm_failed += 1;
                    eprintln!("load: warm-up answer failed its check: {}", reply.body);
                }
                first.push(reply.body);
            }
            Err(e) => return Err(format!("warm-up request failed: {e}")),
        }
    }
    let reqs: Vec<Request> = (0..burst).map(|_| mix.next()).collect();
    let samples = play(addr, &reqs, &vec![0.0; burst], &first);
    let mut b = JsonOut::default();
    b.int("attempted", samples.len() as u64);
    b.int("failed", samples.iter().filter(|s| !s.ok).count() as u64);
    b.num("wall_s", samples.iter().map(|s| s.done).fold(0.0, f64::max));
    let mut steps = Vec::new();
    for &rate in rates {
        let dues = mix.arrivals(rate, step_seconds);
        let reqs: Vec<Request> = dues.iter().map(|_| mix.next()).collect();
        let samples = play(addr, &reqs, &dues, &first);
        let lat = latencies_ms(&samples);
        let lag: Vec<f64> = samples.iter().map(|s| (s.sent - s.due) * 1e3).collect();
        let tail = &lag[lag.len() * 3 / 4..];
        let failed = samples.iter().filter(|s| !s.ok).count() as u64;
        let mut o = JsonOut::default();
        o.num("rate", rate);
        o.int("attempted", samples.len() as u64);
        o.int("failed", failed);
        o.int("hits", samples.iter().filter(|s| s.hit).count() as u64);
        o.int(
            "mc",
            reqs.iter().filter(|r| r.kind == Kind::Mc).count() as u64,
        );
        o.num("p50_ms", percentile(&lat, 50.0));
        o.num("p99_ms", percentile(&lat, 99.0));
        o.num("mean_ms", lat.iter().sum::<f64>() / lat.len().max(1) as f64);
        o.raw("kinds", per_kind(&samples, &reqs));
        o.num("lag_p99_ms", percentile(&lag, 99.0));
        o.num("tail_lag_p90_ms", percentile(tail, 90.0));
        let passes =
            failed == 0 && percentile(&lat, 99.0) <= limit_ms && percentile(tail, 90.0) <= limit_ms;
        o.int("passes", u64::from(passes));
        steps.push(o.render());
        if !passes {
            break;
        }
    }
    let mut out = JsonOut::default();
    out.int("warm_attempted", mix.fixed.len() as u64);
    out.int("warm_failed", warm_failed);
    out.int(
        "warm_mc",
        mix.fixed.iter().filter(|r| r.kind == Kind::Mc).count() as u64,
    );
    out.raw("burst", b.render());
    out.raw("steps", format!("[{}]", steps.join(", ")));
    Ok(out.render())
}
