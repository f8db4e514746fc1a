//! Per-layer timings. Each row times one public function of one crate on
//! a fixed reference input, the same for every workload, so a row reads
//! the same layer cost whatever workload the traced run replays. The unit
//! is the name's suffix (`_ns`, `_us`, `_ms`): the median time per call.
//!
//! Reference point of the per-mission rows: RAID5(3+1), λ = 3e-6, hep =
//! 0.01, ten-year horizon — the Fig. 4 point the earlier bench snapshots
//! used — except the biased row, which runs at the paper's λ = 1e-6.

use crate::mix::{http_request, Mix, MC_MISSIONS};
use crate::stats::{median, per_call, quartiles};
use availsim_core::markov::{GenericKofN, Raid5Conventional, Raid5FailOver};
use availsim_core::mc::{
    ConventionalMc, FailOverMc, FleetMc, McConfig, McEngine, McVariance, SimWorkspace,
};
use availsim_core::ModelParams;
use availsim_exp::plan::expand;
use availsim_exp::report;
use availsim_exp::run::{run, run_cell, RunConfig};
use availsim_exp::spec::{parse_geometry_label, Scenario};
use availsim_hra::Hep;
use availsim_serve::cache::ResultCache;
use availsim_serve::exec::execute;
use availsim_serve::http::read_request;
use availsim_serve::json::Json;
use availsim_serve::Query;
use availsim_sim::parallel::ordered_parallel_map_with;
use availsim_sim::{IndexedEventQueue, SimRng};
use availsim_storage::{FailoverPolicy, FleetFailover, FleetSpec, ScrubbingModel};
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

const HORIZON: f64 = 87_600.0;

/// One measured row: metric name and value in the name's unit.
pub type Row = (String, f64);

fn params(raid: &str, lambda: f64, hep: f64) -> ModelParams {
    let geometry = parse_geometry_label(raid).expect("reference geometry");
    ModelParams::paper_defaults(geometry, lambda, Hep::new(hep).expect("reference hep"))
        .expect("reference parameters")
}

fn ns(seconds: f64) -> f64 {
    seconds * 1e9
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// The exp layer's reference campaign: a 1200-cell exact grid shaped like
/// the exact-surface workload.
fn reference_spec() -> String {
    let lambda: Vec<String> = (0..20)
        .map(|i| format!("{:?}", 10f64.powf(-6.3 + 3.0 * f64::from(i) / 19.0)))
        .collect();
    let hep: Vec<String> = (0..10)
        .map(|i| format!("{:?}", 0.005 * f64::from(i)))
        .collect();
    format!(
        "[campaign]\nname = reference\nseed = 1\nmodel = markov-conventional\ncapacity = 21\n\
         [axes]\nraid = [r1, r5-3, r5-7]\npolicy = [conventional, failover]\n\
         lambda = [{}]\nhep = [{}]\n",
        lambda.join(", "),
        hep.join(", ")
    )
}

/// Times every layer row. Returns the rows plus the fan-out verdict's
/// quartiles (threads 1 and 2), which are reported next to the medians.
pub fn measure(seed: u64) -> Result<(Vec<Row>, String), String> {
    let mut rows: Vec<Row> = Vec::new();
    let mut push = |name: &str, v: f64| rows.push((name.to_string(), v));
    let err = |e: availsim_core::CoreError| e.to_string();

    // --- sim: RNG draws -------------------------------------------------
    let mut rng = SimRng::seed_from(seed);
    push(
        "sim.rng.next_f64_ns",
        ns(per_call(|n| {
            let mut acc = 0.0;
            for _ in 0..n {
                acc += rng.next_f64();
            }
            black_box(acc);
        })),
    );
    push(
        "sim.rng.sample_exp_ns",
        ns(per_call(|n| {
            let mut acc = 0.0;
            for _ in 0..n {
                acc += rng.sample_exp(black_box(1.2e-5)).unwrap_or(0.0);
            }
            black_box(acc);
        })),
    );
    push(
        "sim.rng.sample_exp_inv_ns",
        ns(per_call(|n| {
            let mut acc = 0.0;
            for _ in 0..n {
                acc += rng.sample_exp_inv(black_box(1.0 / 1.2e-5)).unwrap_or(0.0);
            }
            black_box(acc);
        })),
    );

    // --- sim: indexed event queue, both regimes --------------------------
    let mut q: IndexedEventQueue<u32> = IndexedEventQueue::new();
    for i in 0..3 {
        q.schedule(rng.next_f64(), i).expect("finite delay");
    }
    push(
        "sim.queue.cycle_ns.n4",
        ns(per_call(|n| {
            for _ in 0..n {
                q.schedule(rng.next_f64(), 7).expect("finite delay");
                black_box(q.pop_due(f64::INFINITY));
            }
        })),
    );
    let mut q: IndexedEventQueue<u32> = IndexedEventQueue::new();
    for i in 0..4000 {
        q.schedule(rng.next_f64(), i).expect("finite delay");
    }
    const K: usize = 1000;
    let (mut sched, mut cancel, mut pop) = (Vec::new(), Vec::new(), Vec::new());
    let mut handles = Vec::with_capacity(K);
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..K {
            handles.push(q.schedule(rng.next_f64(), 1).expect("finite delay"));
        }
        sched.push(t.elapsed().as_secs_f64() / K as f64);
        let t = Instant::now();
        for h in handles.drain(..) {
            black_box(q.cancel(h));
        }
        cancel.push(t.elapsed().as_secs_f64() / K as f64);
        for _ in 0..K {
            q.schedule(rng.next_f64(), 2).expect("finite delay");
        }
        let t = Instant::now();
        for _ in 0..K {
            black_box(q.pop_due(f64::INFINITY));
        }
        pop.push(t.elapsed().as_secs_f64() / K as f64);
    }
    push("sim.queue.schedule_ns.n4000", median(&sched) * 1e9);
    push("sim.queue.cancel_ns.n4000", median(&cancel) * 1e9);
    push("sim.queue.pop_due_ns.n4000", median(&pop) * 1e9);

    // --- sim: thread fan-out ---------------------------------------------
    for (name, workers) in [
        ("sim.parallel.fanout_us.w1", 1),
        ("sim.parallel.fanout_us.w2", 2),
    ] {
        push(
            name,
            us(per_call(|n| {
                for _ in 0..n {
                    black_box(ordered_parallel_map_with(
                        64,
                        workers,
                        || 0u64,
                        |acc, i| {
                            *acc += i;
                            *acc
                        },
                        |_| false,
                    ));
                }
            })),
        );
    }

    // --- core: one mission per engine ------------------------------------
    let fig4 = params("r5-3", 3e-6, 0.01);
    let mut ws = SimWorkspace::new();
    let mut mission_ns = |sim: &dyn Fn(&mut SimRng, &mut SimWorkspace)| {
        ns(per_call(|n| {
            for _ in 0..n {
                sim(&mut rng, &mut ws);
            }
        }))
    };
    let conv = ConventionalMc::new(fig4).map_err(err)?;
    let jump_ns = mission_ns(&|r, w| {
        black_box(conv.simulate_once_with(HORIZON, r, w));
    });
    let biased = ConventionalMc::new(params("r5-3", 1e-6, 0.01)).map_err(err)?;
    let biased_ns = mission_ns(&|r, w| {
        black_box(biased.simulate_once_biased_with(HORIZON, 0.5, r, w));
    });
    let fo = FailOverMc::new(fig4).map_err(err)?;
    let fo_ns = mission_ns(&|r, w| {
        black_box(fo.simulate_once_with(HORIZON, r, w));
    });
    let conv_eq = ConventionalMc::new(fig4)
        .map_err(err)?
        .with_engine(McEngine::EventQueue);
    let eq_ns = mission_ns(&|r, w| {
        black_box(conv_eq.simulate_once_with(HORIZON, r, w));
    });
    let fo_eq = FailOverMc::new(fig4)
        .map_err(err)?
        .with_engine(McEngine::EventQueue);
    let fo_eq_ns = mission_ns(&|r, w| {
        black_box(fo_eq.simulate_once_with(HORIZON, r, w));
    });
    let scrubbed = ConventionalMc::new(
        fig4.with_scrubbing(ScrubbingModel::new(1e-4, 336.0).map_err(|e| e.to_string())?),
    )
    .map_err(err)?;
    let lse_ns = mission_ns(&|r, w| {
        black_box(scrubbed.simulate_once_with(HORIZON, r, w));
    });
    push("core.mc.jump_mission_ns", jump_ns);
    push("core.mc.jump_biased_mission_ns", biased_ns);
    push("core.mc.failover_jump_mission_ns", fo_ns);
    push("core.mc.event_queue_mission_ns", eq_ns);
    push("core.mc.failover_event_queue_mission_ns", fo_eq_ns);
    push("core.mc.jump_mission_ns.lse", lse_ns);
    let scrubbed_eq = ConventionalMc::new(*scrubbed.params())
        .map_err(err)?
        .with_engine(McEngine::EventQueue);
    push(
        "core.mc.event_queue_mission_ns.lse",
        mission_ns(&|r, w| {
            black_box(scrubbed_eq.simulate_once_with(HORIZON, r, w));
        }),
    );
    let mut tws = SimWorkspace::with_telemetry(true);
    for (name, engine) in [
        ("core.mc.jump_mission_ns.telemetry", &conv),
        ("core.mc.event_queue_mission_ns.telemetry", &conv_eq),
    ] {
        push(
            name,
            ns(per_call(|n| {
                for _ in 0..n {
                    black_box(engine.simulate_once_with(HORIZON, &mut rng, &mut tws));
                }
            })),
        );
    }

    // Time to a ±10 % relative 99 % interval at the paper's λ = 1e-6,
    // naive against failure biasing, with the missions each needed.
    let exact = Raid5Conventional::new(*biased.params())
        .and_then(|m| m.solve())
        .map_err(err)?
        .unavailability();
    for (scheme, variance, pilot, cap) in [
        ("naive", McVariance::Naive, 20_000, 16_000_000),
        ("biased", McVariance::failure_biasing(), 2_000, 400_000),
    ] {
        let cfg = McConfig {
            iterations: pilot,
            horizon_hours: HORIZON,
            seed,
            confidence: 0.99,
            threads: 1,
            variance,
            telemetry: false,
        };
        let mut missions = 0;
        let per = per_call(|n| {
            for _ in 0..n {
                let est = biased
                    .run_to_precision(&cfg, 0.1 * exact, cap)
                    .expect("reference run");
                missions = est.iterations;
            }
        });
        push(&format!("core.mc.precision_ms.{scheme}"), per * 1e3);
        push(
            &format!("count.precision_missions.{scheme}"),
            missions as f64,
        );
    }

    let geometry = fig4.geometry;
    let fleet = |spec: FleetSpec| FleetMc::new(spec, fig4).map_err(err);
    let coupled = fleet(
        FleetSpec::new(1000, geometry)
            .and_then(|s| s.with_repairmen(8))
            .and_then(|s| {
                s.with_failover(FleetFailover {
                    capacity: Some(4),
                    policy: FailoverPolicy::Queue,
                    failback_rate: fig4.disk_change_rate,
                })
            })
            .map_err(|e| e.to_string())?,
    )?;
    let mid = fleet(FleetSpec::new(100, geometry).map_err(|e| e.to_string())?)?;
    let small = fleet(FleetSpec::new(2, geometry).map_err(|e| e.to_string())?)?;
    for (name, engine, scale) in [
        ("core.mc.fleet_mission_ms.a1000", &coupled, 1e3),
        ("core.mc.fleet_mission_us.a100", &mid, 1e6),
        ("core.mc.fleet_mission_us.a2", &small, 1e6),
    ] {
        let per = per_call(|n| {
            for _ in 0..n {
                black_box(engine.simulate_once_with(HORIZON, &mut rng, &mut ws));
            }
        });
        push(name, per * scale);
    }

    // --- core: block scheduler, fan-out verdict, exact solves ------------
    let config = |iterations: u64, threads: usize| McConfig {
        iterations,
        horizon_hours: HORIZON,
        seed,
        confidence: 0.99,
        threads,
        variance: McVariance::Naive,
        telemetry: false,
    };
    let block = us(per_call(|n| {
        for _ in 0..n {
            black_box(conv.run(&config(256, 1)).expect("reference run"));
        }
    }));
    push("core.mc.run_overhead_us", block - 256.0 * jump_ns / 1e3);
    let mut verdict = Vec::new();
    for threads in [1usize, 2] {
        let samples: Vec<f64> = (0..41)
            .map(|_| {
                let t = Instant::now();
                black_box(conv.run(&config(2000, threads)).expect("reference run"));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let (q1, q3) = quartiles(&samples[1..]);
        push(
            &format!("core.mc.batch2000_us.t{threads}"),
            median(&samples[1..]),
        );
        verdict.push(format!(
            "{{\"threads\": {threads}, \"median_us\": {:?}, \"q1_us\": {q1:?}, \"q3_us\": {q3:?}, \"n\": 40}}",
            median(&samples[1..])
        ));
    }
    let p5 = params("r5-3", 1e-5, 0.01);
    push(
        "core.markov.solve_us.r5",
        us(per_call(|n| {
            for _ in 0..n {
                let m = Raid5Conventional::new(p5).expect("valid");
                black_box(m.solve().expect("solves"));
            }
        })),
    );
    let p6 = params("r6-3", 1e-4, 0.01);
    push(
        "core.markov.solve_us.kofn",
        us(per_call(|n| {
            for _ in 0..n {
                let m = GenericKofN::new(p6).expect("valid");
                black_box(m.solve().expect("solves at lambda 1e-4"));
            }
        })),
    );
    push(
        "core.markov.solve_us.failover",
        us(per_call(|n| {
            for _ in 0..n {
                let m = Raid5FailOver::new(p5).expect("valid");
                black_box(m.solve().expect("solves"));
            }
        })),
    );

    // --- exp: spec, plan, cells, reports ----------------------------------
    let text = reference_spec();
    let scenario = Scenario::parse(&text).map_err(|e| e.to_string())?;
    let plan = expand(&scenario).map_err(|e| e.to_string())?;
    push(
        "exp.spec.parse_us",
        us(per_call(|n| {
            for _ in 0..n {
                black_box(Scenario::parse(black_box(&text)).expect("reference spec parses"));
            }
        })),
    );
    push(
        "exp.plan.expand_us",
        us(per_call(|n| {
            for _ in 0..n {
                black_box(expand(&scenario).expect("reference plan expands"));
            }
        })),
    );
    let mut k = 0usize;
    push(
        "exp.run.cell_us.markov",
        us(per_call(|n| {
            for _ in 0..n {
                k = (k + 1) % plan.cells.len();
                black_box(run_cell(&plan.scenario, &plan.cells[k]).expect("exact cell"));
            }
        })),
    );
    let mc_text = format!(
        "[campaign]\nname = mc-cell\nseed = {seed}\nmodel = mc\n[axes]\nraid = r5-3\n\
         lambda = [1e-4]\nhep = [0.01]\n[mc]\niterations = {MC_MISSIONS}\n"
    );
    let mc_plan = expand(&Scenario::parse(&mc_text).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    push(
        "exp.run.cell_us.mc",
        us(per_call(|n| {
            for _ in 0..n {
                black_box(run_cell(&mc_plan.scenario, &mc_plan.cells[0]).expect("mc cell"));
            }
        })),
    );
    let result = run(
        &plan,
        &RunConfig {
            workers: 1,
            keep_going: false,
        },
    )
    .map_err(|e| e.to_string())?;
    push(
        "exp.report.csv_us",
        us(per_call(|n| {
            for _ in 0..n {
                black_box(report::to_csv(&result));
            }
        })),
    );
    push(
        "exp.report.json_us",
        us(per_call(|n| {
            for _ in 0..n {
                black_box(report::to_json(&result));
            }
        })),
    );
    push(
        "exp.report.summary_us",
        us(per_call(|n| {
            for _ in 0..n {
                black_box(report::summary(&result));
            }
        })),
    );

    // --- serve: wire, codec, key, cache, executor --------------------------
    let mix = Mix::new(seed);
    let mc_body = mix
        .fixed
        .iter()
        .find(|r| r.body.contains("\"mc\""))
        .expect("the fixed set holds mc keys")
        .body
        .clone();
    let exact_body = mix.fixed[0].body.clone();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let wire = http_request(&mc_body);
    let reads: Vec<f64> = (0..200)
        .map(|_| -> Result<f64, String> {
            let mut client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            client
                .write_all(wire.as_bytes())
                .map_err(|e| e.to_string())?;
            let (mut server, _) = listener.accept().map_err(|e| e.to_string())?;
            let t = Instant::now();
            black_box(read_request(&mut server, 64 * 1024).map_err(|e| format!("{e:?}"))?);
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<_, _>>()?;
    push("serve.http.read_request_us", median(&reads));
    push(
        "serve.json.parse_us",
        us(per_call(|n| {
            for _ in 0..n {
                black_box(Json::parse(black_box(&mc_body)).expect("valid JSON"));
            }
        })),
    );
    let doc = Json::parse(&mc_body).map_err(|e| e.to_string())?;
    push(
        "serve.query.from_json_us",
        us(per_call(|n| {
            for _ in 0..n {
                black_box(Query::from_json(black_box(&doc)).expect("valid query"));
            }
        })),
    );
    let mc_query = Query::from_json(&doc)?;
    push(
        "serve.query.canonical_key_us",
        us(per_call(|n| {
            for _ in 0..n {
                black_box(mc_query.canonical_key());
            }
        })),
    );
    let keys: Vec<String> = (0..4096u64)
        .map(|i| {
            let mut q = mc_query.clone();
            q.seed = i;
            q.canonical_key()
        })
        .collect();
    let cache = ResultCache::new(1024);
    for key in &keys[..1024] {
        cache.insert(key, &exact_body);
    }
    let mut i = 0usize;
    push(
        "serve.cache.get_hit_ns",
        ns(per_call(|n| {
            for _ in 0..n {
                i = (i + 1) % 1024;
                black_box(cache.get(&keys[i]).expect("hit"));
            }
        })),
    );
    let mut j = 1024usize;
    push(
        "serve.cache.insert_ns",
        ns(per_call(|n| {
            for _ in 0..n {
                j = (j + 1) % keys.len();
                cache.insert(&keys[j], &exact_body);
            }
        })),
    );
    let exact_query = Query::from_json(&Json::parse(&exact_body)?)?;
    push(
        "serve.exec.execute_us.exact",
        us(per_call(|n| {
            for _ in 0..n {
                black_box(execute(&exact_query, None).expect("exact query executes"));
            }
        })),
    );
    push(
        "serve.exec.execute_us.mc",
        us(per_call(|n| {
            for _ in 0..n {
                black_box(execute(&mc_query, None).expect("mc query executes"));
            }
        })),
    );
    Ok((rows, format!("[{}]", verdict.join(", "))))
}
