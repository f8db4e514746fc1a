#!/usr/bin/env python3
"""The availsim benchmark: four workloads through `availsim batch` and `availsim serve`.

Run from the repository root:

    python3 perfbench/run.py --workload mc-campaign --seed 1 --seconds 15 --trace 0

Workloads: mc-campaign, fleet-campaign, exact-surface, serve-mix (see README.md).

--trace 0 measures the end-to-end metrics: the release `availsim` binary runs as a
child process on inputs generated from --seed, for about --seconds seconds.
--trace 1 measures the per-layer metrics: the in-process harness (perfbench/harness)
times each crate's public functions and replays the workload with spans, one CLI
run with --metrics (or a serve session's /metrics) supplies the engine counters,
and the cost model sets counter x per-event cost against the measured CPU.

Every output is checked against the exact chains. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the lines before it
are a human-readable report. Both binaries are built from source first, into
$CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("mc-campaign", "fleet-campaign", "exact-surface", "serve-mix")
# Every run uses at most the reference host's two cores: two campaign
# workers, two serve workers, two generator connections.
WORKERS = 2
# Set-up is measured in rounds: SETUP_ROUNDS before the batch repetitions
# and one after each (serve-mix: SETUP_ROUNDS before and after each session).
# A round's sample is the best of SETUP_BEST back-to-back spawns, and the
# run reports the median sample: a single spawn of a few milliseconds moves
# with every hiccup of the host.
SETUP_ROUNDS = 5
SETUP_BEST = 3
# Measured batch repetitions per run: at least this many, then as many as
# the time budget allows.
MIN_REPS = 4
# serve-mix: the closed-loop burst each session starts with, the nominal
# offered rate, the share of --seconds it runs (1500 requests at 25 s) and
# the sessions it is split into, the p99 limit, and the fixed offered-rate
# sweep with its step length. The rate and the mix of request kinds are
# assumptions (see README.md).
BURST = 300
NOMINAL_RPS = 100.0
NOMINAL_SHARE = 0.6
NOMINAL_SESSIONS = 3
LATENCY_LIMIT_MS = 50.0
SWEEP_RPS = (250.0, 300.0, 350.0, 400.0, 450.0, 500.0, 600.0, 800.0)
SWEEP_STEP_SHARE = 0.08


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def say(*parts):
    """A line of the human-readable report on stdout."""
    print(*parts, flush=True)


def die(message):
    log(f"error: {message}")
    sys.exit(2)


# --------------------------------------------------------------------------
# Inputs. Every generator is a pure function of the seed. The seed moves the
# campaign seeds and jitters the meshes; it never changes how much work a
# run does, so runs on different seeds measure the same work.
# --------------------------------------------------------------------------


def spec_text(name, seed, model, axes, mc=None, fleet=None, capacity=None):
    lines = ["[campaign]", f"name = {name}", f"seed = {seed}", f"model = {model}"]
    if capacity is not None:
        lines.append(f"capacity = {capacity}")
    lines.append("[axes]")
    lines += [f"{k} = [{', '.join(str(v) for v in vals)}]" for k, vals in axes]
    for section, body in (("mc", mc), ("fleet", fleet)):
        if body:
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in body]
    return "\n".join(lines) + "\n"


def mc_campaign(rng):
    """Figs. 4-6 as Monte-Carlo: the jump chain and the RNG do the work.

    RAID6 is left out: the Monte-Carlo engines model single-fault tolerance
    only, so their RAID6(3+2) cells sit 300x from the exact chain.
    """
    mc = [("iterations", 100000), ("horizon_hours", 87600)]
    raids = ["r1", "r5-3", "r5-7"]
    grid = spec_text(
        "mc-grid",
        rng.getrandbits(63),
        "mc",
        [("raid", raids), ("policy", ["conventional", "failover"]),
         ("lambda", ["1e-5", "1e-4"]), ("hep", ["0", "0.01"])],
        mc=mc,
    )
    biased = spec_text(
        "mc-biased",
        rng.getrandbits(63),
        "mc",
        [("raid", raids), ("lambda", ["1e-6"]), ("hep", ["0", "0.01"])],
        mc=mc + [("variance", "failure-biasing")],
    )
    return [("mc-grid", grid, "mc", 24), ("mc-biased", biased, "mc", 6)]


def fleet_campaign(rng):
    """The fleet engine in both indexed-queue regimes, with crews and a DR site."""
    large = spec_text(
        "fleet-a1000",
        rng.getrandbits(63),
        "mc",
        [("raid", ["r5-3"]), ("lambda", ["3e-6"]), ("hep", ["0.01"])],
        mc=[("iterations", 512), ("horizon_hours", 87600), ("threads", 2)],
        fleet=[("arrays", 1000), ("repairmen", 8), ("failover_capacity", 4),
               ("failover_policy", "queue")],
    )
    small = spec_text(
        "fleet-a2",
        rng.getrandbits(63),
        "mc",
        [("raid", ["r5-3"]), ("lambda", ["1e-5", "1e-4"]), ("hep", ["0", "0.01"])],
        mc=[("iterations", 12500), ("horizon_hours", 87600)],
        fleet=[("arrays", 2)],
    )
    return [("fleet-a1000", large, "mc", 1), ("fleet-a2", small, "mc", 4)]


def exact_surface(rng):
    """A dense exact grid: parse, plan, CTMC solves and report rendering.

    The generic k-of-n chain is left out: on RAID6(3+2) it fails as
    singular at 9 of 15 points of the paper's grid.
    """
    n_lambda, n_hep = 100, 60
    shift = rng.uniform(-0.01, 0.01)
    lambdas = [repr(10 ** (-6.3 + 3.0 * i / (n_lambda - 1) + shift)) for i in range(n_lambda)]
    hep_step = 0.05 / (n_hep - 1)
    heps = ["0"] + [repr(round(hep_step * (i + rng.uniform(-0.2, 0.2)), 7)) for i in range(1, n_hep)]
    text = spec_text(
        "exact-surface",
        rng.getrandbits(63),
        "markov-conventional",
        [("raid", ["r1", "r5-3", "r5-7"]), ("policy", ["conventional", "failover"]),
         ("lambda", lambdas), ("hep", heps)],
        capacity=21,
    )
    return [("exact-surface", text, "markov-conventional", 6 * n_lambda * n_hep)]


SPECS = {"mc-campaign": mc_campaign, "fleet-campaign": fleet_campaign,
         "exact-surface": exact_surface}


# --------------------------------------------------------------------------
# Build and child processes
# --------------------------------------------------------------------------


def build(root):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest in ("Cargo.toml", os.path.join("perfbench", "harness", "Cargo.toml")):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, check=False)
        if done.returncode != 0:
            log(done.stderr.decode(errors="replace"))
            die(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "availsim"), os.path.join(release, "perfbench-harness")


class Child:
    """A finished child: wall seconds, CPU seconds, peak RSS in MB, exit code
    and stderr."""

    def __init__(self, wall, cpu, rss_mb, code, stderr):
        self.wall, self.cpu, self.rss_mb, self.code, self.stderr = wall, cpu, rss_mb, code, stderr


def reap(proc, started):
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_child(argv, stdout_path):
    """Runs argv to completion; stdout goes to a file."""
    with open(stdout_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE)
        err = proc.stderr.read()
        proc.stderr.close()
        wall, cpu, rss = reap(proc, started)
    return Child(wall, cpu, rss, proc.returncode, err.decode(errors="replace"))


def harness(binary, *args):
    done = subprocess.run([binary, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    sys.stderr.write(done.stderr.decode(errors="replace"))
    if done.returncode != 0:
        die(f"harness {args[0]} failed")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


class Serve:
    """An `availsim serve` child on an ephemeral port."""

    def __init__(self, availsim, stderr_path):
        self.err = open(stderr_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [availsim, "serve", "--port", "0", "--workers", str(WORKERS)],
            stdout=subprocess.PIPE, stderr=self.err)
        line = self.proc.stdout.readline().decode()
        self.ready = time.perf_counter() - self.started
        if "listening on http://" not in line:
            self.stop()
            die(f"serve did not start: {line!r}")
        self.addr = line.split("http://", 1)[1].strip()

    def metrics(self):
        host, port = self.addr.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
        conn.close()
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values

    def stop(self):
        """SIGTERM (the drain path), then reap: (wall, cpu, rss_mb)."""
        self.proc.send_signal(signal.SIGTERM)
        self.proc.stdout.close()
        usage = reap(self.proc, self.started)
        self.err.close()
        if self.proc.returncode != 0:
            die(f"serve exited with code {self.proc.returncode}")
        return usage


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    rank = max(1, min(len(s), -(-len(s) * p // 100)))
    return s[int(rank) - 1]


def finite(x):
    return float("inf") if x is None else x


def interpolate_sustained(steps):
    """The offered rate at which p99 (or the end-of-step generator lag, the
    backlog signal) crosses the limit, interpolated in log rate between the
    last passing and the first failing step of the sweep. A failing step
    with failed requests gives the last passing rate; a sweep whose first
    step misses gives half that step's rate."""
    last = None
    for step in steps:
        worst = max(finite(step["p99_ms"]), finite(step["tail_lag_p90_ms"]))
        if step["passes"]:
            last = (step["rate"], worst)
            continue
        if last is None:
            return step["rate"] / 2.0
        r0, w0 = last
        r1, w1 = step["rate"], worst
        if not (w1 < float("inf")) or step["failed"]:
            return r0
        frac = (LATENCY_LIMIT_MS - w0) / (w1 - w0) if w1 > w0 else 0.0
        return r0 * (r1 / r0) ** min(max(frac, 0.0), 1.0)
    return last[0]


# --------------------------------------------------------------------------
# End-to-end runs (--trace 0)
# --------------------------------------------------------------------------


def write_specs(workload, seed, out_dir):
    specs = SPECS[workload](random.Random(seed))
    paths = []
    for name, text, model, cells in specs:
        path = os.path.join(out_dir, f"{name}.campaign")
        with open(path, "w") as f:
            f.write(text)
        paths.append((name, path, model, cells))
    return paths


def batch_argv(availsim, path, out_dir, *extra):
    return [availsim, "batch", path, "--workers", str(WORKERS), "--out-dir", out_dir, *extra]


def check_outputs(harness_bin, specs, rep_dir, reference, crashed):
    """Failed cells of one repetition. A spec whose child exited non-zero
    fails all its cells. The others are held to the oracle when there is
    no reference repetition yet, and compared byte for byte with it
    otherwise."""
    failed = 0
    for name, _, model, cells in specs:
        csv = os.path.join(rep_dir, f"{name}.csv")
        if name in crashed or not os.path.exists(csv):
            failed += cells
            continue
        if reference is None:
            result = harness(harness_bin, "check", "--model", model, "--csv", csv)
            failed += result["failed"] + abs(result["cells"] - cells)
            continue
        for ext in ("csv", "json"):
            with open(os.path.join(rep_dir, f"{name}.{ext}"), "rb") as a, \
                    open(os.path.join(reference, f"{name}.{ext}"), "rb") as b:
                if a.read() != b.read():
                    log(f"{name}.{ext}: output differs from the reference repetition")
                    failed += cells
                    break
    return failed


def dry_runs(availsim, specs, out_dir, rounds):
    """Set-up samples: per round, each spec's best of SETUP_BEST dry runs,
    summed over the specs."""
    samples = []
    for _ in range(rounds):
        total = 0.0
        for _, path, _, _ in specs:
            best = float("inf")
            for _ in range(SETUP_BEST):
                child = run_child(batch_argv(availsim, path, out_dir, "--dry-run"), os.devnull)
                if child.code != 0:
                    die(f"dry run of {path} failed: {child.stderr}")
                best = min(best, child.wall)
            total += best
        samples.append(total)
    return samples


def batch_e2e(workload, seed, seconds, availsim, harness_bin, out_dir):
    deadline = time.perf_counter() + seconds
    specs = write_specs(workload, seed, out_dir)
    # Set-up rounds are spread over the run, so they see the same host as
    # the repetitions they sit between.
    setup = dry_runs(availsim, specs, out_dir, SETUP_ROUNDS)
    # The reference is the first repetition that ran clean and passed the
    # oracle; later ones are compared with it. Every repetition writes into
    # an emptied directory, so a child that dies before writing its
    # reports cannot pass on an earlier repetition's files.
    reference, rep_dir = None, os.path.join(out_dir, "rep")
    clean, reps, attempted, failed = [], 0, 0, 0
    while reps < MIN_REPS or time.perf_counter() < deadline:
        reps += 1
        this_dir = os.path.join(out_dir, "reference") if reference is None else rep_dir
        shutil.rmtree(this_dir, ignore_errors=True)
        os.makedirs(this_dir)
        children, crashed = {}, set()
        for name, path, _, n in specs:
            child = run_child(batch_argv(availsim, path, this_dir),
                              os.path.join(out_dir, f"{name}.out"))
            if child.code != 0:
                log(f"{name}: exit {child.code}: {child.stderr}")
                crashed.add(name)
            children[name] = child
            attempted += n
        bad = check_outputs(harness_bin, specs, this_dir, reference, crashed)
        failed += bad
        setup += dry_runs(availsim, specs, out_dir, 1)
        # A repetition whose child exited non-zero gives no timings: a child
        # that died early would otherwise read as a fast one.
        if crashed:
            continue
        if reference is None and not bad:
            reference = this_dir
        clean.append(children)
    for d in (reference, rep_dir):
        if d:
            shutil.rmtree(d, ignore_errors=True)
    if not clean:
        die(f"{workload}: a child exited non-zero in every repetition")
    # Timings are each spec's best repetition, summed over the specs: on a
    # shared host a slower repetition measures the neighbours, and the best
    # one is the steadiest estimate of what the code costs (see README.md).
    # A cell's result is readable once its spec's reports are written, at
    # exit, so a cell's latency is its spec's wall time.
    best = {name: min(r[name].wall for r in clean) for name, _, _, _ in specs}
    wall = sum(best.values())
    latencies = [best[name] * 1e3 for name, _, _, n in specs for _ in range(n)]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": sum(min(r[name].cpu for r in clean) for name in best),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in r.values()) for r in clean),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "sustained_rps": sum(n for _, _, _, n in specs) / wall,
    }
    walls = sorted(sum(c.wall for c in r.values()) for r in clean)
    say(f"{workload}: {reps} repetitions of {len(specs)} spec(s) ({len(clean)} ran clean), "
        f"{attempted} cells; wall s: best {walls[0]:.4f}, median "
        f"{statistics.median(walls):.4f}, worst {walls[-1]:.4f}")
    return metrics, attempted, failed


def load_args(addr, seed, burst, rates, step_seconds):
    return ["load", "--addr", addr, "--seed", str(seed), "--burst", str(burst),
            "--rates", ",".join(str(r) for r in rates),
            "--step-seconds", str(step_seconds), "--limit-ms", str(LATENCY_LIMIT_MS)]


def say_kinds(label, step):
    say(f"{label}: " + "; ".join(
        f"{kind} n={k['n']} p50 {finite(k['p50_ms']):.2f} ms p99 {finite(k['p99_ms']):.2f} ms"
        for kind, k in step["kinds"].items()))


def serve_e2e(seed, seconds, availsim, harness_bin, out_dir):
    err = os.path.join(out_dir, "serve.err")
    setup, sessions, loads = [], [], []

    def bare_starts(rounds):
        for _ in range(rounds):
            best = float("inf")
            for _ in range(SETUP_BEST):
                server = Serve(availsim, err)
                best = min(best, server.ready)
                server.stop()
            setup.append(best)

    # The nominal phase runs as NOMINAL_SESSIONS servers playing the same
    # burst and schedule; like batch repetitions, the best session is
    # reported.
    bare_starts(SETUP_ROUNDS)
    for _ in range(NOMINAL_SESSIONS):
        server = Serve(availsim, err)
        loads.append(harness(harness_bin, *load_args(
            server.addr, seed, BURST, [NOMINAL_RPS], NOMINAL_SHARE * seconds / NOMINAL_SESSIONS)))
        sessions.append(server.stop())
        bare_starts(SETUP_ROUNDS)
    server = Serve(availsim, err)
    sweep = harness(harness_bin, *load_args(server.addr, seed + 1, 0, SWEEP_RPS,
                                            SWEEP_STEP_SHARE * seconds))
    server.stop()
    attempted = failed = 0
    for run in loads + [sweep]:
        attempted += run["warm_attempted"] + run["burst"]["attempted"]
        attempted += sum(s["attempted"] for s in run["steps"])
        failed += run["warm_failed"] + run["burst"]["failed"]
        failed += sum(s["failed"] for s in run["steps"])
    for s in sweep["steps"]:
        say(f"sweep {s['rate']:6.0f}/s: p50 {s['p50_ms']:.2f} ms, p99 {s['p99_ms']:.2f} ms, "
            f"tail lag p90 {s['tail_lag_p90_ms']:.2f} ms, {'pass' if s['passes'] else 'FAIL'}")
    nominal = [run["steps"][0] for run in loads]
    for i, step in enumerate(nominal):
        say_kinds(f"session {i + 1} at {NOMINAL_RPS:.0f}/s", step)
    say(f"serve-mix: {NOMINAL_SESSIONS} sessions, each a closed-loop burst of {BURST} requests "
        f"and {nominal[0]['attempted']} requests at {NOMINAL_RPS:.0f}/s; {attempted} requests "
        "in all; burst s: " + ", ".join(f"{run['burst']['wall_s']:.4f}" for run in loads)
        + "; session p99 ms: " + ", ".join(f"{s['p99_ms']:.3f}" for s in nominal))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": min(run["burst"]["wall_s"] for run in loads),
        "cpu_s": min(c for _, c, _ in sessions),
        "peak_rss_mb": statistics.median(r for _, _, r in sessions),
        "latency_p50_ms": min(s["p50_ms"] for s in nominal),
        "latency_p99_ms": min(s["p99_ms"] for s in nominal),
        "sustained_rps": interpolate_sustained(sweep["steps"]),
    }
    return metrics, attempted, failed


# --------------------------------------------------------------------------
# Traced runs (--trace 1)
# --------------------------------------------------------------------------

COUNTERS = {
    "count.missions": ("availsim_missions_total",),
    "count.jump_transitions": ("availsim_jump_transitions_total",),
    "count.rng_draws": ("availsim_rng_exp_draws_total", "availsim_rng_uniform_draws_total",
                        "availsim_rng_lifetime_draws_total"),
    "count.queue_scheduled": ("availsim_queue_scheduled_total",),
    "count.queue_cancelled": ("availsim_queue_cancelled_total",),
    "count.queue_heap_crossings": ("availsim_queue_heap_crossings_total",),
}


def engine_cost_ns(c, rows):
    """Predicted engine nanoseconds: each counter times its per-event cost.
    A run that crossed into the heap regime is charged heap costs."""
    heap = c.get("availsim_queue_heap_crossings_total", 0) > 0
    terms = {
        "rng exp draws": c.get("availsim_rng_exp_draws_total", 0) * rows["sim.rng.sample_exp_ns"],
        "rng uniforms": c.get("availsim_rng_uniform_draws_total", 0) * rows["sim.rng.next_f64_ns"],
        "rng lifetime draws": c.get("availsim_rng_lifetime_draws_total", 0) * rows["sim.rng.sample_exp_inv_ns"],
    }
    scheduled = c.get("availsim_queue_scheduled_total", 0)
    if heap:
        terms["queue schedule"] = scheduled * rows["sim.queue.schedule_ns.n4000"]
        terms["queue cancel"] = c.get("availsim_queue_cancelled_total", 0) * rows["sim.queue.cancel_ns.n4000"]
        terms["queue pop"] = c.get("availsim_queue_fired_total", 0) * rows["sim.queue.pop_due_ns.n4000"]
    else:
        terms["queue schedule+pop"] = scheduled * rows["sim.queue.cycle_ns.n4"]
    return terms


def batch_counters(workload, seed, availsim, harness_bin, out_dir, rows):
    """One CLI run per spec with --metrics: engine counters, measured CPU
    (also per cell), cost-model terms, and how late each child was spawned."""
    specs = write_specs(workload, seed, out_dir)
    report_dir = os.path.join(out_dir, "reports")
    counters, cpu, cells, failed, lags = {}, 0.0, 0, 0, []
    terms = {}
    # Closed loop: each child is due when the previous one exits.
    last_exit = time.perf_counter()
    for name, path, model, n in specs:
        metrics_path = os.path.join(out_dir, f"{name}.metrics.json")
        lags.append((time.perf_counter() - last_exit) * 1e3)
        stdout = os.path.join(out_dir, f"{name}.out")
        child = run_child(batch_argv(availsim, path, report_dir, "--metrics", metrics_path), stdout)
        last_exit = time.perf_counter()
        if child.code != 0:
            die(f"{name}: exit {child.code}: {child.stderr}")
        with open(metrics_path) as f:
            snap = json.load(f)["deterministic"]
        for k, v in snap.items():
            counters[k] = counters.get(k, 0) + v
        for term, ns in engine_cost_ns(snap, rows).items():
            terms[term] = terms.get(term, 0.0) + ns
        cpu += child.cpu
        cells += n
        result = harness(harness_bin, "check", "--model", model, "--csv",
                         os.path.join(report_dir, f"{name}.csv"))
        failed += result["failed"] + abs(result["cells"] - n)
    shutil.rmtree(report_dir, ignore_errors=True)
    exact_cells = sum(n for _, _, model, n in specs if model != "mc")
    terms["exact cells"] = exact_cells * rows["exp.run.cell_us.markov"] * 1e3
    per_cell_report = (rows["exp.report.csv_us"] + rows["exp.report.json_us"]
                       + rows["exp.report.summary_us"]) * 1e3 / 1200
    terms["report render"] = cells * per_cell_report
    measured_ms_per_op = cpu * 1e3 / cells
    extra = {"serve.cache_hit_ratio": 0.0, "serve.shed_ratio": 0.0,
             "serve.queue_depth_high_water": 0.0,
             "gen.lag_p99_ms": percentile(lags, 99)}
    return counters, terms, cpu, cells, failed, measured_ms_per_op, extra


def serve_counters(seed, seconds, availsim, harness_bin, out_dir, rows):
    """A short nominal-rate serve session: /metrics counters, measured CPU,
    the generator's lag, and cost-model terms per request kind."""
    server = Serve(availsim, os.path.join(out_dir, "serve.err"))
    load = harness(harness_bin, *load_args(server.addr, seed, 0, [NOMINAL_RPS],
                                           NOMINAL_SHARE * seconds / 2))
    scraped = server.metrics()
    _, cpu, _ = server.stop()
    step = load["steps"][0]
    say_kinds(f"counter session at {NOMINAL_RPS:.0f}/s", step)
    requests = load["warm_attempted"] + step["attempted"]
    hits, mc = step["hits"], step["mc"] + load["warm_mc"]
    exact = requests - hits - mc
    counters = {k: v for k, v in scraped.items() if k.startswith("availsim_")}
    front = (rows["serve.http.read_request_us"] + rows["serve.json.parse_us"]
             + rows["serve.query.from_json_us"] + rows["serve.query.canonical_key_us"]) * 1e3
    terms = {
        "request front (read, parse, key)": requests * front,
        "cache hits": hits * rows["serve.cache.get_hit_ns"],
        "exact solves": exact * (rows["serve.exec.execute_us.exact"] * 1e3 + rows["serve.cache.insert_ns"]),
        "mc jobs": mc * (rows["serve.exec.execute_us.mc"] * 1e3 + rows["serve.cache.insert_ns"]),
    }
    sheds = counters.get("availsim_serve_sheds_total", 0.0)
    served = max(1.0, counters.get("availsim_serve_requests_total", 0.0))
    extra = {
        "serve.cache_hit_ratio": counters.get("availsim_serve_cache_hits_total", 0.0) / served,
        "serve.shed_ratio": sheds / served,
        "serve.queue_depth_high_water": counters.get("availsim_serve_queue_depth_high_water", 0.0),
        "gen.lag_p99_ms": step["lag_p99_ms"],
    }
    failed = load["warm_failed"] + step["failed"]
    return counters, terms, cpu, requests, failed, step["mean_ms"], extra


def trace_run(workload, seed, seconds, availsim, harness_bin, out_dir):
    args = ["trace", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if workload == "serve-mix":
        args += ["--rate", str(NOMINAL_RPS)]
    else:
        spec_dir = os.path.join(out_dir, "replay")
        os.makedirs(spec_dir, exist_ok=True)
        for _, path, _, _ in write_specs(workload, seed, spec_dir):
            args += ["--spec", path]
    traced = harness(harness_bin, *args)
    rows = {k: v for k, v in traced.items() if isinstance(v, (int, float))}
    if workload == "serve-mix":
        got = serve_counters(seed, seconds, availsim, harness_bin, out_dir, rows)
    else:
        got = batch_counters(workload, seed, availsim, harness_bin, out_dir, rows)
    counters, terms, cpu, ops, failed, measured_ms_per_op, extra = got
    predicted = sum(terms.values()) / 1e9

    say(f"{'span':28} {'stage':9} {'count':>8} {'total ms':>11} {'self ms':>11}")
    for s in traced["spans"]:
        say(f"{s['span']:28} {s['stage']:9} {s['count']:8d} {s['total_ms']:11.3f} {s['self_ms']:11.3f}")
    say(f"tracing overhead: traced replay / untraced replay = {rows['trace.overhead_ratio']:.4f}")
    for v in traced["fanout_verdict"]:
        say(f"fan-out verdict: 2000-mission jump-chain batch at {v['threads']} thread(s): "
            f"median {v['median_us']:.1f} us, quartiles {v['q1_us']:.1f}-{v['q3_us']:.1f} us (n={v['n']})")
    say("cost model (predicted CPU = sum of counter x per-event cost):")
    for term, ns in sorted(terms.items(), key=lambda kv: -kv[1]):
        say(f"  {term:34} {ns / 1e9:10.4f} s")
    say(f"  {'predicted':34} {predicted:10.4f} s")
    say(f"  {'measured (child user+sys)':34} {cpu:10.4f} s")
    say(f"  {'residual: not in the model':34} {cpu - predicted:10.4f} s "
        f"({(cpu - predicted) / cpu:.0%} of measured)")
    per_op = sum(terms.values()) / 1e6 / max(1, ops)
    say(f"per operation: predicted {per_op:.4f} ms, measured {measured_ms_per_op:.4f} ms, "
        f"gap {measured_ms_per_op - per_op:.4f} ms")

    metrics = {k: v for k, v in rows.items() if not k.startswith("replay.")}
    for name, keys in COUNTERS.items():
        metrics[name] = float(sum(counters.get(k, 0) for k in keys))
    metrics.update(extra)
    metrics["cost.predicted_cpu_s"] = predicted
    metrics["cost.measured_cpu_s"] = cpu
    metrics["cost.residual_share"] = (cpu - predicted) / cpu
    metrics["cost.predicted_ms_per_op"] = per_op
    metrics["cost.measured_ms_per_op"] = measured_ms_per_op
    with open(os.path.join(out_dir, "trace.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "spans": traced["spans"],
                   "fanout_verdict": traced["fanout_verdict"],
                   "cost_terms_s": {k: v / 1e9 for k, v in terms.items()},
                   "metrics": metrics}, f, indent=1)
    attempted = ops + int(rows["replay.attempted"])
    return metrics, attempted, failed + int(rows["replay.failed"])


# --------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for need in ("Cargo.toml", "crates", os.path.join("perfbench", "harness", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, need)):
            die(f"run from the repository root: `{need}` is missing")
    availsim, harness_bin = build(root)
    mode = "trace" if args.trace else "e2e"
    out_dir = os.path.join(root, ".bench_out", f"{args.workload}-{args.seed}-{mode}")
    os.makedirs(out_dir, exist_ok=True)

    # BENCHMARK.json is the one list of metric names and units.
    try:
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                               "BENCHMARK.json")) as f:
            declared = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    if args.trace:
        metrics, attempted, failed = trace_run(args.workload, args.seed, args.seconds,
                                               availsim, harness_bin, out_dir)
    elif args.workload == "serve-mix":
        metrics, attempted, failed = serve_e2e(args.seed, args.seconds, availsim, harness_bin,
                                               out_dir)
    else:
        metrics, attempted, failed = batch_e2e(args.workload, args.seed, args.seconds,
                                               availsim, harness_bin, out_dir)

    for name, unit in units.items():
        if name not in metrics:
            die(f"metric {name} was not measured")
        say(f"{name:42} {metrics[name]:16.6g} {unit}")
    say(f"attempted {attempted}, failed {failed} (failed_ratio {failed / max(1, attempted):.6g})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
