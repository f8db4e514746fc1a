//! Deterministic engine telemetry: mask-gated counters, block-mergeable
//! snapshots, phase spans, and Prometheus text exposition.
//!
//! Every engine layer reports into a per-worker [`Telemetry`] registry —
//! indexed-queue traffic, RNG draws by distribution, jump-chain
//! transitions by edge, fleet crew-queue waits, domain strikes and DR
//! fail-over traffic, splitting stage survival. The registry is **mask-gated**: a disabled
//! registry turns every update into `counts[i] += n & 0`, a branch-free
//! no-op on the hot paths. perfbench measures what switching it on costs
//! (`core.mc.jump_mission_ns.telemetry` against `core.mc.jump_mission_ns`),
//! and CI holds that ratio at 0.85 or better.
//!
//! Aggregation rides the engines' existing block merge: each worker
//! drains its registry into a [`CounterSnapshot`] per iteration block,
//! and snapshots [`merge`](CounterSnapshot::merge) in block order — sum
//! for flow counters, max for high-water marks — so the merged snapshot
//! is **deterministic at any worker count**, exactly like the estimates
//! themselves. Wall-clock measurements ([`PhaseSpans`]) never enter a
//! snapshot; they are reported separately in a clearly-marked
//! nondeterministic section.
//!
//! Telemetry only counts — it never draws from the RNG, reorders events,
//! or changes a floating-point operation — so enabling it preserves the
//! bit-identity contracts of every engine.
//!
//! # Examples
//!
//! ```
//! use availsim_sim::telemetry::{Counter, CounterSnapshot, Telemetry};
//!
//! let mut tele = Telemetry::new(true);
//! tele.bump(Counter::Missions);
//! tele.add(Counter::RngExpDraws, 3);
//! let block_a = tele.take();
//!
//! let mut off = Telemetry::new(false);
//! off.bump(Counter::Missions); // branch-free no-op
//! let block_b = off.take();
//!
//! let mut merged = CounterSnapshot::default();
//! merged.merge(&block_a);
//! merged.merge(&block_b);
//! assert_eq!(merged.get(Counter::Missions), 1);
//! assert_eq!(merged.get(Counter::RngExpDraws), 3);
//! ```

/// Number of distinct counters in the registry.
pub const COUNTERS: usize = 33;

/// The deterministic engine counters, one registry slot each.
///
/// Names follow the exposition metric names (see [`Counter::name`]); the
/// README "Observability" section is the reference table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Simulated missions (iterations) completed.
    Missions = 0,
    /// Events accepted by an indexed queue (including ones later
    /// cancelled or drained), plus the expired ones counted below.
    QueueScheduled,
    /// Events popped and delivered by `pop` / `pop_due`.
    QueueFired,
    /// Events removed without firing: explicit `cancel`, bulk
    /// `cancel_all`, and entries drained by `clear`.
    QueueCancelled,
    /// Drawn delays that landed past the mission horizon and were never
    /// enqueued (`note_expired`).
    QueueExpired,
    /// Linear-to-heap regime crossings (the schedule that exceeded the
    /// linear-scan threshold and triggered `heapify`).
    QueueHeapCrossings,
    /// High-water mark of simultaneously queued events (max-merged).
    QueueDepthHighWater,
    /// Exponential delay draws (`sample_exp` family).
    RngExpDraws,
    /// Uniform draws (jump-chain winner picks, splitting clones).
    RngUniformDraws,
    /// Lifetime-model draws (`FailureModel::sample_ttf`, any
    /// distribution).
    RngLifetimeDraws,
    /// Fig. 2 jump-chain edge OP → EXP (disk failure).
    JumpOpToExp,
    /// Fig. 2 jump-chain edge EXP → OP (successful repair).
    JumpExpToOp,
    /// Fig. 2 jump-chain edge EXP → DU (wrong replacement).
    JumpExpToDu,
    /// Fig. 2 jump-chain edge EXP → DL (second disk failure).
    JumpExpToDl,
    /// Fig. 2 jump-chain edge DU → OP (human-error recovery).
    JumpDuToOp,
    /// Fig. 2 jump-chain edge DU → DL (removed-disk crash).
    JumpDuToDl,
    /// Fig. 2 jump-chain edge DL → OP (restore from backup).
    JumpDlToOp,
    /// Jump-chain transitions over all engines and edges (includes the
    /// twelve-state fail-over chain, which is not broken out by edge).
    JumpTransitions,
    /// Fleet arrays that had to wait for a repair crew (FIFO enqueues).
    FleetCrewWaits,
    /// Fleet domain (whole-shelf) knockout strikes.
    FleetDomainStrikes,
    /// Fleet arrays admitted to the shared DR site (fail-overs).
    FleetFailovers,
    /// Fleet arrays that found the DR site full and queued FIFO.
    FleetDrQueueWaits,
    /// Fleet arrays rejected by a full DR site (Erlang-loss policy).
    FleetDrRejections,
    /// Fleet arrays switched back from DR to their primary (fail-backs).
    FleetFailbacks,
    /// Splitting stage-1 survivors (missions reaching a first failure).
    SplitStage1Survivors,
    /// Splitting stage-2 survivors (clones reaching a down state).
    SplitStage2Survivors,
    /// Rebuild completions that hit a latent sector error and lost data
    /// instead of returning the array to service.
    RebuildLseHits,
    /// Data-loss (DL) entries across all engines — redundancy-exhausting
    /// failures, removed-disk crashes, and LSE-failed rebuilds.
    DataLossEvents,
    /// HTTP requests received by `availsim serve` (all endpoints).
    ServeRequests,
    /// Serve queries answered from the canonical-hash result cache.
    ServeCacheHits,
    /// Serve requests shed by admission control (`503 + Retry-After`).
    ServeSheds,
    /// Serve jobs that hit their deadline and returned a timeout error.
    ServeDeadlineExpiries,
    /// High-water mark of simultaneously queued serve jobs (max-merged).
    ServeQueueDepthHighWater,
}

/// How a counter merges across block snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeKind {
    /// Additive flow counter.
    Sum,
    /// High-water mark: merged value is the maximum.
    Max,
}

impl Counter {
    /// All counters, in registry (and exposition) order.
    pub const ALL: [Counter; COUNTERS] = [
        Counter::Missions,
        Counter::QueueScheduled,
        Counter::QueueFired,
        Counter::QueueCancelled,
        Counter::QueueExpired,
        Counter::QueueHeapCrossings,
        Counter::QueueDepthHighWater,
        Counter::RngExpDraws,
        Counter::RngUniformDraws,
        Counter::RngLifetimeDraws,
        Counter::JumpOpToExp,
        Counter::JumpExpToOp,
        Counter::JumpExpToDu,
        Counter::JumpExpToDl,
        Counter::JumpDuToOp,
        Counter::JumpDuToDl,
        Counter::JumpDlToOp,
        Counter::JumpTransitions,
        Counter::FleetCrewWaits,
        Counter::FleetDomainStrikes,
        Counter::FleetFailovers,
        Counter::FleetDrQueueWaits,
        Counter::FleetDrRejections,
        Counter::FleetFailbacks,
        Counter::SplitStage1Survivors,
        Counter::SplitStage2Survivors,
        Counter::RebuildLseHits,
        Counter::DataLossEvents,
        Counter::ServeRequests,
        Counter::ServeCacheHits,
        Counter::ServeSheds,
        Counter::ServeDeadlineExpiries,
        Counter::ServeQueueDepthHighWater,
    ];

    /// The exposition metric name (also the JSON snapshot key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Missions => "availsim_missions_total",
            Counter::QueueScheduled => "availsim_queue_scheduled_total",
            Counter::QueueFired => "availsim_queue_fired_total",
            Counter::QueueCancelled => "availsim_queue_cancelled_total",
            Counter::QueueExpired => "availsim_queue_expired_total",
            Counter::QueueHeapCrossings => "availsim_queue_heap_crossings_total",
            Counter::QueueDepthHighWater => "availsim_queue_depth_high_water",
            Counter::RngExpDraws => "availsim_rng_exp_draws_total",
            Counter::RngUniformDraws => "availsim_rng_uniform_draws_total",
            Counter::RngLifetimeDraws => "availsim_rng_lifetime_draws_total",
            Counter::JumpOpToExp => "availsim_jump_op_exp_total",
            Counter::JumpExpToOp => "availsim_jump_exp_op_total",
            Counter::JumpExpToDu => "availsim_jump_exp_du_total",
            Counter::JumpExpToDl => "availsim_jump_exp_dl_total",
            Counter::JumpDuToOp => "availsim_jump_du_op_total",
            Counter::JumpDuToDl => "availsim_jump_du_dl_total",
            Counter::JumpDlToOp => "availsim_jump_dl_op_total",
            Counter::JumpTransitions => "availsim_jump_transitions_total",
            Counter::FleetCrewWaits => "availsim_fleet_crew_waits_total",
            Counter::FleetDomainStrikes => "availsim_fleet_domain_strikes_total",
            Counter::FleetFailovers => "availsim_fleet_failovers_total",
            Counter::FleetDrQueueWaits => "availsim_fleet_dr_queue_waits_total",
            Counter::FleetDrRejections => "availsim_fleet_dr_rejections_total",
            Counter::FleetFailbacks => "availsim_fleet_failbacks_total",
            Counter::SplitStage1Survivors => "availsim_split_stage1_survivors_total",
            Counter::SplitStage2Survivors => "availsim_split_stage2_survivors_total",
            Counter::RebuildLseHits => "availsim_rebuild_lse_hits_total",
            Counter::DataLossEvents => "availsim_data_loss_events_total",
            Counter::ServeRequests => "availsim_serve_requests_total",
            Counter::ServeCacheHits => "availsim_serve_cache_hits_total",
            Counter::ServeSheds => "availsim_serve_sheds_total",
            Counter::ServeDeadlineExpiries => "availsim_serve_deadline_expiries_total",
            Counter::ServeQueueDepthHighWater => "availsim_serve_queue_depth_high_water",
        }
    }

    /// One-line meaning, used as the Prometheus `# HELP` text.
    pub fn help(self) -> &'static str {
        match self {
            Counter::Missions => "Simulated missions completed",
            Counter::QueueScheduled => "Events accepted by the indexed event queue",
            Counter::QueueFired => "Events popped and delivered by the indexed event queue",
            Counter::QueueCancelled => "Events cancelled or drained without firing",
            Counter::QueueExpired => "Drawn delays past the horizon, never enqueued",
            Counter::QueueHeapCrossings => "Linear-to-heap regime crossings of the indexed queue",
            Counter::QueueDepthHighWater => "High-water mark of simultaneously queued events",
            Counter::RngExpDraws => "Exponential delay draws",
            Counter::RngUniformDraws => "Uniform draws (winner picks, splitting clones)",
            Counter::RngLifetimeDraws => "Lifetime-model draws (any failure distribution)",
            Counter::JumpOpToExp => "Fig. 2 transitions OP to EXP (disk failure)",
            Counter::JumpExpToOp => "Fig. 2 transitions EXP to OP (successful repair)",
            Counter::JumpExpToDu => "Fig. 2 transitions EXP to DU (wrong replacement)",
            Counter::JumpExpToDl => "Fig. 2 transitions EXP to DL (second disk failure)",
            Counter::JumpDuToOp => "Fig. 2 transitions DU to OP (human-error recovery)",
            Counter::JumpDuToDl => "Fig. 2 transitions DU to DL (removed-disk crash)",
            Counter::JumpDlToOp => "Fig. 2 transitions DL to OP (restore from backup)",
            Counter::JumpTransitions => "Jump-chain transitions over all engines and edges",
            Counter::FleetCrewWaits => "Fleet arrays that waited for a repair crew",
            Counter::FleetDomainStrikes => "Fleet domain (whole-shelf) knockout strikes",
            Counter::FleetFailovers => "Fleet arrays admitted to the shared DR site",
            Counter::FleetDrQueueWaits => "Fleet arrays that queued for a full DR site",
            Counter::FleetDrRejections => "Fleet arrays rejected by a full DR site (loss policy)",
            Counter::FleetFailbacks => "Fleet arrays switched back from DR to primary",
            Counter::SplitStage1Survivors => "Splitting missions reaching a first failure",
            Counter::SplitStage2Survivors => "Splitting clones reaching a down state",
            Counter::RebuildLseHits => "Rebuilds that hit a latent sector error (data loss)",
            Counter::DataLossEvents => "Data-loss (DL) entries across all engines",
            Counter::ServeRequests => "HTTP requests received by availsim serve",
            Counter::ServeCacheHits => "Serve queries answered from the result cache",
            Counter::ServeSheds => "Serve requests shed by admission control",
            Counter::ServeDeadlineExpiries => "Serve jobs that expired at their deadline",
            Counter::ServeQueueDepthHighWater => "High-water mark of queued serve jobs",
        }
    }

    /// How the counter merges across block snapshots.
    pub fn merge_kind(self) -> MergeKind {
        match self {
            Counter::QueueDepthHighWater | Counter::ServeQueueDepthHighWater => MergeKind::Max,
            _ => MergeKind::Sum,
        }
    }
}

/// Per-worker counter registry, one cache line, mask-gated.
///
/// `mask` is `u64::MAX` when enabled and `0` when disabled, so every
/// update compiles to an unconditional `counts[i] += n & mask` — no
/// branch, no measurable cost when disabled. The registry is
/// `#[repr(align(64))]` so two workers' registries never share a cache
/// line.
#[derive(Debug, Clone)]
#[repr(align(64))]
pub struct Telemetry {
    mask: u64,
    counts: [u64; COUNTERS],
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(false)
    }
}

impl Telemetry {
    /// Creates a registry, enabled or disabled for its whole lifetime.
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            mask: if enabled { u64::MAX } else { 0 },
            counts: [0; COUNTERS],
        }
    }

    /// Whether updates are recorded.
    pub fn enabled(&self) -> bool {
        self.mask != 0
    }

    /// Increments a counter by one (no-op when disabled).
    #[inline]
    pub fn bump(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Adds `n` to a counter (no-op when disabled).
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counts[c as usize] += n & self.mask;
    }

    /// Raises a high-water counter to `v` if larger (no-op when
    /// disabled).
    #[inline]
    pub fn record_max(&mut self, c: Counter, v: u64) {
        let slot = &mut self.counts[c as usize];
        *slot = (*slot).max(v & self.mask);
    }

    /// Drains the registry into a snapshot, resetting every counter.
    pub fn take(&mut self) -> CounterSnapshot {
        let snap = CounterSnapshot {
            counts: self.counts,
        };
        self.counts = [0; COUNTERS];
        snap
    }
}

/// An immutable, mergeable snapshot of the counter registry.
///
/// Snapshots merge associatively (sum / max per [`Counter::merge_kind`]),
/// so folding per-block snapshots **in block order** yields the same
/// bytes at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    counts: [u64; COUNTERS],
}

// Manual impl: the std `Default` derive for arrays stops at 32 elements.
impl Default for CounterSnapshot {
    fn default() -> Self {
        Self {
            counts: [0; COUNTERS],
        }
    }
}

impl CounterSnapshot {
    /// The value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counts[c as usize]
    }

    /// Adds `n` to a counter (snapshots are not mask-gated).
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counts[c as usize] += n;
    }

    /// Raises a high-water counter to `v` if larger.
    pub fn record_max(&mut self, c: Counter, v: u64) {
        let slot = &mut self.counts[c as usize];
        *slot = (*slot).max(v);
    }

    /// Folds another snapshot in: sum for flow counters, max for
    /// high-water marks.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        for c in Counter::ALL {
            let i = c as usize;
            match c.merge_kind() {
                MergeKind::Sum => self.counts[i] += other.counts[i],
                MergeKind::Max => self.counts[i] = self.counts[i].max(other.counts[i]),
            }
        }
    }

    /// Whether every counter is zero (a disabled run's snapshot).
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&v| v == 0)
    }

    /// All `(counter, value)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

/// Wall-clock phase spans (`plan` / `run` / `report`), microseconds.
///
/// Spans are **nondeterministic** by nature and must never be merged
/// into a [`CounterSnapshot`]; exposition surfaces keep them in a
/// clearly-marked nondeterministic section.
#[derive(Debug, Clone, Default)]
pub struct PhaseSpans {
    spans: Vec<(&'static str, u64)>,
}

impl PhaseSpans {
    /// Creates an empty span log.
    pub fn new() -> Self {
        PhaseSpans::default()
    }

    /// Records one completed phase.
    pub fn record(&mut self, phase: &'static str, micros: u64) {
        self.spans.push((phase, micros));
    }

    /// The recorded `(phase, micros)` pairs, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.spans.iter().copied()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Nearest-rank percentile of an ascending-sorted slice; `p` is in
/// `[0, 100]`. Returns 0 for an empty slice.
pub fn percentile_u64(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Prometheus text-exposition writer (format 0.0.4): `# HELP` / `# TYPE`
/// headers plus one sample line per metric, in insertion order.
#[derive(Debug, Default)]
pub struct PrometheusWriter {
    out: String,
}

impl PrometheusWriter {
    /// Creates an empty exposition.
    pub fn new() -> Self {
        PrometheusWriter::default()
    }

    /// Emits a comment line (section markers).
    pub fn comment(&mut self, text: &str) {
        self.out.push_str("# ");
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// Emits one integer metric with HELP/TYPE headers.
    pub fn metric_u64(&mut self, name: &str, help: &str, kind: &str, value: u64) {
        self.header(name, help, kind);
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(&value.to_string());
        self.out.push('\n');
    }

    /// Emits one gauge with HELP/TYPE headers. `value` must be finite.
    pub fn gauge_f64(&mut self, name: &str, help: &str, value: f64) {
        assert!(value.is_finite(), "prometheus gauge {name} is not finite");
        self.header(name, help, "gauge");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(&format!("{value:?}"));
        self.out.push('\n');
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    /// The exposition text (newline-terminated if non-empty).
    pub fn finish(self) -> String {
        self.out
    }
}

/// Writes every registry counter into a Prometheus exposition, in
/// [`Counter::ALL`] order (high-water marks as gauges, the rest as
/// counters).
pub fn write_counters(w: &mut PrometheusWriter, snap: &CounterSnapshot) {
    for (c, value) in snap.iter() {
        let kind = match c.merge_kind() {
            MergeKind::Sum => "counter",
            MergeKind::Max => "gauge",
        };
        w.metric_u64(c.name(), c.help(), kind, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut tele = Telemetry::new(false);
        assert!(!tele.enabled());
        tele.bump(Counter::Missions);
        tele.add(Counter::RngExpDraws, 1_000);
        tele.record_max(Counter::QueueDepthHighWater, 77);
        assert!(tele.take().is_empty());
    }

    #[test]
    fn enabled_registry_counts_and_take_resets() {
        let mut tele = Telemetry::new(true);
        assert!(tele.enabled());
        tele.bump(Counter::Missions);
        tele.bump(Counter::Missions);
        tele.record_max(Counter::QueueDepthHighWater, 5);
        tele.record_max(Counter::QueueDepthHighWater, 3);
        let snap = tele.take();
        assert_eq!(snap.get(Counter::Missions), 2);
        assert_eq!(snap.get(Counter::QueueDepthHighWater), 5);
        assert!(tele.take().is_empty());
    }

    #[test]
    fn merge_sums_flows_and_maxes_high_water() {
        let mut a = CounterSnapshot::default();
        a.add(Counter::QueueScheduled, 10);
        a.record_max(Counter::QueueDepthHighWater, 4);
        let mut b = CounterSnapshot::default();
        b.add(Counter::QueueScheduled, 5);
        b.record_max(Counter::QueueDepthHighWater, 9);
        let mut merged = CounterSnapshot::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.get(Counter::QueueScheduled), 15);
        assert_eq!(merged.get(Counter::QueueDepthHighWater), 9);
    }

    #[test]
    fn merge_is_order_independent() {
        // The block fold must not depend on which worker produced which
        // snapshot — sum and max are commutative and associative.
        let mut a = CounterSnapshot::default();
        a.add(Counter::JumpTransitions, 3);
        a.record_max(Counter::QueueDepthHighWater, 2);
        let mut b = CounterSnapshot::default();
        b.add(Counter::JumpTransitions, 8);
        b.record_max(Counter::QueueDepthHighWater, 6);
        let mut ab = CounterSnapshot::default();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = CounterSnapshot::default();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn counter_metadata_is_total_and_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), COUNTERS);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTERS, "duplicate metric name");
        for c in Counter::ALL {
            assert!(c.name().starts_with("availsim_"));
            assert!(!c.help().is_empty());
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile_u64(&[], 50.0), 0);
        let one = [42];
        assert_eq!(percentile_u64(&one, 0.0), 42);
        assert_eq!(percentile_u64(&one, 100.0), 42);
        let v = [10, 20, 30, 40];
        assert_eq!(percentile_u64(&v, 50.0), 20);
        assert_eq!(percentile_u64(&v, 90.0), 40);
        assert_eq!(percentile_u64(&v, 100.0), 40);
        assert_eq!(percentile_u64(&v, 25.0), 10);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut snap = CounterSnapshot::default();
        snap.add(Counter::Missions, 7);
        snap.record_max(Counter::QueueDepthHighWater, 3);
        let mut w = PrometheusWriter::new();
        write_counters(&mut w, &snap);
        w.comment("nondeterministic section below");
        w.gauge_f64("availsim_wall_micros", "Wall-clock runtime", 1234.0);
        let text = w.finish();
        assert!(text.contains("# HELP availsim_missions_total Simulated missions completed\n"));
        assert!(text.contains("# TYPE availsim_missions_total counter\n"));
        assert!(text.contains("\navailsim_missions_total 7\n"));
        assert!(text.contains("# TYPE availsim_queue_depth_high_water gauge\n"));
        assert!(text.contains("\navailsim_queue_depth_high_water 3\n"));
        assert!(text.contains("# nondeterministic section below\n"));
        assert!(text.contains("\navailsim_wall_micros 1234.0\n"));
        assert!(text.ends_with('\n'));
        // Every line is a comment or a `name value` sample.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn serve_counter_group_exposes_and_merges_like_its_layer_mates() {
        // The serve layer rides the same registry contracts as the
        // engines: flows sum, the queue high-water maxes, and every name
        // reaches the exposition with the right TYPE.
        let mut a = CounterSnapshot::default();
        a.add(Counter::ServeRequests, 10);
        a.add(Counter::ServeSheds, 2);
        a.record_max(Counter::ServeQueueDepthHighWater, 4);
        let mut b = CounterSnapshot::default();
        b.add(Counter::ServeRequests, 5);
        b.add(Counter::ServeCacheHits, 3);
        b.record_max(Counter::ServeQueueDepthHighWater, 9);
        let mut merged = CounterSnapshot::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.get(Counter::ServeRequests), 15);
        assert_eq!(merged.get(Counter::ServeSheds), 2);
        assert_eq!(merged.get(Counter::ServeCacheHits), 3);
        assert_eq!(merged.get(Counter::ServeQueueDepthHighWater), 9);

        let mut w = PrometheusWriter::new();
        write_counters(&mut w, &merged);
        let text = w.finish();
        for c in [
            Counter::ServeRequests,
            Counter::ServeCacheHits,
            Counter::ServeSheds,
            Counter::ServeDeadlineExpiries,
        ] {
            assert!(
                text.contains(&format!("# TYPE {} counter\n", c.name())),
                "{text}"
            );
        }
        assert!(
            text.contains("# TYPE availsim_serve_queue_depth_high_water gauge\n"),
            "{text}"
        );
        assert!(
            text.contains("\navailsim_serve_requests_total 15\n"),
            "{text}"
        );
        assert!(
            text.contains("\navailsim_serve_queue_depth_high_water 9\n"),
            "{text}"
        );
    }

    #[test]
    fn phase_spans_record_in_order() {
        let mut spans = PhaseSpans::new();
        assert!(spans.is_empty());
        spans.record("plan", 10);
        spans.record("run", 900);
        spans.record("report", 5);
        let got: Vec<_> = spans.iter().collect();
        assert_eq!(got, vec![("plan", 10), ("run", 900), ("report", 5)]);
    }
}
