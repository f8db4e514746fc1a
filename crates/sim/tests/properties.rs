//! Property-based tests for the simulation kernel.

use availsim_sim::distributions::{Exponential, Lifetime, Weibull};
use availsim_sim::engine::EventQueue;
use availsim_sim::indexed_queue::IndexedEventQueue;
use availsim_sim::rng::SimRng;
use availsim_sim::stats::{ks_test, t_interval, RunningStats};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exponential_cdf_quantile_roundtrip(rate in 1e-6f64..1e3, p in 1e-6f64..0.999_999) {
        let d = Exponential::new(rate).unwrap();
        let x = d.quantile(p).unwrap();
        prop_assert!((d.cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn weibull_cdf_quantile_roundtrip(
        scale in 1e-3f64..1e7,
        shape in 0.3f64..5.0,
        p in 1e-6f64..0.999_999,
    ) {
        let d = Weibull::new(scale, shape).unwrap();
        let x = d.quantile(p).unwrap();
        prop_assert!((d.cdf(x) - p).abs() < 1e-8, "cdf(q({p})) = {}", d.cdf(x));
    }

    #[test]
    fn cdf_is_monotone_for_all_families(
        rate in 1e-3f64..10.0,
        shape in 0.5f64..4.0,
        xs in proptest::collection::vec(0.0f64..100.0, 2..20),
    ) {
        let dists: Vec<Box<dyn Lifetime>> = vec![
            Box::new(Exponential::new(rate).unwrap()),
            Box::new(Weibull::new(1.0 / rate, shape).unwrap()),
        ];
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for d in &dists {
            let mut prev = -1.0;
            for &x in &sorted {
                let c = d.cdf(x);
                prop_assert!((0.0..=1.0).contains(&c));
                prop_assert!(c >= prev - 1e-12, "{} not monotone at {x}", d.name());
                prev = c;
            }
        }
    }

    #[test]
    fn samples_are_nonnegative_and_finite(seed in any::<u64>(), rate in 1e-6f64..1e3) {
        let mut rng = SimRng::seed_from(seed);
        let dists: Vec<Box<dyn Lifetime>> = vec![
            Box::new(Exponential::new(rate).unwrap()),
            Box::new(Weibull::new(1.0 / rate, 1.2).unwrap()),
        ];
        for d in &dists {
            for _ in 0..50 {
                let x = d.sample(&mut rng);
                prop_assert!(x >= 0.0 && x.is_finite(), "{} produced {x}", d.name());
            }
        }
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>(), n in 1usize..200) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..n {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn running_stats_merge_is_associative(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
        split in 0usize..100,
    ) {
        let split = split.min(xs.len());
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &xs[..split] {
            left.push(x);
        }
        for &x in &xs[split..] {
            right.push(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-6);
    }

    #[test]
    fn event_queue_pops_in_order(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(t, i).unwrap();
        }
        let mut prev = 0.0;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= prev);
            prev = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn indexed_queue_is_observably_identical_to_the_reference_queue(
        // Operation stream: each step is (op selector, time selector).
        // Times are drawn from a tiny grid so FIFO tie-breaking is
        // exercised constantly, and the op mix crosses the linear→heap
        // threshold when the schedule share dominates.
        ops in proptest::collection::vec((0u8..100, 0u8..8), 1..400),
        seed in any::<u64>(),
    ) {
        let mut reference: EventQueue<u64> = EventQueue::new();
        let mut indexed: IndexedEventQueue<u64> = IndexedEventQueue::new();
        let mut rng = SimRng::seed_from(seed);
        // Live and dead handle pools, kept in lockstep; dead handles
        // (popped, cancelled, or pre-clear) must behave identically too.
        let mut live = Vec::new();
        let mut dead = Vec::new();
        let mut payload = 0u64;

        for &(op, t) in &ops {
            match op {
                // Schedule (majority share so queues actually fill).
                0..=54 => {
                    let delay = f64::from(t);
                    let h_ref = reference.schedule(delay, payload).unwrap();
                    let h_idx = indexed.schedule(delay, payload).unwrap();
                    live.push((h_ref, h_idx));
                    payload += 1;
                }
                // Pop.
                55..=79 => {
                    prop_assert_eq!(reference.pop(), indexed.pop());
                }
                // Cancel a random live handle.
                80..=89 => {
                    if !live.is_empty() {
                        let k = rng.next_bounded(live.len() as u64) as usize;
                        let (h_ref, h_idx) = live.swap_remove(k);
                        prop_assert_eq!(reference.cancel(h_ref), indexed.cancel(h_idx));
                        dead.push((h_ref, h_idx));
                    }
                }
                // Cancel a dead handle (already popped/cancelled/stale):
                // both queues must refuse identically.
                90..=94 => {
                    if !dead.is_empty() {
                        let k = rng.next_bounded(dead.len() as u64) as usize;
                        let (h_ref, h_idx) = dead[k];
                        prop_assert_eq!(reference.cancel(h_ref), indexed.cancel(h_idx));
                    }
                }
                // Clear: all outstanding handles become stale.
                _ => {
                    reference.clear();
                    indexed.clear();
                    dead.append(&mut live);
                }
            }
            // Observations agree after every step. (The reference queue's
            // `len` discounts lazy tombstones, so this also pins the
            // indexed queue's exact-count semantics.)
            prop_assert_eq!(reference.len(), indexed.len());
            prop_assert_eq!(reference.is_empty(), indexed.is_empty());
            prop_assert_eq!(reference.peek_time(), indexed.peek_time());
            prop_assert_eq!(
                reference.now().to_bits(),
                indexed.now().to_bits(),
                "clocks diverged"
            );
        }
        // Drain: the full remaining pop sequences (time, payload) match.
        loop {
            let a = reference.pop();
            let b = indexed.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn indexed_queue_stats_conserve_under_random_interleavings(
        // Same op-selector style as the equivalence test above: schedule
        // dominates so the queue crosses the linear→heap threshold, with
        // pops, live/dead cancels, bulk cancels, expired draws, and clears
        // mixed in. After every step the traffic counters must satisfy
        // scheduled == fired + cancelled + expired + len().
        ops in proptest::collection::vec((0u8..100, 0u8..8), 1..400),
        seed in any::<u64>(),
    ) {
        // Two starting fills: empty (linear regime) and past the linear
        // threshold (heap regime from the first step), so the invariant is
        // exercised in both regimes on every generated op stream.
        for preload in [0usize, 40] {
        let mut q: IndexedEventQueue<u64> = IndexedEventQueue::new();
        let mut rng = SimRng::seed_from(seed);
        let mut live = Vec::new();
        let mut dead = Vec::new();
        let mut payload = 0u64;
        for _ in 0..preload {
            live.push(q.schedule(f64::from(payload as u8), payload).unwrap());
            payload += 1;
        }
        prop_assert_eq!(q.stats().heap_crossings > 0, preload > 32);

        for &(op, t) in &ops {
            match op {
                // Schedule (majority share so the heap regime is reached).
                0..=49 => {
                    live.push(q.schedule(f64::from(t), payload).unwrap());
                    payload += 1;
                }
                // Pop due / pop.
                50..=69 => {
                    if op % 2 == 0 {
                        let _ = q.pop();
                    } else {
                        let _ = q.pop_due(q.now() + f64::from(t));
                    }
                }
                // A drawn delay past the horizon, never enqueued.
                70..=76 => q.note_expired(),
                // Cancel a random live handle.
                77..=86 => {
                    if !live.is_empty() {
                        let k = rng.next_bounded(live.len() as u64) as usize;
                        let h = live.swap_remove(k);
                        // The handle may have been popped already.
                        q.cancel(h);
                        dead.push(h);
                    }
                }
                // Cancel a dead handle: must not perturb the counters.
                87..=90 => {
                    if !dead.is_empty() {
                        let k = rng.next_bounded(dead.len() as u64) as usize;
                        let before = q.stats();
                        prop_assert!(!q.cancel(dead[k]));
                        prop_assert_eq!(before, q.stats());
                    }
                }
                // Bulk cancel (counts every pending entry).
                91..=94 => {
                    q.cancel_all();
                    dead.append(&mut live);
                }
                // Clear: wiped entries count as cancelled, totals survive.
                _ => {
                    q.clear();
                    dead.append(&mut live);
                }
            }
            prop_assert!(
                q.stats().conserves(q.len()),
                "conservation broken: {:?} with {} pending",
                q.stats(),
                q.len()
            );
            prop_assert!(q.stats().depth_high_water >= q.len() as u64);
        }
        }
    }

    #[test]
    fn indexed_queue_pop_due_is_peek_compare_pop(
        times in proptest::collection::vec(0u8..16, 1..80),
        horizon in 0u8..16,
    ) {
        // `pop_due(h)` must behave exactly like the engine's historical
        // peek / compare / pop idiom on the reference queue.
        let mut reference: EventQueue<usize> = EventQueue::new();
        let mut indexed: IndexedEventQueue<usize> = IndexedEventQueue::new();
        let horizon = f64::from(horizon);
        for (i, &t) in times.iter().enumerate() {
            reference.schedule(f64::from(t), i).unwrap();
            indexed.schedule(f64::from(t), i).unwrap();
        }
        loop {
            let expected = match reference.peek_time() {
                Some(t) if t <= horizon => reference.pop(),
                _ => None,
            };
            let got = indexed.pop_due(horizon);
            prop_assert_eq!(expected, got);
            if got.is_none() {
                break;
            }
        }
        prop_assert_eq!(reference.len(), indexed.len());
    }
}

/// Non-proptest statistical smoke test: KS on each closed-form sampler.
#[test]
fn ks_validates_every_sampler() {
    let dists: Vec<Box<dyn Lifetime>> = vec![
        Box::new(Exponential::new(0.37).unwrap()),
        Box::new(Weibull::new(4.0, 1.48).unwrap()),
    ];
    let mut rng = SimRng::seed_from(20_240_601);
    for d in &dists {
        let samples: Vec<f64> = (0..4_000).map(|_| d.sample(&mut rng)).collect();
        let r = ks_test(&samples, d.as_ref()).unwrap();
        assert!(r.p_value > 0.005, "{} failed KS: p={}", d.name(), r.p_value);
    }
}

// Numerical-invariant suite for the Monte-Carlo estimator machinery: an
// availability estimate is a probability, and its confidence interval must
// tighten as iterations grow (the paper's 1/sqrt(n) error law).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mc_availability_estimate_is_a_probability_and_ci_shrinks(
        seed in any::<u64>(),
        p in 0.05f64..0.95,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let mut small = RunningStats::new();
        let mut big = RunningStats::new();
        for i in 0..4096u64 {
            let up = if rng.bernoulli(p) { 1.0 } else { 0.0 };
            if i < 256 {
                small.push(up);
            }
            big.push(up);
        }
        for stats in [&small, &big] {
            let a = stats.mean();
            prop_assert!((0.0..=1.0).contains(&a), "estimate {a} outside [0,1]");
        }

        let ci_small = t_interval(&small, 0.99).unwrap();
        let ci_big = t_interval(&big, 0.99).unwrap();
        prop_assert!(ci_small.half_width.is_finite() && ci_small.half_width >= 0.0);
        prop_assert!(ci_big.half_width.is_finite() && ci_big.half_width >= 0.0);
        // 16x the iterations must shrink the half-width well below the
        // trivial bound (asymptotic factor 4x). The absolute slack absorbs
        // the rare stream whose first 256 draws have near-zero variance
        // (hw_small ~ 0 while hw_big is honest), so the property stays safe
        // under a real randomly-seeded proptest, not just the vendored
        // deterministic shim.
        prop_assert!(
            ci_big.half_width <= ci_small.half_width * 0.8 + 0.01,
            "CI failed to shrink: {} -> {}",
            ci_small.half_width,
            ci_big.half_width
        );
        // Both intervals, clipped to [0,1], still cover the true p most of
        // the time; at 99% confidence a deterministic seed stream makes this
        // effectively always true, so assert coverage of the wide interval.
        prop_assert!(
            ci_small.contains(p) || ci_big.contains(p),
            "neither CI covers p={p}: small {ci_small}, big {ci_big}"
        );
    }
}
