//! Property-based tests for the simulation kernel. The indexed event queue
//! is checked against the reference queue of [`reference`].

use availsim_sim::distributions::{Exponential, Lifetime, Weibull};
use availsim_sim::indexed_queue::IndexedEventQueue;
use availsim_sim::parallel::{
    ordered_parallel_map_cancellable, ordered_parallel_map_with, CancelToken,
};
use availsim_sim::rng::SimRng;
use availsim_sim::stats::{ks_test, t_interval, RunningStats};
use proptest::prelude::*;
use reference::EventQueue;

/// The reference event queue the indexed queue is checked against: a
/// binary heap with FIFO tie-breaking and lazy (tombstone) cancellation.
/// No program path runs it, so it lives with the tests.
mod reference {
    use availsim_sim::{Result, SimError};
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    /// Handle returned by [`EventQueue::schedule`], usable to cancel the event.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct EventHandle(u64);

    #[derive(Debug)]
    struct Scheduled<E> {
        time: f64,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Scheduled<E> {}

    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap semantics via reversed comparison; earlier time first,
            // then FIFO by sequence number. Times are validated non-NaN on entry.
            other
                .time
                .partial_cmp(&self.time)
                .expect("event times are validated to be non-NaN")
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// A discrete-event queue parameterized over the event payload type.
    #[derive(Debug)]
    pub struct EventQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        cancelled: HashSet<u64>,
        /// Sequence numbers currently pending (scheduled, not yet popped or
        /// cancelled) — the authority for [`Self::cancel`]'s return value, so
        /// a handle whose event was already *popped* is correctly refused
        /// instead of planting a tombstone for an absent entry (which would
        /// corrupt [`Self::len`]).
        pending: HashSet<u64>,
        next_seq: u64,
        /// First sequence number issued after the most recent [`Self::clear`];
        /// handles below it are stale and rejected by [`Self::cancel`].
        first_live_seq: u64,
        now: f64,
    }

    impl<E> Default for EventQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> EventQueue<E> {
        /// Creates an empty queue at time zero.
        pub fn new() -> Self {
            EventQueue {
                heap: BinaryHeap::new(),
                cancelled: HashSet::new(),
                pending: HashSet::new(),
                next_seq: 0,
                first_live_seq: 0,
                now: 0.0,
            }
        }

        /// Creates an empty queue at time zero with room for `n` pending events
        /// before the heap reallocates.
        pub fn with_capacity(n: usize) -> Self {
            EventQueue {
                heap: BinaryHeap::with_capacity(n),
                cancelled: HashSet::with_capacity(n),
                pending: HashSet::with_capacity(n),
                next_seq: 0,
                first_live_seq: 0,
                now: 0.0,
            }
        }

        /// Resets the queue to an empty state at time zero while **retaining**
        /// the heap's and the cancellation set's allocated capacity. This is the
        /// hot-loop reset used by simulators that replay many missions on one
        /// queue without per-mission allocations.
        ///
        /// Handles issued before the reset are invalidated: the lazy
        /// cancellation set is emptied, and sequence numbers keep growing across
        /// resets, so a stale [`EventHandle`] is rejected by [`Self::cancel`]
        /// (returns `false`) and can never cancel, or be mistaken for, an event
        /// scheduled after `clear()`. [`Self::len`] and [`Self::peek_time`]
        /// therefore stay exact under lazy cancellation after any number of
        /// reuse cycles: `len()` counts only live post-reset events and
        /// `peek_time()` never reports a pre-reset entry.
        pub fn clear(&mut self) {
            self.heap.clear();
            self.cancelled.clear();
            self.pending.clear();
            self.first_live_seq = self.next_seq;
            self.now = 0.0;
        }

        /// Current simulation time (the timestamp of the last popped event).
        pub fn now(&self) -> f64 {
            self.now
        }

        /// Number of pending (non-cancelled) events.
        pub fn len(&self) -> usize {
            self.heap.len() - self.cancelled.len()
        }

        /// Whether no events are pending.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Schedules an event `delay` time units from now.
        ///
        /// # Errors
        /// Returns [`SimError::InvalidConfig`] for negative or NaN delays.
        pub fn schedule(&mut self, delay: f64, event: E) -> Result<EventHandle> {
            if delay < 0.0 || !delay.is_finite() {
                return Err(SimError::InvalidConfig(format!(
                    "invalid event delay {delay}"
                )));
            }
            self.schedule_at(self.now + delay, event)
        }

        /// Schedules an event at an absolute time, which must not lie in the
        /// past.
        ///
        /// # Errors
        /// Returns [`SimError::InvalidConfig`] for times before `now` or NaN.
        pub fn schedule_at(&mut self, time: f64, event: E) -> Result<EventHandle> {
            if time < self.now || !time.is_finite() {
                return Err(SimError::InvalidConfig(format!(
                    "event time {time} is before current time {}",
                    self.now
                )));
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.insert(seq);
            self.heap.push(Scheduled { time, seq, event });
            Ok(EventHandle(seq))
        }

        /// Cancels a scheduled event. Returns `true` if the event was still
        /// pending; a handle whose event was already popped, already
        /// cancelled, or scheduled before the last [`Self::clear`] returns
        /// `false` and changes nothing.
        pub fn cancel(&mut self, handle: EventHandle) -> bool {
            if handle.0 < self.first_live_seq || !self.pending.remove(&handle.0) {
                return false;
            }
            // Only mark: the heap entry is skipped lazily on pop.
            self.cancelled.insert(handle.0)
        }

        /// Removes and returns the next event, advancing the clock to its time.
        pub fn pop(&mut self) -> Option<(f64, E)> {
            while let Some(s) = self.heap.pop() {
                if self.cancelled.remove(&s.seq) {
                    continue;
                }
                self.pending.remove(&s.seq);
                self.now = s.time;
                return Some((s.time, s.event));
            }
            None
        }

        /// Timestamp of the next pending event without removing it.
        pub fn peek_time(&mut self) -> Option<f64> {
            while let Some(s) = self.heap.peek() {
                if self.cancelled.contains(&s.seq) {
                    let seq = s.seq;
                    self.heap.pop();
                    self.cancelled.remove(&seq);
                    continue;
                }
                return Some(s.time);
            }
            None
        }

        /// Drains events in order up to (and including) `horizon`, calling the
        /// handler with `(time, event)`. Events scheduled by the handler are
        /// processed too if they fall within the horizon. Returns the number of
        /// events processed.
        ///
        /// # Errors
        /// Propagates errors from the handler.
        pub fn run_until<F>(&mut self, horizon: f64, mut handler: F) -> Result<usize>
        where
            F: FnMut(&mut Self, f64, E) -> Result<()>,
        {
            let mut processed = 0;
            loop {
                match self.peek_time() {
                    Some(t) if t <= horizon => {
                        let (time, event) = self.pop().expect("peeked event exists");
                        handler(self, time, event)?;
                        processed += 1;
                    }
                    _ => break,
                }
            }
            self.now = self.now.max(horizon);
            Ok(processed)
        }
    }

    mod tests {
        use super::*;

        #[test]
        fn events_pop_in_time_order() {
            let mut q = EventQueue::new();
            q.schedule(3.0, "c").unwrap();
            q.schedule(1.0, "a").unwrap();
            q.schedule(2.0, "b").unwrap();
            assert_eq!(q.pop().unwrap(), (1.0, "a"));
            assert_eq!(q.pop().unwrap(), (2.0, "b"));
            assert_eq!(q.pop().unwrap(), (3.0, "c"));
            assert!(q.pop().is_none());
        }

        #[test]
        fn ties_break_fifo() {
            let mut q = EventQueue::new();
            q.schedule(1.0, "first").unwrap();
            q.schedule(1.0, "second").unwrap();
            q.schedule(1.0, "third").unwrap();
            assert_eq!(q.pop().unwrap().1, "first");
            assert_eq!(q.pop().unwrap().1, "second");
            assert_eq!(q.pop().unwrap().1, "third");
        }

        #[test]
        fn clock_advances_with_pops() {
            let mut q = EventQueue::new();
            q.schedule(5.0, ()).unwrap();
            assert_eq!(q.now(), 0.0);
            q.pop();
            assert_eq!(q.now(), 5.0);
            // Relative scheduling now measures from 5.0.
            q.schedule(1.0, ()).unwrap();
            assert_eq!(q.pop().unwrap().0, 6.0);
        }

        #[test]
        fn rejects_bad_times() {
            let mut q: EventQueue<()> = EventQueue::new();
            assert!(q.schedule(-1.0, ()).is_err());
            assert!(q.schedule(f64::NAN, ()).is_err());
            assert!(q.schedule(f64::INFINITY, ()).is_err());
            q.schedule(10.0, ()).unwrap();
            q.pop();
            assert!(q.schedule_at(5.0, ()).is_err());
        }

        #[test]
        fn cancellation_skips_events() {
            let mut q = EventQueue::new();
            let h1 = q.schedule(1.0, "a").unwrap();
            q.schedule(2.0, "b").unwrap();
            assert!(q.cancel(h1));
            assert!(!q.cancel(h1), "double cancel is a no-op");
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().unwrap().1, "b");
        }

        #[test]
        fn cancel_of_a_popped_handle_is_refused_and_len_stays_exact() {
            // Regression: cancelling a handle whose event already popped used
            // to plant a tombstone for an absent heap entry, underflowing
            // `len()` on the next schedule.
            let mut q = EventQueue::new();
            let h = q.schedule(1.0, "a").unwrap();
            assert_eq!(q.pop().unwrap().1, "a");
            assert!(!q.cancel(h), "popped handle must not cancel");
            q.schedule(2.0, "b").unwrap();
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().unwrap().1, "b");
            assert!(q.pop().is_none());
        }

        #[test]
        fn cancel_unknown_handle_is_false() {
            let mut q: EventQueue<()> = EventQueue::new();
            assert!(!q.cancel(EventHandle(99)));
        }

        #[test]
        fn peek_skips_cancelled() {
            let mut q = EventQueue::new();
            let h = q.schedule(1.0, "a").unwrap();
            q.schedule(2.0, "b").unwrap();
            q.cancel(h);
            assert_eq!(q.peek_time(), Some(2.0));
        }

        #[test]
        fn run_until_processes_and_respects_horizon() {
            let mut q = EventQueue::new();
            q.schedule(1.0, 1u32).unwrap();
            q.schedule(2.0, 2).unwrap();
            q.schedule(10.0, 3).unwrap();
            let mut seen = Vec::new();
            let n = q
                .run_until(5.0, |q, t, e| {
                    seen.push((t, e));
                    if e == 1 {
                        // Handler-scheduled event inside horizon is processed.
                        q.schedule(0.5, 4)?;
                    }
                    Ok(())
                })
                .unwrap();
            assert_eq!(n, 3);
            assert_eq!(seen, vec![(1.0, 1), (1.5, 4), (2.0, 2)]);
            assert_eq!(q.now(), 5.0);
            assert_eq!(q.len(), 1); // event at t=10 still pending
        }

        #[test]
        fn run_until_propagates_handler_errors() {
            let mut q = EventQueue::new();
            q.schedule(1.0, ()).unwrap();
            let err = q.run_until(2.0, |_, _, _| Err(SimError::InvalidConfig("boom".into())));
            assert!(err.is_err());
        }

        #[test]
        fn clear_resets_clock_events_and_capacity_survives() {
            let mut q = EventQueue::with_capacity(8);
            q.schedule(5.0, "a").unwrap();
            q.schedule(7.0, "b").unwrap();
            q.pop();
            assert_eq!(q.now(), 5.0);
            q.clear();
            assert_eq!(q.now(), 0.0);
            assert!(q.is_empty());
            assert_eq!(q.len(), 0);
            assert_eq!(q.peek_time(), None);
            // Relative scheduling measures from the reset clock.
            q.schedule(1.0, "c").unwrap();
            assert_eq!(q.pop().unwrap(), (1.0, "c"));
        }

        #[test]
        fn clear_purges_lazy_cancellations_and_rejects_stale_handles() {
            let mut q = EventQueue::new();
            let stale = q.schedule(1.0, "old").unwrap();
            q.schedule(2.0, "old2").unwrap();
            q.cancel(stale); // lazily marked, never popped
            q.clear();
            // len()/peek_time() are exact after reuse: the pending cancellation
            // must not leak into the new mission.
            let h = q.schedule(3.0, "new").unwrap();
            q.schedule(4.0, "new2").unwrap();
            assert_eq!(q.len(), 2);
            assert_eq!(q.peek_time(), Some(3.0));
            // A handle from before the reset can neither cancel nor alias a
            // post-reset event.
            assert!(!q.cancel(stale));
            assert_eq!(q.len(), 2);
            // Post-reset handles still cancel normally.
            assert!(q.cancel(h));
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(4.0));
            assert_eq!(q.pop().unwrap().1, "new2");
            assert!(q.pop().is_none());
        }

        #[test]
        fn reuse_cycles_keep_fifo_ties_and_counts() {
            let mut q = EventQueue::new();
            for _ in 0..3 {
                q.schedule(1.0, "first").unwrap();
                q.schedule(1.0, "second").unwrap();
                assert_eq!(q.len(), 2);
                assert_eq!(q.pop().unwrap().1, "first");
                assert_eq!(q.pop().unwrap().1, "second");
                q.clear();
            }
        }

        #[test]
        fn many_events_stay_sorted() {
            let mut q = EventQueue::new();
            // Insert times in a scrambled deterministic order.
            for i in 0..1000u64 {
                let t = ((i * 7919) % 1000) as f64;
                q.schedule_at(t, i).unwrap();
            }
            let mut prev = -1.0;
            while let Some((t, _)) = q.pop() {
                assert!(t >= prev);
                prev = t;
            }
        }
    }
}

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
        // exercised constantly — across lanes too, since each schedule
        // picks the clock or the timer lane by the selector's parity — and
        // the op mix crosses the linear→heap threshold when the schedule
        // share dominates.
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
                    let h_idx = if op % 2 == 0 {
                        indexed.schedule(delay, payload)
                    } else {
                        indexed.schedule_timer(delay, payload)
                    }
                    .unwrap();
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
        // mixed in, each schedule on the lane its selector's parity picks.
        // After every step the traffic counters must satisfy
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
            let delay = f64::from(payload as u8);
            live.push(if payload.is_multiple_of(2) {
                q.schedule(delay, payload)
            } else {
                q.schedule_timer(delay, payload)
            }
            .unwrap());
            payload += 1;
        }
        prop_assert_eq!(q.stats().heap_crossings > 0, preload > 32);

        for &(op, t) in &ops {
            match op {
                // Schedule (majority share so the heap regime is reached).
                0..=49 => {
                    let delay = f64::from(t);
                    live.push(if op % 2 == 0 {
                        q.schedule(delay, payload)
                    } else {
                        q.schedule_timer(delay, payload)
                    }
                    .unwrap());
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
            let up = if rng.next_f64() < p { 1.0 } else { 0.0 };
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

/// A value distinct per item, so a hole, a duplicate or a misplaced slot
/// in a fan-out's output shows.
fn item_value(i: u64) -> (u64, u64) {
    (i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bd1_e995)
}

/// Checks that `out` is `item_value(0), …, item_value(len − 1)`.
fn is_prefix_in_order(out: &[(u64, u64)]) -> std::result::Result<(), TestCaseError> {
    for (k, &v) in out.iter().enumerate() {
        prop_assert_eq!(v, item_value(k as u64));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ordered fan-out returns every item's value in index order, or,
    /// when an item aborts the run, the values of a prefix that reaches
    /// past it: no holes and no duplicates at any worker count.
    #[test]
    fn parallel_map_returns_the_completed_prefix_in_order(
        items in 0u64..=300,
        workers in 1usize..=8,
        aborts in any::<bool>(),
        abort_at in 0u64..300,
    ) {
        let abort = Some(abort_at).filter(|&j| aborts && j < items);
        let out = ordered_parallel_map_with(
            items,
            workers,
            || (),
            |(), i| item_value(i),
            |&(i, _)| Some(i) == abort,
        );
        match abort {
            None => prop_assert_eq!(out.len() as u64, items),
            Some(j) => prop_assert!(out.len() as u64 > j, "{} values, abort at {j}", out.len()),
        }
        is_prefix_in_order(&out)?;
    }

    /// A cancel token tripped inside item `j` stops the claims the same
    /// way: the values of a prefix past `j`, in index order.
    #[test]
    fn parallel_map_cancelled_inside_an_item_returns_a_prefix_past_it(
        items in 1u64..=300,
        workers in 1usize..=8,
        at in 0u64..300,
    ) {
        let j = at % items;
        let token = CancelToken::new();
        let out = ordered_parallel_map_cancellable(
            items,
            workers,
            || (),
            |(), i| {
                if i == j {
                    token.cancel();
                }
                item_value(i)
            },
            |_| false,
            Some(&token),
        );
        prop_assert!(out.len() as u64 > j, "{} values, cancelled in {j}", out.len());
        is_prefix_in_order(&out)?;
    }
}
