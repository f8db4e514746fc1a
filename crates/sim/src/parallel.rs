//! Deterministic ordered parallel mapping.
//!
//! The workspace's two parallel runners (the Monte-Carlo iteration scheduler
//! in `availsim-core` and the campaign batch runner in `availsim-exp`) share
//! one concurrency shape: N scoped workers claim items one at a time, in
//! index order, and each value lands in **its item's slot** of one output
//! sized up front, which the caller then reads in index order — so which
//! thread computed what never changes a result bit, and nothing is sorted
//! or gathered after the workers stop. This module is that shape, written
//! once.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cooperative cancellation / deadline budget shared between a controller
/// and the workers of an [`ordered_parallel_map_cancellable`] run.
///
/// A token trips in one of two ways: explicitly via [`CancelToken::cancel`]
/// (e.g. a server draining on shutdown), or implicitly when the optional
/// wall-clock deadline passes. Workers poll [`CancelToken::is_cancelled`]
/// once per *claimed item* — items are whole Monte-Carlo blocks or campaign
/// cells, so the poll is off the hot per-event path. Cancellation stops the
/// claiming of **new** items; items already claimed still finish, so every
/// value that is returned was computed completely and deterministically.
///
/// Cloning is cheap (an [`Arc`] bump); clones observe the same flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never expires on its own; only [`cancel`](Self::cancel)
    /// trips it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that trips automatically once `deadline` passes (and can
    /// still be tripped earlier via [`cancel`](Self::cancel)).
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// The wall-clock deadline, if one was set.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Trips the token: all clones observe cancellation from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been cancelled or its deadline has passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Resolves a requested worker count: an explicit count is used as-is;
/// `0` (auto) becomes the machine's [`std::thread::available_parallelism`]
/// (1 if unknown). The single source of the auto-parallelism policy for
/// every [`ordered_parallel_map_with`] caller.
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Maps `f` over `0..items` on `workers` scoped threads, returning the
/// values in item order.
///
/// Work is claimed dynamically, one item at a time, so load balances
/// across uneven items; each value is written into its own slot of one
/// output sized up front, so the output order — and therefore any
/// order-sensitive floating-point reduction performed over it — is
/// independent of the worker count, with no sort. `workers` is clamped to
/// `[1, items]`.
///
/// Each worker thread calls `init()` exactly once when it starts and hands
/// the resulting **worker-scoped scratch state** mutably to `f` for every
/// item it claims. This is the allocation-free fan-out primitive: a worker
/// builds its scratch (event queues, accumulators, buffers) once and reuses
/// it across all the blocks it processes, so the per-item path performs no
/// heap allocations after warm-up. **As long as `f(state, i)` returns the
/// same value regardless of what the scratch saw before** (i.e. `f` fully
/// resets the parts of the scratch it reads), the output is bit-identical
/// at any worker count. The scratch is dropped when its worker finishes;
/// nothing is returned from it.
///
/// `abort_after` is consulted on each produced value; when it returns
/// `true`, workers stop claiming *new* items (already claimed items still
/// finish and are returned). Use it to cut a batch short on the first
/// error. Items are claimed in index order and every claimed item
/// finishes, so on abort the result is the values of items `0..k` for
/// some `k` past the aborting item; without abort it is always complete.
pub fn ordered_parallel_map_with<S, T, I, F, A>(
    items: u64,
    workers: usize,
    init: I,
    f: F,
    abort_after: A,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> T + Sync,
    A: Fn(&T) -> bool + Sync,
{
    ordered_parallel_map_cancellable(items, workers, init, f, abort_after, None)
}

/// [`ordered_parallel_map_with`] plus an optional [`CancelToken`] consulted
/// before each item claim.
///
/// When the token trips (explicit cancel or deadline), workers stop claiming
/// new items exactly like `abort_after` — in-flight items finish and are
/// returned. The caller distinguishes a cancelled run from a complete one by
/// `result.len() < items`: the result is the completed prefix, every value
/// fully computed, in index order, and bit-identical to what an uncancelled
/// run would have produced for that index at any worker count.
///
/// # Panics
/// If `items` exceeds the address space, or when `f` panics on a worker.
pub fn ordered_parallel_map_cancellable<S, T, I, F, A>(
    items: u64,
    workers: usize,
    init: I,
    f: F,
    abort_after: A,
    cancel: Option<&CancelToken>,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> T + Sync,
    A: Fn(&T) -> bool + Sync,
{
    let items = usize::try_from(items).expect("item count fits the address space");
    let workers = workers.clamp(1, items.max(1));
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(items, || None);
    // A claim takes the next slot: its index and the only reference to it.
    let claims = Mutex::new(slots.iter_mut().enumerate());
    let aborted = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (claims, aborted, init, f, abort_after) =
                    (&claims, &aborted, &init, &f, &abort_after);
                scope.spawn(move || {
                    let mut state = init();
                    loop {
                        if aborted.load(Ordering::Relaxed)
                            || cancel.is_some_and(CancelToken::is_cancelled)
                        {
                            break;
                        }
                        let claim = claims.lock().expect("claims are never poisoned").next();
                        let Some((i, slot)) = claim else {
                            break;
                        };
                        let value = f(&mut state, i as u64);
                        if abort_after(&value) {
                            aborted.store(true, Ordering::Relaxed);
                        }
                        *slot = Some(value);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("parallel map worker panicked");
        }
    });
    // Claims run in index order and every claimed item finishes, so the
    // filled slots are a prefix.
    slots.into_iter().map_while(|v| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_workers_passes_explicit_and_floors_auto_at_one() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
    }

    #[test]
    fn covers_every_item_exactly_once_in_order() {
        for workers in [1, 2, 7, 64] {
            let out = ordered_parallel_map_with(100, workers, || (), |(), i| i * 3, |_| false);
            assert_eq!(out.len(), 100);
            for (k, v) in out.iter().enumerate() {
                assert_eq!(*v, k as u64 * 3);
            }
        }
    }

    #[test]
    fn zero_items_returns_empty() {
        let out = ordered_parallel_map_with(0, 4, || (), |(), i| i, |_| false);
        assert!(out.is_empty());
    }

    #[test]
    fn result_is_worker_count_invariant_for_float_reductions() {
        let reduce = |workers| {
            let out = ordered_parallel_map_with(
                1000,
                workers,
                || (),
                |(), i| 1.0 / (i as f64 + 1.0),
                |_| false,
            );
            out.iter().sum::<f64>().to_bits()
        };
        assert_eq!(reduce(1), reduce(5));
    }

    #[test]
    fn worker_state_is_built_once_per_worker_and_reused() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let workers = 3;
        let out = ordered_parallel_map_with(
            50,
            workers,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                // Scratch: a reusable buffer each item fills and reads.
                Vec::<u64>::with_capacity(8)
            },
            |buf, i| {
                buf.clear();
                buf.extend_from_slice(&[i, i + 1]);
                buf.iter().sum::<u64>()
            },
            |_| false,
        );
        assert!(inits.load(Ordering::Relaxed) <= workers);
        assert_eq!(out.len(), 50);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64 + 1);
        }
    }

    #[test]
    fn worker_state_variant_is_worker_count_invariant() {
        let reduce = |workers| {
            let out = ordered_parallel_map_with(
                500,
                workers,
                || 0u64, // per-worker claim counter: result must not read it
                |count, i| {
                    *count += 1;
                    1.0 / (i as f64 + 1.0)
                },
                |_| false,
            );
            out.iter().sum::<f64>().to_bits()
        };
        assert_eq!(reduce(1), reduce(7));
    }

    #[test]
    fn abort_stops_claiming_new_items() {
        let out = ordered_parallel_map_with(1_000_000, 2, || (), |(), i| i, |&v| v == 10);
        // Item 10 was produced; far fewer than a million items ran.
        assert_eq!(out.get(10), Some(&10));
        assert!(out.len() < 1_000_000);
    }

    #[test]
    fn without_abort_partial_results_never_happen() {
        let out = ordered_parallel_map_with(257, 8, || (), |(), i| i % 7, |_| false);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn cancel_token_defaults_to_live_and_trips_on_cancel() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(token.deadline().is_none());
        let clone = token.clone();
        token.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn cancel_token_trips_once_deadline_passes() {
        let future =
            CancelToken::with_deadline(Instant::now() + std::time::Duration::from_secs(60));
        assert!(!future.is_cancelled());
        let past = CancelToken::with_deadline(Instant::now() - std::time::Duration::from_millis(1));
        assert!(past.is_cancelled());
    }

    #[test]
    fn pre_cancelled_token_claims_no_items() {
        let token = CancelToken::new();
        token.cancel();
        let out =
            ordered_parallel_map_cancellable(1_000, 4, || (), |(), i| i, |_| false, Some(&token));
        assert!(out.is_empty());
    }

    #[test]
    fn cancel_mid_run_stops_claiming_but_returns_complete_prefix_values() {
        let token = CancelToken::new();
        let out = ordered_parallel_map_cancellable(
            1_000_000,
            2,
            || (),
            |(), i| {
                if i == 5 {
                    token.cancel();
                }
                i * 2
            },
            |_| false,
            Some(&token),
        );
        // Item 5 itself completed (cancellation never truncates a claimed
        // item) and far fewer than a million items ran afterwards.
        assert_eq!(out.get(5), Some(&10));
        assert!(out.len() < 1_000_000);
        // Every returned value is the fully computed value for its index.
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn none_token_is_equivalent_to_uncancellable_run() {
        let out = ordered_parallel_map_cancellable(64, 3, || (), |(), i| i + 1, |_| false, None);
        assert_eq!(out.len(), 64);
    }
}
