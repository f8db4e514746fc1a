//! Indexed discrete-event queue: a flat 4-ary indexed min-heap with an
//! adaptive small-queue regime and O(log n) in-place cancellation — the
//! hot-path replacement for a lazy-tombstone binary heap (kept as the
//! reference queue in `crates/sim/tests/properties.rs`).
//!
//! The lazy-tombstone queue pays a hash-set membership probe on **every**
//! `peek`/`pop` (and keeps dead entries in the heap until they surface).
//! This queue instead maintains a slot → position index, so cancellation
//! removes the entry immediately and the pop path touches nothing but the
//! flat entry array — no tombstones, no `HashSet`, no per-operation
//! hashing.
//!
//! Two regimes share one entry array:
//!
//! * **linear** (up to [`LINEAR_MAX`] pending events) — entries are
//!   unordered, the minimum's index is tracked incrementally, so
//!   `schedule` is O(1), peeking is O(1), and a pop is one `swap_remove`
//!   plus an O(n) rescan of a few cache-resident entries. This is the
//!   regime of per-array availability missions (a handful of disk clocks
//!   and service timers), where it beats any heap.
//! * **4-ary heap** — the first schedule that would exceed the threshold
//!   heapifies the array in place and the queue stays a heap until
//!   [`IndexedEventQueue::clear`]. Four children per node halve the depth
//!   of a binary heap and keep each sift level's child scan in one or two
//!   cache lines; this is the regime of fleet-scale simulations (thousands
//!   of concurrent disk clocks).
//!
//! Both regimes pop in exactly the same `(time, seq)` order — see the
//! ordering contract on [`IndexedEventQueue`].

use crate::error::{Result, SimError};

/// Handle returned by [`IndexedEventQueue::schedule`], usable to cancel the
/// event in place.
///
/// # Invalidation contract
///
/// A handle is live from the `schedule` call that produced it until the
/// event is **popped**, **cancelled**, or the queue is **cleared** —
/// whichever comes first. After that, [`IndexedEventQueue::cancel`] on the
/// handle returns `false` and has no effect, even though the underlying
/// slot may since have been reused for a newer event: every handle carries
/// its event's sequence number (unique within a clear cycle) plus the
/// queue's clear-epoch stamp, so a stale handle — whether its event was
/// popped, cancelled, or wiped by [`IndexedEventQueue::clear`] — can never
/// cancel, or be mistaken for, a later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexedEventHandle {
    slot: u32,
    seq: u64,
    epoch: u64,
}

/// One entry of the flat array. `slot` points into the side table that
/// makes cancellation O(log n).
#[derive(Debug)]
struct Entry<E> {
    time: f64,
    seq: u64,
    slot: u32,
    event: E,
}

impl<E> Entry<E> {
    /// Strict queue order: earlier time first, FIFO by sequence number on
    /// ties. Times are validated non-NaN on entry, and sequence numbers are
    /// unique, so this is a total order with no equal keys.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        self.time < other.time || (self.time == other.time && self.seq < other.seq)
    }
}

/// Per-slot bookkeeping: the sequence number of the occupying event (the
/// handle-validity check is one equality test) and its current position in
/// the entry array.
#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    pos: u32,
}

/// Sequence value stored for a slot that holds no live event; no handle
/// ever carries it (the schedule counter cannot reach `u64::MAX` in any
/// physically simulable run).
const FREE_SLOT: u64 = u64::MAX;

/// Heap arity of the large-queue regime.
const ARITY: usize = 4;

/// Largest pending-event count served by the linear regime; one more
/// schedule heapifies. 32 entries keep the rescan-on-pop inside a few
/// cache lines while covering every per-array mission comfortably.
const LINEAR_MAX: usize = 32;

/// `min_pos` sentinel for an empty queue.
const NO_MIN: u32 = u32::MAX;

/// Cumulative traffic counters of an [`IndexedEventQueue`], maintained
/// unconditionally (plain integer adds, negligible next to any queue
/// operation) and surviving [`IndexedEventQueue::clear`] so one workspace
/// queue accounts for a whole run of missions.
///
/// # Conservation invariant
///
/// Every accepted schedule is eventually accounted for exactly once:
///
/// ```text
/// scheduled == fired + cancelled + expired + len()
/// ```
///
/// where [`note_expired`](IndexedEventQueue::note_expired) records a drawn
/// delay that landed past the simulation horizon and was never enqueued
/// (it counts into both `scheduled` and `expired`). [`Self::conserves`]
/// checks the invariant; a property test in
/// `crates/sim/tests/properties.rs` enforces it under random
/// schedule/cancel/pop/clear interleavings in both regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Events accepted by `schedule`/`schedule_at`, plus expired draws.
    pub scheduled: u64,
    /// Events popped and delivered (`pop` / `pop_due`).
    pub fired: u64,
    /// Events removed without firing: `cancel`, `cancel_all`, and entries
    /// drained by `clear`.
    pub cancelled: u64,
    /// Drawn delays past the horizon, never enqueued (`note_expired`).
    pub expired: u64,
    /// Linear-to-heap regime crossings (`heapify` invocations).
    pub heap_crossings: u64,
    /// High-water mark of simultaneously pending events.
    pub depth_high_water: u64,
}

impl QueueStats {
    /// Checks the conservation invariant against the live queue length.
    pub fn conserves(&self, pending: usize) -> bool {
        self.scheduled == self.fired + self.cancelled + self.expired + pending as u64
    }
}

/// A time-ordered event queue with stable FIFO tie-breaking, O(1)
/// small-queue scheduling, and O(log n) in-place cancellation.
///
/// # Ordering contract
///
/// [`Self::pop`] returns events in ascending `(time, seq)` order, where
/// `seq` is the per-queue schedule counter: **events scheduled for the same
/// instant pop in the order they were scheduled** (FIFO). This is the exact
/// tie-break of the reference queue, bit for bit — a simulation
/// draws its random numbers in pop order, so swapping the queue
/// implementation never changes an estimate. The equivalence (pop
/// sequences, `len`, `peek_time`, and cancel results, under random
/// schedule/cancel/pop/clear interleavings) is enforced by a property test
/// in `crates/sim/tests/properties.rs`.
///
/// # Reuse discipline
///
/// [`Self::clear`] resets the queue to time zero while retaining every
/// allocation, and invalidates all outstanding handles (see
/// [`IndexedEventHandle`]) — the hot-loop reset for simulators replaying
/// many missions on one queue.
///
/// # Examples
///
/// ```
/// use availsim_sim::indexed_queue::IndexedEventQueue;
///
/// # fn main() -> Result<(), availsim_sim::SimError> {
/// let mut q: IndexedEventQueue<&str> = IndexedEventQueue::new();
/// q.schedule(10.0, "disk-failure")?;
/// let scrub = q.schedule(2.0, "scrub")?;
/// q.schedule(5.0, "service")?;
/// assert!(q.cancel(scrub));
/// assert!(!q.cancel(scrub), "cancelling twice is a no-op");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (5.0, "service"));
/// assert_eq!(q.now(), 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IndexedEventQueue<E> {
    entries: Vec<Entry<E>>,
    slots: Vec<Slot>,
    /// Reusable slot ids.
    free: Vec<u32>,
    /// Schedule counter within the current clear cycle (the FIFO
    /// tie-break); [`Self::clear`] resets it and bumps `clear_epoch`.
    /// 64-bit so it cannot wrap within a mission — a wrapped counter
    /// could collide with [`FREE_SLOT`] and let a stale handle evict a
    /// live event.
    next_seq: u64,
    /// Number of [`Self::clear`] calls so far; stamped into handles so a
    /// pre-clear handle can never alias a post-clear event.
    clear_epoch: u64,
    now: f64,
    /// Index of the minimum entry in the linear regime ([`NO_MIN`] when
    /// empty); unused in the heap regime, where the minimum is the root.
    min_pos: u32,
    /// Whether the entry array is currently heap-ordered. Transitions
    /// linear → heap when a schedule exceeds [`LINEAR_MAX`]; only
    /// [`Self::clear`] returns to the linear regime.
    is_heap: bool,
    /// Cumulative traffic counters (see [`QueueStats`]); survive
    /// [`Self::clear`].
    stats: QueueStats,
}

impl<E> Default for IndexedEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> IndexedEventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        IndexedEventQueue {
            entries: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            clear_epoch: 0,
            now: 0.0,
            min_pos: NO_MIN,
            is_heap: false,
            stats: QueueStats::default(),
        }
    }

    /// Creates an empty queue at time zero with room for `n` pending events
    /// before any buffer reallocates.
    pub fn with_capacity(n: usize) -> Self {
        IndexedEventQueue {
            entries: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            next_seq: 0,
            clear_epoch: 0,
            now: 0.0,
            min_pos: NO_MIN,
            is_heap: false,
            stats: QueueStats::default(),
        }
    }

    /// Resets the queue to an empty state at time zero while **retaining**
    /// all allocated capacity — the hot-loop reset used by simulators that
    /// replay many missions on one queue without per-mission allocations.
    ///
    /// All outstanding handles are invalidated: slots and sequence numbers
    /// are recycled but the clear epoch advances, so a pre-reset
    /// [`IndexedEventHandle`] is rejected by [`Self::cancel`] (returns
    /// `false`) and can never cancel, or alias, an event scheduled after
    /// the reset.
    pub fn clear(&mut self) {
        // Entries wiped without firing count as cancelled, keeping the
        // conservation invariant across clear cycles.
        self.stats.cancelled += self.entries.len() as u64;
        self.entries.clear();
        self.slots.clear();
        self.free.clear();
        self.next_seq = 0;
        self.clear_epoch += 1;
        self.now = 0.0;
        self.min_pos = NO_MIN;
        self.is_heap = false;
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events. Exact: cancelled events leave the array
    /// immediately.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative traffic counters since construction (they survive
    /// [`Self::clear`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Records a drawn event delay that landed past the simulation horizon
    /// and was therefore never enqueued — the engines' sample-then-check
    /// idiom. Counts into both `scheduled` and `expired` so the
    /// conservation invariant covers every draw.
    #[inline]
    pub fn note_expired(&mut self) {
        self.stats.scheduled += 1;
        self.stats.expired += 1;
    }

    /// Schedules an event `delay` time units from now.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] for negative or NaN delays.
    #[inline]
    pub fn schedule(&mut self, delay: f64, event: E) -> Result<IndexedEventHandle> {
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
    #[inline]
    pub fn schedule_at(&mut self, time: f64, event: E) -> Result<IndexedEventHandle> {
        if time < self.now || !time.is_finite() {
            return Err(SimError::InvalidConfig(format!(
                "event time {time} is before current time {}",
                self.now
            )));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.entries.len() as u32;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Slot { seq, pos };
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot { seq, pos });
                s
            }
        };
        self.entries.push(Entry {
            time,
            seq,
            slot,
            event,
        });
        self.stats.scheduled += 1;
        self.stats.depth_high_water = self.stats.depth_high_water.max(self.entries.len() as u64);
        if self.is_heap {
            self.sift_up(pos as usize);
        } else if self.entries.len() <= LINEAR_MAX {
            if self.min_pos == NO_MIN
                || self.entries[pos as usize].before(&self.entries[self.min_pos as usize])
            {
                self.min_pos = pos;
            }
        } else {
            self.heapify();
        }
        Ok(IndexedEventHandle {
            slot,
            seq,
            epoch: self.clear_epoch,
        })
    }

    /// Cancels a scheduled event **in place**, removing it from the array
    /// immediately. Returns `true` if the event was still pending; a stale
    /// handle (already popped, already cancelled, or from before a
    /// [`Self::clear`]) returns `false` and changes nothing.
    pub fn cancel(&mut self, handle: IndexedEventHandle) -> bool {
        let slot = handle.slot as usize;
        if handle.epoch != self.clear_epoch
            || self.slots.get(slot).map(|s| s.seq) != Some(handle.seq)
        {
            return false;
        }
        let pos = self.slots[slot].pos as usize;
        self.stats.cancelled += 1;
        self.release_slot(handle.slot);
        if self.is_heap {
            let last = self
                .entries
                .pop()
                .expect("indexed slot implies a live entry");
            if pos < self.entries.len() {
                self.entries[pos] = last;
                self.slots[self.entries[pos].slot as usize].pos = pos as u32;
                // The moved entry came from the bottom; it usually goes
                // further down, unless it now beats its parent.
                self.sift_up(pos);
                self.sift_down(pos);
            }
        } else {
            let was_last = self.entries.len() - 1;
            self.entries.swap_remove(pos);
            if pos < self.entries.len() {
                self.slots[self.entries[pos].slot as usize].pos = pos as u32;
            }
            if pos == self.min_pos as usize {
                self.min_pos = self.scan_min();
            } else if self.min_pos as usize == was_last {
                // The minimum was the entry moved into the hole.
                self.min_pos = pos as u32;
            }
        }
        true
    }

    /// Removes and returns the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        if self.is_heap {
            self.pop_root()
        } else if self.min_pos == NO_MIN {
            None
        } else {
            Some(self.remove_linear_min())
        }
    }

    /// [`Self::pop`], but only if the next event is due at or before
    /// `horizon` — the single-probe form of the peek-compare-pop idiom that
    /// dominates mission loops. Returns `None` (clock untouched) when the
    /// queue is empty or the next event lies beyond the horizon.
    #[inline]
    pub fn pop_due(&mut self, horizon: f64) -> Option<(f64, E)> {
        if self.is_heap {
            match self.entries.first() {
                Some(e) if e.time <= horizon => self.pop_root(),
                _ => None,
            }
        } else if self.min_pos == NO_MIN || self.entries[self.min_pos as usize].time > horizon {
            None
        } else {
            Some(self.remove_linear_min())
        }
    }

    /// Cancels **every** pending event in one pass, without touching the
    /// clock — the bulk form of [`Self::cancel`] for simulators whose
    /// state transitions void all armed events at once (e.g. a race of
    /// exponentials where one exit fired). All outstanding handles become
    /// stale. Unlike [`Self::clear`], `now` and the schedule counter are
    /// preserved, so subsequent relative schedules still measure from the
    /// current simulation time.
    pub fn cancel_all(&mut self) {
        self.stats.cancelled += self.entries.len() as u64;
        for e in self.entries.drain(..) {
            self.slots[e.slot as usize].seq = FREE_SLOT;
            self.free.push(e.slot);
        }
        self.min_pos = NO_MIN;
    }

    /// Timestamp of the next pending event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        if self.is_heap {
            self.entries.first().map(|e| e.time)
        } else if self.min_pos == NO_MIN {
            None
        } else {
            Some(self.entries[self.min_pos as usize].time)
        }
    }

    /// Removes the heap root (the minimum in the heap regime).
    fn pop_root(&mut self) -> Option<(f64, E)> {
        let last = self.entries.pop()?;
        let entry = if self.entries.is_empty() {
            last
        } else {
            let root = std::mem::replace(&mut self.entries[0], last);
            self.slots[self.entries[0].slot as usize].pos = 0;
            self.sift_down(0);
            root
        };
        self.release_slot(entry.slot);
        self.stats.fired += 1;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Removes the tracked minimum in the linear regime and rescans for
    /// the next one. The caller guarantees `min_pos` is valid.
    fn remove_linear_min(&mut self) -> (f64, E) {
        let pos = self.min_pos as usize;
        let entry = self.entries.swap_remove(pos);
        if pos < self.entries.len() {
            self.slots[self.entries[pos].slot as usize].pos = pos as u32;
        }
        self.release_slot(entry.slot);
        self.stats.fired += 1;
        self.min_pos = self.scan_min();
        self.now = entry.time;
        (entry.time, entry.event)
    }

    /// Index of the `(time, seq)`-minimum entry, or [`NO_MIN`] when empty.
    /// Deterministic: the strict total order has no equal keys, so the
    /// result does not depend on the array's incidental layout.
    fn scan_min(&self) -> u32 {
        let mut it = self.entries.iter().enumerate();
        let Some((_, first)) = it.next() else {
            return NO_MIN;
        };
        let mut best = 0usize;
        let mut best_entry = first;
        for (i, e) in it {
            if e.before(best_entry) {
                best = i;
                best_entry = e;
            }
        }
        best as u32
    }

    /// Marks `slot` free and recycles it.
    #[inline]
    fn release_slot(&mut self, slot: u32) {
        self.slots[slot as usize].seq = FREE_SLOT;
        self.free.push(slot);
    }

    /// Establishes the 4-ary heap order over the whole entry array and
    /// enters the heap regime (left only via [`Self::clear`]).
    fn heapify(&mut self) {
        self.stats.heap_crossings += 1;
        self.is_heap = true;
        self.min_pos = NO_MIN;
        let len = self.entries.len();
        // Positions were maintained in the linear regime and sifts repair
        // them on every swap, so only the order needs establishing.
        for i in (0..len / ARITY + 1).rev() {
            self.sift_down(i);
        }
    }

    /// Moves the entry at `pos` up until its parent is not after it.
    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if self.entries[pos].before(&self.entries[parent]) {
                self.entries.swap(pos, parent);
                self.slots[self.entries[pos].slot as usize].pos = pos as u32;
                self.slots[self.entries[parent].slot as usize].pos = parent as u32;
                pos = parent;
            } else {
                break;
            }
        }
    }

    /// Moves the entry at `pos` down until no child precedes it.
    fn sift_down(&mut self, mut pos: usize) {
        let len = self.entries.len();
        loop {
            let first_child = pos * ARITY + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let last_child = (first_child + ARITY).min(len);
            for c in first_child + 1..last_child {
                if self.entries[c].before(&self.entries[best]) {
                    best = c;
                }
            }
            if self.entries[best].before(&self.entries[pos]) {
                self.entries.swap(pos, best);
                self.slots[self.entries[pos].slot as usize].pos = pos as u32;
                self.slots[self.entries[best].slot as usize].pos = best as u32;
                pos = best;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = IndexedEventQueue::new();
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
        let mut q = IndexedEventQueue::new();
        q.schedule(1.0, "first").unwrap();
        q.schedule(1.0, "second").unwrap();
        q.schedule(1.0, "third").unwrap();
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn ties_break_fifo_across_the_heap_threshold() {
        let mut q = IndexedEventQueue::new();
        for i in 0..(LINEAR_MAX as u64 + 20) {
            q.schedule(1.0, i).unwrap();
        }
        for i in 0..(LINEAR_MAX as u64 + 20) {
            assert_eq!(q.pop().unwrap(), (1.0, i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = IndexedEventQueue::new();
        q.schedule(5.0, ()).unwrap();
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
        q.schedule(1.0, ()).unwrap();
        assert_eq!(q.pop().unwrap().0, 6.0);
    }

    #[test]
    fn rejects_bad_times() {
        let mut q: IndexedEventQueue<()> = IndexedEventQueue::new();
        assert!(q.schedule(-1.0, ()).is_err());
        assert!(q.schedule(f64::NAN, ()).is_err());
        assert!(q.schedule(f64::INFINITY, ()).is_err());
        q.schedule(10.0, ()).unwrap();
        q.pop();
        assert!(q.schedule_at(5.0, ()).is_err());
    }

    #[test]
    fn cancellation_removes_events_immediately() {
        let mut q = IndexedEventQueue::new();
        let h1 = q.schedule(1.0, "a").unwrap();
        q.schedule(2.0, "b").unwrap();
        assert_eq!(q.len(), 2);
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel is a no-op");
        // No tombstones: the entry is gone from the array right away.
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn cancel_of_a_popped_handle_is_false_even_after_slot_reuse() {
        let mut q = IndexedEventQueue::new();
        let h = q.schedule(1.0, "a").unwrap();
        q.pop();
        // The slot is recycled for a new event; the old handle must not
        // reach it.
        let h2 = q.schedule(2.0, "b").unwrap();
        assert!(!q.cancel(h));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(h2));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cancelling_the_minimum_rescans_correctly() {
        let mut q = IndexedEventQueue::new();
        let h1 = q.schedule(1.0, "min").unwrap();
        q.schedule(3.0, "later").unwrap();
        q.schedule(2.0, "mid").unwrap();
        assert!(q.cancel(h1));
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn cancel_interior_entry_keeps_order_in_both_regimes() {
        for count in [24u64, 200] {
            let mut q = IndexedEventQueue::new();
            let mut handles = Vec::new();
            for i in 0..count {
                let t = ((i * 13) % count) as f64;
                handles.push((t, q.schedule_at(t, i).unwrap()));
            }
            // Cancel every third entry, including interior nodes.
            let mut expect: Vec<f64> = Vec::new();
            for (k, (t, h)) in handles.iter().enumerate() {
                if k % 3 == 0 {
                    assert!(q.cancel(*h));
                } else {
                    expect.push(*t);
                }
            }
            expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut got = Vec::new();
            while let Some((t, _)) = q.pop() {
                got.push(t);
            }
            assert_eq!(got, expect, "count {count}");
        }
    }

    #[test]
    fn pop_due_respects_the_horizon() {
        let mut q = IndexedEventQueue::new();
        q.schedule(1.0, "a").unwrap();
        q.schedule(5.0, "b").unwrap();
        assert_eq!(q.pop_due(2.0).unwrap(), (1.0, "a"));
        assert!(q.pop_due(2.0).is_none());
        assert_eq!(q.now(), 1.0, "a refused pop leaves the clock alone");
        assert_eq!(q.pop_due(5.0).unwrap(), (5.0, "b"));
        assert!(q.pop_due(f64::INFINITY).is_none());
    }

    #[test]
    fn clear_resets_clock_events_and_invalidates_handles() {
        let mut q = IndexedEventQueue::with_capacity(8);
        let stale = q.schedule(5.0, "a").unwrap();
        q.schedule(7.0, "b").unwrap();
        q.pop();
        assert_eq!(q.now(), 5.0);
        q.clear();
        assert_eq!(q.now(), 0.0);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // Relative scheduling measures from the reset clock, and stale
        // handles can neither cancel nor alias post-reset events.
        let h = q.schedule(3.0, "new").unwrap();
        q.schedule(4.0, "new2").unwrap();
        assert!(!q.cancel(stale));
        assert_eq!(q.len(), 2);
        assert!(q.cancel(h));
        assert_eq!(q.pop().unwrap(), (4.0, "new2"));
    }

    #[test]
    fn clear_returns_a_heapified_queue_to_the_linear_regime() {
        let mut q = IndexedEventQueue::new();
        for i in 0..(LINEAR_MAX as u64 * 2) {
            q.schedule_at(i as f64, i).unwrap();
        }
        assert!(q.is_heap);
        q.clear();
        assert!(!q.is_heap);
        q.schedule(2.0, 100).unwrap();
        q.schedule(1.0, 200).unwrap();
        assert_eq!(q.pop().unwrap(), (1.0, 200));
        assert_eq!(q.pop().unwrap(), (2.0, 100));
    }

    #[test]
    fn reuse_cycles_keep_fifo_ties_and_counts() {
        let mut q = IndexedEventQueue::new();
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
    fn many_events_stay_sorted_with_interleaved_cancels() {
        let mut q = IndexedEventQueue::new();
        let mut live = Vec::new();
        for i in 0..1000u64 {
            let t = ((i * 7919) % 1000) as f64;
            let h = q.schedule_at(t, i).unwrap();
            if i % 5 == 0 {
                assert!(q.cancel(h));
            } else {
                live.push(t);
            }
        }
        assert_eq!(q.len(), live.len());
        let mut prev = -1.0;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= prev);
            prev = t;
            n += 1;
        }
        assert_eq!(n, live.len());
    }

    #[test]
    fn stats_track_traffic_and_conserve_across_clear() {
        let mut q = IndexedEventQueue::new();
        let h = q.schedule(1.0, "a").unwrap();
        q.schedule(2.0, "b").unwrap();
        q.schedule(3.0, "c").unwrap();
        q.note_expired(); // a draw past the horizon, never enqueued
        assert!(q.cancel(h));
        assert_eq!(q.pop().unwrap().1, "b");
        let s = q.stats();
        assert_eq!(s.scheduled, 4);
        assert_eq!(s.fired, 1);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.expired, 1);
        assert_eq!(s.depth_high_water, 3);
        assert_eq!(s.heap_crossings, 0);
        assert!(s.conserves(q.len()));
        // `clear` counts the wiped entry as cancelled and keeps the
        // cumulative totals.
        q.clear();
        let s = q.stats();
        assert_eq!(s.cancelled, 2);
        assert!(s.conserves(0));
        // Crossing the linear threshold registers exactly once per cycle.
        for i in 0..=(LINEAR_MAX as u64) {
            q.schedule_at(i as f64, "x").unwrap();
        }
        assert!(q.is_heap);
        assert_eq!(q.stats().heap_crossings, 1);
        assert_eq!(q.stats().depth_high_water, LINEAR_MAX as u64 + 1);
        q.cancel_all();
        assert!(q.stats().conserves(q.len()));
    }

    #[test]
    fn mixed_schedule_pop_traffic_around_the_threshold_stays_sorted() {
        // Drive the fill level back and forth across LINEAR_MAX; once
        // heapified the queue must stay correct as it drains and refills.
        let mut q = IndexedEventQueue::new();
        let mut scheduled = 0u64;
        let mut popped = Vec::new();
        for round in 0..6 {
            for i in 0..(LINEAR_MAX as u64) {
                let t = 1000.0 * round as f64 + ((i * 37) % 100) as f64 + q.now();
                q.schedule_at(t, scheduled).unwrap();
                scheduled += 1;
            }
            for _ in 0..(LINEAR_MAX / 2) {
                popped.push(q.pop().unwrap().0);
            }
        }
        while let Some((t, _)) = q.pop() {
            popped.push(t);
        }
        assert_eq!(popped.len(), scheduled as usize);
        for w in popped.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
